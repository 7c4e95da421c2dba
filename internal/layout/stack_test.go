package layout

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
)

func TestAnalyzeStackFigure2(t *testing.T) {
	p := ir.Figure2Program()
	an, err := AnalyzeStack(p)
	if err != nil {
		t.Fatal(err)
	}
	// main pushes {r4, lr} = 8 bytes; fn pushes nothing.
	if an.PerFunction["main"] != 8 {
		t.Errorf("main frame = %d, want 8", an.PerFunction["main"])
	}
	if an.PerFunction["fn"] != 0 {
		t.Errorf("fn frame = %d, want 0", an.PerFunction["fn"])
	}
	if an.MaxDepth != 8 {
		t.Errorf("MaxDepth = %d, want 8 (main + leaf fn)", an.MaxDepth)
	}
	if len(an.DeepestPath) == 0 || an.DeepestPath[0] != "main" {
		t.Errorf("DeepestPath = %v", an.DeepestPath)
	}
}

func TestAnalyzeStackChain(t *testing.T) {
	p := ir.NewProgram()
	mk := func(name string, frame int32, callee string) {
		f := p.AddFunc(&ir.Function{Name: name})
		b := f.AddBlock(name + "_entry")
		bb := ir.Build(b).Push(isa.R4, isa.LR)
		if frame > 0 {
			bb.SubImm(isa.SP, isa.SP, frame)
		}
		if callee != "" {
			bb.Bl(callee)
		}
		if frame > 0 {
			bb.AddImm(isa.SP, isa.SP, frame)
		}
		bb.Pop(isa.R4, isa.PC)
	}
	mk("main", 16, "mid")
	mk("mid", 32, "leaf")
	mk("leaf", 8, "")
	p.Reindex()

	an, err := AnalyzeStack(p)
	if err != nil {
		t.Fatal(err)
	}
	// Each frame: 8 (push) + explicit sub.
	want := (8 + 16) + (8 + 32) + (8 + 8)
	if an.MaxDepth != want {
		t.Errorf("MaxDepth = %d, want %d", an.MaxDepth, want)
	}
	if strings.Join(an.DeepestPath, ">") != "main>mid>leaf" {
		t.Errorf("path = %v", an.DeepestPath)
	}
}

func TestAnalyzeStackRejectsRecursion(t *testing.T) {
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})
	b := f.AddBlock("main_entry")
	ir.Build(b).Push(isa.R4, isa.LR).Bl("main").Pop(isa.R4, isa.PC)
	p.Reindex()
	if _, err := AnalyzeStack(p); err == nil || !strings.Contains(err.Error(), "recursion") {
		t.Fatalf("err = %v, want recursion", err)
	}
}

func TestAnalyzeStackResolvesLdrBlxIdiom(t *testing.T) {
	p := ir.NewProgram()
	leaf := p.AddFunc(&ir.Function{Name: "leaf"})
	lb := leaf.AddBlock("leaf_entry")
	ir.Build(lb).Push(isa.R4, isa.R5, isa.LR).Pop(isa.R4, isa.R5, isa.PC)
	m := p.AddFunc(&ir.Function{Name: "main"})
	mb := m.AddBlock("main_entry")
	ir.Build(mb).Push(isa.R4, isa.LR).
		LdrLit(isa.R12, "leaf").
		Blx(isa.R12).
		Pop(isa.R4, isa.PC)
	p.Reindex()

	an, err := AnalyzeStack(p)
	if err != nil {
		t.Fatal(err)
	}
	if an.MaxDepth != 8+12 {
		t.Errorf("MaxDepth = %d, want 20 (main 8 + leaf 12)", an.MaxDepth)
	}
}

func TestAnalyzeStackUnresolvableIndirect(t *testing.T) {
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})
	b := f.AddBlock("main_entry")
	ir.Build(b).Push(isa.R4, isa.LR).
		Mov(isa.R3, isa.R0). // r3 holds an unknown function pointer
		Blx(isa.R3).
		Pop(isa.R4, isa.PC)
	p.Reindex()
	if _, err := AnalyzeStack(p); err == nil || !strings.Contains(err.Error(), "indirect") {
		t.Fatalf("err = %v, want unresolvable indirect", err)
	}
}

func TestAnalyzeStackClobberedLiteralReg(t *testing.T) {
	// ldr r12,=leaf; mov r12, r0; blx r12 must NOT resolve to leaf.
	p := ir.NewProgram()
	leaf := p.AddFunc(&ir.Function{Name: "leaf"})
	lb := leaf.AddBlock("leaf_entry")
	ir.Build(lb).Ret()
	m := p.AddFunc(&ir.Function{Name: "main"})
	mb := m.AddBlock("main_entry")
	ir.Build(mb).Push(isa.R4, isa.LR).
		LdrLit(isa.R12, "leaf").
		Mov(isa.R12, isa.R0).
		Blx(isa.R12).
		Pop(isa.R4, isa.PC)
	p.Reindex()
	if _, err := AnalyzeStack(p); err == nil || !strings.Contains(err.Error(), "indirect") {
		t.Fatalf("err = %v, want unresolvable after clobber", err)
	}
}
