package transform

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/beebs"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/mcc"
	"repro/internal/power"
	"repro/internal/sim"
)

func TestFigure4PaperCosts(t *testing.T) {
	cases := []struct {
		shape  Shape
		bytes  int
		cycles int
	}{
		{ShapeUncond, 4, 4},
		{ShapeCond, 8, 7},
		{ShapeShortCond, 10, 8},
		{ShapeFallThrough, 4, 4},
		{ShapeReturn, 0, 0},
		{ShapeIndirect, 0, 0},
	}
	for _, c := range cases {
		b, cy := PaperCost(c.shape)
		if b != c.bytes || cy != c.cycles {
			t.Errorf("PaperCost(%v) = %dB/%dcy, want %dB/%dcy (Figure 4)",
				c.shape, b, cy, c.bytes, c.cycles)
		}
	}
}

func TestShapeOf(t *testing.T) {
	p := ir.Figure2Program()
	fn := p.Func("fn")
	cases := map[string]Shape{
		"fn_init":   ShapeFallThrough,
		"fn_loop":   ShapeCond,
		"fn_if":     ShapeCond,
		"fn_iftrue": ShapeFallThrough,
		"fn_return": ShapeReturn,
	}
	for lbl, want := range cases {
		if got := ShapeOf(fn.Block(lbl)); got != want {
			t.Errorf("ShapeOf(%s) = %v, want %v", lbl, got, want)
		}
	}
	mb := p.Func("main").Block("main_entry")
	if got := ShapeOf(mb); got != ShapeReturn { // pop {r4, pc}
		t.Errorf("ShapeOf(main_entry) = %v, want return", got)
	}
}

func TestInstrumentationCostShapes(t *testing.T) {
	p := ir.Figure2Program()
	fn := p.Func("fn")
	// fn_loop: conditional, r12 scratch → it(2)+2×ldr.w(4)+bx(2)−b(2)=10,
	// pool 8, cycles 7−3=4.
	c := InstrumentationCost(fn.Block("fn_loop"))
	if c.Bytes != 10 || c.PoolBytes != 8 || c.Cycles != 4 {
		t.Errorf("cond cost = %+v, want {10 8 4}", c)
	}
	// fn_return: return shape, zero cost.
	c = InstrumentationCost(fn.Block("fn_return"))
	if c.Total() != 0 || c.Cycles != 0 {
		t.Errorf("return cost = %+v, want zero", c)
	}
	// main_entry: return terminator but one call → call rewrite cost:
	// ldr.w(4)+blx(2)−bl(4)=2 bytes, pool 4, cycles 2.
	c = InstrumentationCost(p.Func("main").Block("main_entry"))
	if c.Bytes != 2 || c.PoolBytes != 4 || c.Cycles != 2 {
		t.Errorf("call cost = %+v, want {2 4 2}", c)
	}
}

func runProgram(t *testing.T, p *ir.Program, inRAM map[string]bool) (*sim.Machine, *sim.Stats) {
	t.Helper()
	img, err := layout.New(p, layout.DefaultConfig(), inRAM)
	if err != nil {
		t.Fatalf("layout: %v", err)
	}
	m := sim.New(img, power.STM32F100())
	st, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, st
}

func TestApplyPaperPlacement(t *testing.T) {
	base := ir.Figure2Program()
	mBase, stBase := runProgram(t, base, nil)
	rBase, _ := mBase.ReadGlobal("result")

	p := base.Clone()
	inRAM := map[string]bool{"fn_loop": true, "fn_if": true}
	rep, err := Apply(p, inRAM)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Moved) != 2 {
		t.Errorf("Moved = %v, want 2 blocks", rep.Moved)
	}
	// fn_init must have been instrumented (falls through into RAM), and
	// fn_if (its successors are in flash).
	joined := strings.Join(rep.Instrumented, ",")
	for _, want := range []string{"fn_init", "fn_if"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Instrumented = %v, missing %s", rep.Instrumented, want)
		}
	}
	if rep.ExtraBytes <= 0 || rep.ExtraCycles <= 0 {
		t.Errorf("report deltas = %+v, want positive", rep)
	}

	mOpt, stOpt := runProgram(t, p, inRAM)
	rOpt, _ := mOpt.ReadGlobal("result")
	if rOpt != rBase {
		t.Fatalf("optimized result %d != baseline %d", rOpt, rBase)
	}
	if stOpt.EnergyNJ >= stBase.EnergyNJ {
		t.Errorf("energy %.0f nJ not reduced (baseline %.0f)", stOpt.EnergyNJ, stBase.EnergyNJ)
	}
	if stOpt.Cycles <= stBase.Cycles {
		t.Errorf("cycles %d not increased (baseline %d)", stOpt.Cycles, stBase.Cycles)
	}
	if pw, pb := mOpt.AveragePowerMW(stOpt), mBase.AveragePowerMW(stBase); pw >= pb {
		t.Errorf("power %.2f mW not reduced (baseline %.2f)", pw, pb)
	}
}

// TestEveryPlacementPreservesSemantics is the key property test: for every
// subset of the Figure 2 program's six blocks, the transformed program
// must lay out, run, and produce the baseline result.
func TestEveryPlacementPreservesSemantics(t *testing.T) {
	base := ir.Figure2Program()
	mBase, _ := runProgram(t, base, nil)
	want, _ := mBase.ReadGlobal("result")

	labels := []string{"fn_init", "fn_loop", "fn_if", "fn_iftrue", "fn_return", "main_entry"}
	for mask := 0; mask < 1<<len(labels); mask++ {
		inRAM := make(map[string]bool)
		for i, lbl := range labels {
			if mask&(1<<i) != 0 {
				inRAM[lbl] = true
			}
		}
		p := base.Clone()
		if _, err := Apply(p, inRAM); err != nil {
			t.Fatalf("mask %06b: Apply: %v", mask, err)
		}
		m, _ := runProgram(t, p, inRAM)
		got, _ := m.ReadGlobal("result")
		if got != want {
			t.Fatalf("mask %06b: result %d, want %d", mask, got, want)
		}
	}
}

func TestCallRewrite(t *testing.T) {
	// Whole callee in RAM: main's bl must become ldr r12,=fn + blx r12.
	base := ir.Figure2Program()
	p := base.Clone()
	inRAM := map[string]bool{
		"fn_init": true, "fn_loop": true, "fn_if": true,
		"fn_iftrue": true, "fn_return": true,
	}
	rep, err := Apply(p, inRAM)
	if err != nil {
		t.Fatal(err)
	}
	mb := p.Func("main").Block("main_entry")
	foundBlx := false
	for i := range mb.Instrs {
		if mb.Instrs[i].Op == isa.BL {
			t.Error("direct bl survived a cross-memory call")
		}
		if mb.Instrs[i].Op == isa.BLX && mb.Instrs[i].Rm == ScratchReg {
			foundBlx = true
			if i == 0 || mb.Instrs[i-1].Op != isa.LDRLIT || mb.Instrs[i-1].Sym != "fn" {
				t.Error("blx not preceded by ldr r12, =fn")
			}
		}
	}
	if !foundBlx {
		t.Fatal("no blx emitted for cross-memory call")
	}
	if len(rep.Instrumented) == 0 {
		t.Error("main_entry should be reported instrumented")
	}

	// And it runs correctly.
	mBase, _ := runProgram(t, base, nil)
	want, _ := mBase.ReadGlobal("result")
	m, _ := runProgram(t, p, inRAM)
	got, _ := m.ReadGlobal("result")
	if got != want {
		t.Fatalf("result %d, want %d", got, want)
	}
}

func TestSameMemoryCallUntouched(t *testing.T) {
	p := ir.Figure2Program().Clone()
	rep, err := Apply(p, nil) // everything stays in flash
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Instrumented) != 0 || len(rep.Moved) != 0 {
		t.Errorf("no-op placement changed code: %+v", rep)
	}
	mb := p.Func("main").Block("main_entry")
	hasBL := false
	for i := range mb.Instrs {
		if mb.Instrs[i].Op == isa.BL {
			hasBL = true
		}
	}
	if !hasBL {
		t.Error("same-memory bl should be untouched")
	}
}

func TestLibraryBlocksRefuse(t *testing.T) {
	p := ir.Figure2Program()
	p.Funcs[0].Library = true // fn becomes a library function
	_, err := Apply(p.Clone(), map[string]bool{"fn_loop": true})
	if err == nil || !strings.Contains(err.Error(), "library") {
		t.Fatalf("err = %v, want library refusal", err)
	}
}

func TestShortCondRewrite(t *testing.T) {
	// A cbnz loop crossing memories gets the cmp+it+ldr+ldr+bx form.
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})
	e := f.AddBlock("entry")
	ir.Build(e).MovImm(isa.R0, 5).LdrLit(isa.R2, "out")
	loop := f.AddBlock("loop")
	ir.Build(loop).SubImm(isa.R0, isa.R0, 1).Cbnz(isa.R0, "loop")
	done := f.AddBlock("done")
	ir.Build(done).Str(isa.R0, isa.R2, 0).Ret()
	p.AddGlobal(&ir.Global{Name: "out", Size: 4, Init: []byte{9, 9, 9, 9}})
	p.Reindex()

	inRAM := map[string]bool{"loop": true}
	q := p.Clone()
	if _, err := Apply(q, inRAM); err != nil {
		t.Fatal(err)
	}
	lb := q.Func("main").Block("loop")
	ops := make([]isa.Op, len(lb.Instrs))
	for i := range lb.Instrs {
		ops[i] = lb.Instrs[i].Op
	}
	// sub, cmp, it, ldr, ldr, bx
	wantOps := []isa.Op{isa.SUB, isa.CMP, isa.IT, isa.LDRLIT, isa.LDRLIT, isa.BX}
	if len(ops) != len(wantOps) {
		t.Fatalf("loop ops = %v, want %v", ops, wantOps)
	}
	for i := range ops {
		if ops[i] != wantOps[i] {
			t.Fatalf("loop ops = %v, want %v", ops, wantOps)
		}
	}
	m, _ := runProgram(t, q, inRAM)
	got, _ := m.ReadGlobal("out")
	if got != 0 {
		t.Errorf("out = %d, want 0", got)
	}
}

func TestApplyOnCloneLeavesOriginal(t *testing.T) {
	base := ir.Figure2Program()
	before := base.String()
	q := base.Clone()
	if _, err := Apply(q, map[string]bool{"fn_loop": true, "fn_if": true}); err != nil {
		t.Fatal(err)
	}
	if base.String() != before {
		t.Error("Apply mutated the original program through the clone")
	}
}

// The empty placement is the all-flash baseline in every transform mode:
// Apply and ApplyLinkTime leave every BEEBS program untouched and report
// nothing, and the result lays out to the baseline image — same blocks,
// addresses, literal addresses and symbols. The session's image-keyed
// memos rely on this to serve such configurations the baseline's runs.
func TestEmptyPlacementIsTheBaseline(t *testing.T) {
	cfg := layout.DefaultConfig()
	modes := map[string]func(*ir.Program, map[string]bool) (*Report, error){
		"Apply": Apply, "ApplyLinkTime": ApplyLinkTime,
	}
	for _, b := range beebs.All() {
		for _, level := range []mcc.OptLevel{mcc.O2, mcc.Os} {
			p, err := mcc.Compile(b.Source, level)
			if err != nil {
				t.Fatal(err)
			}
			base, err := layout.New(p, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			for name, apply := range modes {
				q := p.Clone()
				rep, err := apply(q, map[string]bool{})
				if err != nil {
					t.Fatalf("%s/%v %s: %v", b.Name, level, name, err)
				}
				if !reflect.DeepEqual(rep, &Report{}) {
					t.Errorf("%s/%v %s: empty placement reported %+v", b.Name, level, name, rep)
				}
				if !reflect.DeepEqual(q, p) {
					t.Errorf("%s/%v %s: empty placement changed the program", b.Name, level, name)
				}
				img, err := layout.New(q, cfg, map[string]bool{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(img, base) {
					t.Errorf("%s/%v %s: empty placement laid out differently from the baseline", b.Name, level, name)
				}
			}
		}
	}
}
