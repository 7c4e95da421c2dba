package transform

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/power"
	"repro/internal/sim"
)

func TestLiveOutFigure2(t *testing.T) {
	p := ir.Figure2Program()
	f := p.Func("fn")
	lo, err := liveOutSets(p, f)
	if err != nil {
		t.Fatal(err)
	}
	loop := f.Block("fn_loop")
	// r1 (x) and r2 (k) are live across the loop's back edge; r0 (i) too.
	for _, r := range []isa.Reg{isa.R0, isa.R1, isa.R2} {
		if !lo[loop].has(r) {
			t.Errorf("%v not live-out of fn_loop", r)
		}
	}
	// r3 is never used and is caller-saved: the only scavengeable low
	// register inside fn.
	if lo[loop].has(isa.R3) {
		t.Errorf("r3 incorrectly live-out of fn_loop")
	}
	// r4-r7 are callee-saved and fn does not push them, so the CALLER's
	// values flow through: they must be considered live (clobbering them
	// in an instrumentation sequence would corrupt main's state).
	for _, r := range []isa.Reg{isa.R4, isa.R5, isa.R6, isa.R7} {
		if !lo[loop].has(r) {
			t.Errorf("callee-saved %v must be live through fn", r)
		}
	}
	// Return block has no successors: empty live-out set.
	ret := f.Block("fn_return")
	if lo[ret] != 0 {
		t.Errorf("return block live-out = %016b, want empty", lo[ret])
	}
}

func TestScavengePicksLowestDead(t *testing.T) {
	var s regSet
	s.add(isa.R0)
	s.add(isa.R1)
	r, ok := scavenge(s)
	if !ok || r != isa.R2 {
		t.Errorf("scavenge = %v/%v, want r2", r, ok)
	}
	full := regSet(0xFF) // r0-r7 all live
	if _, ok := scavenge(full); ok {
		t.Error("scavenge found a register in a full set")
	}
}

// TestScavengedInstrumentation: the Figure 2 placement must scavenge (r3
// is dead at the loop exits) and still compute the right answer.
func TestScavengedInstrumentation(t *testing.T) {
	base := ir.Figure2Program()
	baseImg, err := layout.New(base, layout.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mBase := sim.New(baseImg, power.STM32F100())
	if _, err := mBase.Run(); err != nil {
		t.Fatal(err)
	}
	want, _ := mBase.ReadGlobal("result")

	inRAM := map[string]bool{"fn_loop": true, "fn_if": true}
	p := base.Clone()
	rep, err := Apply(p, inRAM)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scavenged == 0 {
		t.Error("no sequences scavenged; r3 is provably dead in fn")
	}
	// The rewritten fn_if must use a low register, not r12.
	ifB := p.Func("fn").Block("fn_if")
	for i := range ifB.Instrs {
		in := &ifB.Instrs[i]
		if in.Op == isa.LDRLIT && in.Rd != isa.PC {
			if !in.Rd.IsLow() {
				t.Errorf("instrumentation ldr uses %v, expected a scavenged low register", in.Rd)
			}
		}
	}

	img, err := layout.New(p, layout.DefaultConfig(), inRAM)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(img, power.STM32F100())
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadGlobal("result")
	if got != want {
		t.Fatalf("scavenged program result %d != baseline %d", got, want)
	}
}

// TestScavengeAblation: scavenging shrinks the instrumented code versus
// the forced-r12 variant, and both run correctly.
func TestScavengeAblation(t *testing.T) {
	base := ir.Figure2Program()
	inRAM := map[string]bool{"fn_loop": true, "fn_if": true}

	withScav := base.Clone()
	repS, err := ApplyWithOptions(withScav, inRAM, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without := base.Clone()
	repN, err := ApplyWithOptions(without, inRAM, Options{NoScavenge: true})
	if err != nil {
		t.Fatal(err)
	}
	if repN.Scavenged != 0 {
		t.Error("NoScavenge still scavenged")
	}
	if repS.ExtraBytes >= repN.ExtraBytes {
		t.Errorf("scavenged bytes %d not below r12 bytes %d",
			repS.ExtraBytes, repN.ExtraBytes)
	}
	// Both semantically intact.
	for _, prog := range []*ir.Program{withScav, without} {
		img, err := layout.New(prog, layout.DefaultConfig(), inRAM)
		if err != nil {
			t.Fatal(err)
		}
		m := sim.New(img, power.STM32F100())
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScavengeRespectsLiveRegisters: a block whose low registers are all
// live must fall back to r12.
func TestScavengeRespectsLiveRegisters(t *testing.T) {
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})
	e := f.AddBlock("entry")
	// Make r0-r7 all carry values consumed after the conditional.
	bb := ir.Build(e)
	for r := isa.R0; r <= isa.R7; r++ {
		bb.MovImm(r, int32(r)+1)
	}
	bb.CmpImm(isa.R0, 5).Bcond(isa.NE, "sink")
	mid := f.AddBlock("mid")
	ir.Build(mid).AddImm(isa.R1, isa.R1, 1)
	sink := f.AddBlock("sink")
	sb := ir.Build(sink).LdrLit(isa.R8, "out")
	for r := isa.R0; r <= isa.R7; r++ {
		sb.Str(r, isa.R8, 0) // consume every low register
	}
	sb.Ret()
	p.AddGlobal(&ir.Global{Name: "out", Size: 4})
	p.Reindex()

	q := p.Clone()
	rep, err := Apply(q, map[string]bool{"entry": true, "mid": true})
	if err != nil {
		t.Fatal(err)
	}
	_ = rep
	entry := q.Func("main").Block("entry")
	for i := range entry.Instrs {
		in := &entry.Instrs[i]
		if in.Op == isa.LDRLIT && in.Rd != isa.PC && in.Rd.IsLow() {
			t.Fatalf("scavenged %v although all low registers are live", in.Rd)
		}
	}
}
