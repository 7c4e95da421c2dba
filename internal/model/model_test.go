package model

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/freq"
	"repro/internal/ir"
	"repro/internal/power"
)

func buildModel(t *testing.T, p *ir.Program, params Params) *Model {
	t.Helper()
	gs, err := cfg.BuildAll(p)
	if err != nil {
		t.Fatal(err)
	}
	est := freq.Static(p, gs)
	m, err := Build(p, gs, est, params)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func defaultParams() Params {
	ef, er := power.STM32F100().Coefficients()
	return Params{EFlash: ef, ERAM: er, Rspare: 2048, Xlimit: 1.5}
}

func TestBuildRejectsBadParams(t *testing.T) {
	p := ir.Figure2Program()
	gs, _ := cfg.BuildAll(p)
	est := freq.Static(p, gs)
	cases := []struct {
		params Params
		want   string
	}{
		{Params{EFlash: 1, ERAM: 0.5, Xlimit: 0.9, Rspare: 100}, "Xlimit"},
		{Params{EFlash: 1, ERAM: 0.5, Xlimit: 1.1, Rspare: -1}, "Rspare"},
		{Params{EFlash: 0.5, ERAM: 1, Xlimit: 1.1, Rspare: 100}, "nothing to optimize"},
		{Params{EFlash: 1, ERAM: -0.5, Xlimit: 1.1, Rspare: 100}, "negative ERAM"},
		{Params{EFlash: 1, ERAM: 0.5, Xlimit: 1.1, Rspare: 100, CkptNJPerByte: -0.1}, "checkpoint"},
	}
	for _, c := range cases {
		if _, err := Build(p, gs, est, c.params); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Build(%+v) err = %v, want %q", c.params, err, c.want)
		}
	}
}

func TestExtractedParameters(t *testing.T) {
	p := ir.Figure2Program()
	m := buildModel(t, p, defaultParams())

	loop := m.Data("fn_loop")
	if loop == nil {
		t.Fatal("no data for fn_loop")
	}
	if loop.C != 6 { // mul(1) + add(1) + cmp(1) + bne taken(3)
		t.Errorf("C(loop) = %v, want 6", loop.C)
	}
	if loop.S != 8 {
		t.Errorf("S(loop) = %v, want 8", loop.S)
	}
	if loop.F != 10 { // called once, depth 1, trip 10
		t.Errorf("F(loop) = %v, want 10", loop.F)
	}
	if loop.T != 4 || loop.K != 18 { // cond shape, r12: 10B instr + 8B pool
		t.Errorf("T/K(loop) = %v/%v, want 4/18", loop.T, loop.K)
	}
	if loop.L != 0 {
		t.Errorf("L(loop) = %v, want 0 (no loads)", loop.L)
	}
	if !loop.Movable {
		t.Error("loop must be movable")
	}
	// Succ(loop) = {loop, if}.
	if len(loop.Edges) != 2 {
		t.Errorf("edges(loop) = %d, want 2", len(loop.Edges))
	}

	ret := m.Data("fn_return")
	if ret.T != 0 || ret.K != 0 {
		t.Errorf("return block T/K = %v/%v, want 0/0", ret.T, ret.K)
	}

	mainB := m.Data("main_entry")
	if mainB.L != 1 { // the ldr =result literal load; the pop's stall is not in Lb
		t.Errorf("L(main_entry) = %v, want 1", mainB.L)
	}
	// Call edge to fn_init must be present.
	foundCallEdge := false
	for _, e := range mainB.Edges {
		if e.Label == "fn_init" {
			foundCallEdge = true
		}
	}
	if !foundCallEdge {
		t.Error("main_entry missing call edge to fn_init")
	}

	if m.BaseCycles <= 0 || m.BaseEnergyNJ <= 0 {
		t.Error("base cycles/energy must be positive")
	}
}

func TestLibraryBlocksNotMovable(t *testing.T) {
	p := ir.Figure2Program()
	p.Func("fn").Library = true
	m := buildModel(t, p, defaultParams())
	if m.Data("fn_loop").Movable {
		t.Error("library block must not be movable")
	}
	if !m.Data("main_entry").Movable {
		t.Error("non-library block must stay movable")
	}
}

func TestEvaluateMatchesILPObjective(t *testing.T) {
	p := ir.Figure2Program()
	// For several placements: Evaluate energy − base == LP objective at
	// the materialized point, always powered and with a checkpoint term,
	// which also prices the K bytes of an instrumented block in RAM.
	placements := []map[string]bool{
		{},
		{"fn_loop": true},
		{"fn_loop": true, "fn_if": true},
		{"fn_init": true, "fn_loop": true, "fn_if": true, "fn_iftrue": true, "fn_return": true},
	}
	for _, q := range []float64{0, 0.75} {
		params := defaultParams()
		params.CkptNJPerByte = q
		m := buildModel(t, p, params)
		prob, vars := m.BuildILP()
		chargedK := false
		for _, inRAM := range placements {
			x := m.MaterializeX(vars, inRAM)
			obj := prob.Objective(x)
			ev := m.Evaluate(inRAM)
			if math.Abs((ev.EnergyNJ-m.BaseEnergyNJ)-obj) > 1e-6 {
				t.Errorf("Q %v, placement %v: Evaluate−base = %v, LP obj = %v",
					q, inRAM, ev.EnergyNJ-m.BaseEnergyNJ, obj)
			}
			if !prob.Feasible(x, 1e-6) && ev.Feasible {
				t.Errorf("Q %v, placement %v: Evaluate feasible but LP rows violated", q, inRAM)
			}
			for b, j := range vars.IR {
				chargedK = chargedK || j >= 0 && x[j] == 1 && m.Blocks[b].K > 0
			}
		}
		if !chargedK {
			t.Errorf("Q %v: no placement instruments a block with K > 0 in RAM", q)
		}
	}
}

// The checkpoint term keeps the ILP objective and Evaluate in lockstep,
// and a zero term changes nothing — the always-powered model is the
// bit-exact special case.
func TestCheckpointTermSymmetry(t *testing.T) {
	p := ir.Figure2Program()
	params := defaultParams()
	params.CkptNJPerByte = 0.75
	m := buildModel(t, p, params)
	prob, vars := m.BuildILP()
	placements := []map[string]bool{
		{},
		{"fn_loop": true},
		{"fn_loop": true, "fn_if": true},
	}
	for _, inRAM := range placements {
		x := m.MaterializeX(vars, inRAM)
		obj := prob.Objective(x)
		ev := m.Evaluate(inRAM)
		if math.Abs((ev.EnergyNJ-m.BaseEnergyNJ)-obj) > 1e-6 {
			t.Errorf("placement %v: Evaluate−base = %v, LP obj = %v",
				inRAM, ev.EnergyNJ-m.BaseEnergyNJ, obj)
		}
	}

	// Zero term: objective coefficients and Evaluate bit-identical to a
	// model built without the field.
	base := buildModel(t, p, defaultParams())
	bProb, bVars := base.BuildILP()
	zero := buildModel(t, p, defaultParams())
	zProb, zVars := zero.BuildILP()
	for _, inRAM := range placements {
		if got, want := zProb.Objective(zero.MaterializeX(zVars, inRAM)), bProb.Objective(base.MaterializeX(bVars, inRAM)); got != want {
			t.Errorf("zero checkpoint term perturbed objective: %v != %v", got, want)
		}
		if got, want := zero.Evaluate(inRAM).EnergyNJ, base.Evaluate(inRAM).EnergyNJ; got != want {
			t.Errorf("zero checkpoint term perturbed Evaluate: %v != %v", got, want)
		}
	}
}

// A checkpoint term large enough to outweigh a block's execution saving
// flips its optimal placement back to flash: RAM residency is no longer
// free under intermittent power.
func TestCheckpointTermFlipsPlacement(t *testing.T) {
	p := ir.Figure2Program()
	m := buildModel(t, p, defaultParams())
	inRAM := map[string]bool{"fn_loop": true}
	// Without the term, the loop in RAM beats all-flash.
	if m.Evaluate(inRAM).EnergyNJ >= m.Evaluate(nil).EnergyNJ {
		t.Fatal("precondition: loop in RAM must save energy when always powered")
	}
	params := defaultParams()
	// The loop is 8 bytes; its saving is a few hundred nJ. Price journal
	// traffic far above that.
	params.CkptNJPerByte = 1e6
	hostile := buildModel(t, p, params)
	if hostile.Evaluate(inRAM).EnergyNJ <= hostile.Evaluate(nil).EnergyNJ {
		t.Error("checkpoint term failed to penalize RAM residency")
	}
}

func TestEvaluateInstrumentationDetection(t *testing.T) {
	p := ir.Figure2Program()
	m := buildModel(t, p, defaultParams())

	// Only the loop in RAM: init (fall-through into loop), loop (exit to
	// if) cross; so both carry T.
	out1 := m.Evaluate(map[string]bool{"fn_loop": true})
	// Loop + if in RAM: loop's successors are loop (RAM) and if (RAM) —
	// loop is NOT instrumented; init and if are.
	out2 := m.Evaluate(map[string]bool{"fn_loop": true, "fn_if": true})

	// out2 must be cheaper: the hot loop loses its instrumentation cost
	// even though 'if' (cold) gains one. This is the paper's clustering
	// argument.
	if out2.EnergyNJ >= out1.EnergyNJ {
		t.Errorf("clustered placement %v nJ >= lone-loop %v nJ", out2.EnergyNJ, out1.EnergyNJ)
	}
	if out2.Cycles >= out1.Cycles {
		t.Errorf("clustered placement cycles %v >= lone-loop %v", out2.Cycles, out1.Cycles)
	}
}

func TestEvaluateConstraints(t *testing.T) {
	p := ir.Figure2Program()
	params := defaultParams()
	params.Rspare = 4 // nothing fits
	m := buildModel(t, p, params)
	out := m.Evaluate(map[string]bool{"fn_loop": true})
	if out.Feasible {
		t.Error("placement should violate a 4-byte Rspare")
	}
	if m.Evaluate(map[string]bool{}).Feasible == false {
		t.Error("empty placement always feasible")
	}

	params = defaultParams()
	params.Xlimit = 1.0000001 // almost no slack
	m = buildModel(t, p, params)
	out = m.Evaluate(map[string]bool{"fn_loop": true})
	if out.Feasible {
		t.Error("placement should violate a 1.0 Xlimit")
	}
}

func TestUnmovableInPlacementInfeasible(t *testing.T) {
	p := ir.Figure2Program()
	p.Func("fn").Library = true
	m := buildModel(t, p, defaultParams())
	out := m.Evaluate(map[string]bool{"fn_loop": true})
	if out.Feasible {
		t.Error("library block in placement must be infeasible")
	}
}

func TestCandidateCap(t *testing.T) {
	p := ir.Figure2Program()
	params := defaultParams()
	params.MaxCandidates = 2
	m := buildModel(t, p, params)
	n := 0
	for _, bd := range m.Blocks {
		if bd.Movable {
			n++
		}
	}
	if n != 2 {
		t.Errorf("movable blocks = %d, want 2 (capped)", n)
	}
	// The hottest block must survive the cap.
	if !m.Data("fn_loop").Movable {
		t.Error("hottest block fn_loop was capped away")
	}
}

func TestRounderProducesFeasible(t *testing.T) {
	p := ir.Figure2Program()
	params := defaultParams()
	params.Rspare = 30 // tight: forces the rounder to drop blocks
	m := buildModel(t, p, params)
	prob, vars := m.BuildILP()
	r := m.Rounder(vars)

	// A deliberately over-full fractional point: all r at 0.9.
	x := make([]float64, vars.N)
	for _, j := range vars.Binaries {
		x[j] = 0.9
	}
	rx, ok := r(x)
	if !ok {
		t.Fatal("rounder failed")
	}
	if !prob.Feasible(rx, 1e-6) {
		t.Error("rounded vector violates LP rows")
	}
	inRAM := m.PlacementFromX(vars, rx)
	if !m.Evaluate(inRAM).Feasible {
		t.Error("rounded placement infeasible under the model")
	}
}
