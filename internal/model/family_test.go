package model_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/beebs"
	"repro/internal/cfg"
	"repro/internal/freq"
	"repro/internal/layout"
	"repro/internal/lp"
	"repro/internal/mcc"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/power"
)

// TestFamilyViewsMatchFreshBuilds is the differential test of the
// family/view split: on every BEEBS benchmark at O2 and Os, for three
// families and a grid of Rspare × Xlimit points, a WithBounds view of
// one family must be indistinguishable, bit for bit, from a fresh Build
// at that point — the same parameters, blocks and ILP lowering, and the
// same Evaluate outcome on every 2^8 cloud mask and on random
// placements, including ones that put non-movable or unknown blocks in
// RAM. Evaluate and EvaluateIn are also held to evaluateByLabel, the
// label-walking form of the model the dense one replaced.
func TestFamilyViewsMatchFreshBuilds(t *testing.T) {
	ef, er := power.STM32F100().Coefficients()
	families := []model.Params{
		{MaxCandidates: 8},
		{},
		{IncludeLibrary: true, CkptNJPerByte: 0.5},
	}
	for _, b := range beebs.All() {
		for _, level := range []mcc.OptLevel{mcc.O2, mcc.Os} {
			prog, err := mcc.Compile(b.Source, level)
			if err != nil {
				t.Fatalf("%s %v: %v", b.Name, level, err)
			}
			graphs, err := cfg.BuildAll(prog)
			if err != nil {
				t.Fatal(err)
			}
			est := freq.Static(prog, graphs)
			derived := float64(layout.SpareRAM(prog, layout.DefaultConfig()))
			for fi, fp := range families {
				fp.EFlash, fp.ERAM = ef, er
				fp.Rspare, fp.Xlimit = 0, 1
				fam, err := model.Build(prog, graphs, est, fp)
				if err != nil {
					t.Fatal(err)
				}
				for _, rspare := range []float64{0, 16, 512, derived} {
					for _, xlimit := range []float64{1.0, 1.2, 2.0, 1e9} {
						name := fmt.Sprintf("%s/%v/family%d/rspare=%g/xlimit=%g", b.Name, level, fi, rspare, xlimit)
						view, err := fam.WithBounds(rspare, xlimit)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						pp := fp
						pp.Rspare, pp.Xlimit = rspare, xlimit
						fresh, err := model.Build(prog, graphs, est, pp)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						compareModels(t, name, view, fresh, rand.New(rand.NewSource(int64(fi)*7919+int64(rspare)+int64(xlimit*100))))
					}
				}
			}
		}
	}
}

func compareModels(t *testing.T, name string, view, fresh *model.Model, rng *rand.Rand) {
	t.Helper()
	if view.Params != fresh.Params || view.BaseCycles != fresh.BaseCycles || view.BaseEnergyNJ != fresh.BaseEnergyNJ {
		t.Fatalf("%s: view params/base %+v %v %v, fresh %+v %v %v", name,
			view.Params, view.BaseCycles, view.BaseEnergyNJ, fresh.Params, fresh.BaseCycles, fresh.BaseEnergyNJ)
	}
	if !reflect.DeepEqual(view.Blocks, fresh.Blocks) {
		t.Fatalf("%s: view blocks differ from a fresh build's", name)
	}
	for _, bd := range fresh.Blocks {
		if !reflect.DeepEqual(view.Data(bd.Block.Label), bd) {
			t.Fatalf("%s: Data(%s) differs", name, bd.Block.Label)
		}
	}
	vProb, vVars := view.BuildILP()
	fProb, fVars := fresh.BuildILP()
	if !reflect.DeepEqual(vProb, fProb) || !reflect.DeepEqual(vVars, fVars) {
		t.Fatalf("%s: view ILP lowering differs from a fresh one", name)
	}

	check := func(what string, inRAM map[string]bool) {
		t.Helper()
		want := evaluateByLabel(fresh, inRAM)
		if got := fresh.Evaluate(inRAM); got != want {
			t.Fatalf("%s: %s: fresh Evaluate %+v, label-walking form %+v", name, what, got, want)
		}
		if got := view.Evaluate(inRAM); got != want {
			t.Fatalf("%s: %s: view Evaluate %+v, fresh %+v", name, what, got, want)
		}
	}
	checkDense := func(what string, in []bool) {
		t.Helper()
		inRAM := map[string]bool{}
		for b, r := range in {
			if r {
				inRAM[view.Blocks[b].Block.Label] = true
			}
		}
		check(what, inRAM)
		if got, want := view.EvaluateIn(in), view.Evaluate(inRAM); got != want {
			t.Fatalf("%s: %s: EvaluateIn %+v, Evaluate %+v", name, what, got, want)
		}
	}

	top := placement.TopBlocks(view, 8)
	index := map[*model.BlockData]int{}
	for b, bd := range view.Blocks {
		index[bd] = b
	}
	for mask := 0; mask < 1<<len(top); mask++ {
		in := make([]bool, len(view.Blocks))
		for i, bd := range top {
			in[index[bd]] = mask&(1<<i) != 0
		}
		checkDense(fmt.Sprintf("cloud mask %#x", mask), in)
	}
	for i := 0; i < 16; i++ {
		// Any block may land in RAM, movable or not.
		in := make([]bool, len(view.Blocks))
		for b := range in {
			in[b] = rng.Intn(4) == 0
		}
		checkDense(fmt.Sprintf("random placement %d", i), in)
		// A label that names no block makes it infeasible.
		inRAM := map[string]bool{"no_such_block": true}
		for b, r := range in {
			inRAM[view.Blocks[b].Block.Label] = r
		}
		check(fmt.Sprintf("random placement %d with an unknown block", i), inRAM)
	}
}

// evaluateByLabel is the model's Evaluate in its label-walking form: the
// placement is looked up by label for every block and every edge.
func evaluateByLabel(m *model.Model, inRAM map[string]bool) model.Outcome {
	out := model.Outcome{Feasible: true}
	for lbl, r := range inRAM {
		if bd := m.Data(lbl); r && (bd == nil || !bd.Movable) {
			out.Feasible = false
		}
	}
	for _, bd := range m.Blocks {
		r := inRAM[bd.Block.Label]
		instrumented := false
		for _, s := range bd.Edges {
			if inRAM[s.Label] != r {
				instrumented = true
				break
			}
		}
		cyc := bd.C
		if instrumented {
			cyc += bd.T
		}
		if r {
			cyc += bd.L
		}
		mem := m.Params.EFlash
		if r {
			mem = m.Params.ERAM
		}
		out.Cycles += bd.F * cyc
		out.EnergyNJ += bd.F * cyc * mem
		if r {
			out.RAMBytes += bd.S
			if instrumented {
				out.RAMBytes += bd.K
			}
			if q := m.Params.CkptNJPerByte; q != 0 {
				out.EnergyNJ += q * bd.S
				if instrumented {
					out.EnergyNJ += q * bd.K
				}
			}
		}
	}
	if out.RAMBytes > m.Params.Rspare+1e-9 {
		out.Feasible = false
	}
	if m.BaseCycles > 0 && out.Cycles > m.Params.Xlimit*m.BaseCycles+1e-6 {
		out.Feasible = false
	}
	return out
}

// forEachRootModel calls f with every BEEBS benchmark at O0, O2 and Os
// in three families, at the derived RAM budget and Xlimit 1.2.
func forEachRootModel(t *testing.T, f func(name string, m *model.Model)) {
	t.Helper()
	ef, er := power.STM32F100().Coefficients()
	for _, b := range beebs.All() {
		for _, level := range []mcc.OptLevel{mcc.O0, mcc.O2, mcc.Os} {
			prog, err := mcc.Compile(b.Source, level)
			if err != nil {
				t.Fatalf("%s %v: %v", b.Name, level, err)
			}
			graphs, err := cfg.BuildAll(prog)
			if err != nil {
				t.Fatal(err)
			}
			est := freq.Static(prog, graphs)
			derived := float64(layout.SpareRAM(prog, layout.DefaultConfig()))
			for fi, fp := range []model.Params{{MaxCandidates: 8}, {}, {IncludeLibrary: true}} {
				fp.EFlash, fp.ERAM, fp.Rspare, fp.Xlimit = ef, er, derived, 1.2
				m, err := model.Build(prog, graphs, est, fp)
				if err != nil {
					t.Fatal(err)
				}
				f(fmt.Sprintf("%s/%v/family%d", b.Name, level, fi), m)
			}
		}
	}
}

// solveRoot solves prob's relaxation and fails unless it is Optimal.
func solveRoot(t *testing.T, name string, prob *lp.Problem) *lp.Solution {
	t.Helper()
	sol, err := prob.Solve(context.Background())
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("%s: root %v, %v", name, sol, err)
	}
	return sol
}

// TestRootStateCells: on every root model (forEachRootModel), the root
// relaxation's end state holds m × (n+1) tableau cells for m rows over n
// columns — one per nonbasic column and row, and one per row for the
// basic values, none for the slack columns.
func TestRootStateCells(t *testing.T) {
	forEachRootModel(t, func(name string, m *model.Model) {
		prob, _ := m.BuildILP()
		sol := solveRoot(t, name, prob)
		if got, want := sol.State.Cells(), prob.NumRows()*(prob.NumVars()+1); got != want {
			t.Errorf("%s: %d cells, want %d rows × (%d columns + 1) = %d",
				name, got, prob.NumRows(), prob.NumVars(), want)
		}
	})
}

// TestSplitRootIsAtLeastMcCormick: on every root model, the root
// relaxation of the split lowering is at least that of the McCormick
// reference lowering (model.McCormickILP), as the package comment
// argues, up to rounding.
func TestSplitRootIsAtLeastMcCormick(t *testing.T) {
	forEachRootModel(t, func(name string, m *model.Model) {
		prob, _ := m.BuildILP()
		split := solveRoot(t, name, prob).Obj
		ref := solveRoot(t, name+" (McCormick)", model.McCormickILP(m)).Obj
		if split < ref-1e-9*(1+math.Abs(ref)) {
			t.Errorf("%s: split root %v below the McCormick root %v", name, split, ref)
		}
	})
}

// TestPenaltiesBoundRootChildren: on every root model, each fractional
// r_b of the root relaxation is held to its two children, the root with
// r_b fixed at 0 and at 1, each solved cold. A child's optimum must reach
// the root objective plus the child's Driebeek penalty
// (lp.State.Penalties), up to rounding, and a child whose penalty is
// +Inf must be infeasible. Branch and bound branches on these penalties.
func TestPenaltiesBoundRootChildren(t *testing.T) {
	children := 0
	forEachRootModel(t, func(name string, m *model.Model) {
		prob, vars := m.BuildILP()
		root := solveRoot(t, name, prob)
		for _, j := range vars.Binaries {
			x := root.X[j]
			if math.Abs(x-math.Round(x)) <= 1e-6 {
				continue
			}
			down, up := root.State.Penalties(j)
			for v, penalty := range []float64{down, up} {
				c := prob.Clone()
				c.SetBounds(j, float64(v), float64(v))
				cold, err := c.Solve(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				children++
				bound := root.Obj + penalty
				switch {
				case cold.Status == lp.Infeasible:
				case cold.Status != lp.Optimal:
					t.Errorf("%s: r column %d at %d: the cold solve is %v", name, j, v, cold.Status)
				case math.IsInf(penalty, 1):
					t.Errorf("%s: r column %d at %d: penalty +Inf, but the cold optimum is %v", name, j, v, cold.Obj)
				case cold.Obj < bound-1e-7*(1+math.Abs(bound)):
					t.Errorf("%s: r column %d at %d: root %v plus penalty %v is %v, but the cold optimum is %v",
						name, j, v, root.Obj, penalty, bound, cold.Obj)
				}
			}
		}
	})
	if children == 0 {
		t.Error("no root relaxation was fractional; the penalties go untested")
	}
	t.Logf("%d children checked", children)
}
