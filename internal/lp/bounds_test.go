package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// TestColumnBounds solves small problems whose answers sit on column
// bounds: bound flips, a basic column leaving at its upper bound, a
// lower bound above zero, a fixed column, and a lower bound that makes
// the slack basis infeasible.
func TestColumnBounds(t *testing.T) {
	inf := math.Inf(1)
	type bound struct{ lo, hi float64 }
	cases := []struct {
		name   string
		obj    []float64
		bounds []bound
		rows   []map[int]float64
		rhs    []float64
		want   Status
		wantX  []float64
	}{
		{"upper bound without a row", []float64{-1}, []bound{{1, 3}}, nil, nil,
			Optimal, []float64{3}},
		{"lower bound above zero", []float64{1}, []bound{{2, 5}}, nil, nil,
			Optimal, []float64{2}},
		{"fixed column", []float64{-1, -1}, []bound{{2, 2}, {0, inf}},
			[]map[int]float64{{0: 1, 1: 1}}, []float64{5},
			Optimal, []float64{2, 3}},
		{"lower bound makes the slack basis infeasible", []float64{1, 1}, []bound{{3, 10}, {0, inf}},
			[]map[int]float64{{0: 1, 1: -1}}, []float64{1},
			Optimal, []float64{3, 2}},
		{"knapsack relaxation by bound flips", []float64{-5, -4, -3}, []bound{{0, 1}, {0, 1}, {0, 1}},
			[]map[int]float64{{0: 2, 1: 3, 2: 1}}, []float64{5},
			Optimal, []float64{1, 2.0 / 3.0, 1}},
		{"basic column leaves at its upper bound", []float64{-1, -0.1}, []bound{{0, 1}, {0, 2}},
			[]map[int]float64{{0: 1, 1: -1}}, []float64{0},
			Optimal, []float64{1, 2}},
		{"equality over bounded columns", []float64{1, 2, 0}, []bound{{0, 1}, {0, 4}, {1, 1}},
			[]map[int]float64{{0: 1, 1: 1}, {0: -1, 1: -1, 2: 3}}, []float64{3, 0},
			Optimal, []float64{1, 2, 1}},
		{"unbounded above", []float64{-1}, []bound{{2, inf}}, nil, nil,
			Unbounded, nil},
		{"bounds contradict a row", []float64{1}, []bound{{2, 3}},
			[]map[int]float64{{0: 1}}, []float64{1},
			Infeasible, nil},
	}
	for _, tc := range cases {
		p := NewProblem(len(tc.obj))
		for j, c := range tc.obj {
			p.SetObj(j, c)
			p.SetBounds(j, tc.bounds[j].lo, tc.bounds[j].hi)
		}
		for i, row := range tc.rows {
			p.AddRow(row, tc.rhs[i])
		}
		s := solve(t, p)
		if s.Status != tc.want {
			t.Errorf("%s: status %v, want %v", tc.name, s.Status, tc.want)
			continue
		}
		for j, want := range tc.wantX {
			if !approx(s.X[j], want) {
				t.Errorf("%s: x = %v, want %v", tc.name, s.X, tc.wantX)
				break
			}
		}
	}
}

// boundedKnapsack is sweepProblem with native [lo, hi] column bounds in
// place of the x ≤ 1 rows — the placement model's shape.
func boundedKnapsack(c, w, lo, hi []float64, budget float64) *Problem {
	p := NewProblem(len(c))
	row := make(map[int]float64, len(c))
	for j := range c {
		p.SetObj(j, -c[j])
		p.SetBounds(j, lo[j], hi[j])
		row[j] = w[j]
	}
	p.AddRow(row, budget)
	return p
}

// TestSolveFromStateMatchesColdAfterBoundChange walks a chain of column
// bound edits — fix to 0, fix to 1, release to [0,1], release to
// [0,+Inf) — resuming each problem from the previous end state exactly
// how branch and bound walks its tree, and holds every answer to the
// cold solve's.
func TestSolveFromStateMatchesColdAfterBoundChange(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 10
	c := make([]float64, n)
	w := make([]float64, n)
	lo := make([]float64, n)
	hi := make([]float64, n)
	for j := range c {
		c[j] = 1 + rng.Float64()*9
		w[j] = 1 + rng.Float64()*4
		hi[j] = 1
	}
	st := solve(t, boundedKnapsack(c, w, lo, hi, 12)).State
	warmed := 0
	for step := 0; step < 60; step++ {
		j := rng.Intn(n)
		switch rng.Intn(4) {
		case 0:
			lo[j], hi[j] = 0, 0
		case 1:
			lo[j], hi[j] = 1, 1
		case 2:
			lo[j], hi[j] = 0, 1
		case 3:
			lo[j], hi[j] = 0, math.Inf(1)
		}
		p := boundedKnapsack(c, w, lo, hi, 12)
		cold := solve(t, p.Clone())
		warm, err := p.SolveFromState(context.Background(), st)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status || (cold.Status == Optimal && !approx(warm.Obj, cold.Obj)) {
			t.Fatalf("step %d: warm %v obj %v, cold %v obj %v",
				step, warm.Status, warm.Obj, cold.Status, cold.Obj)
		}
		certify(t, p, warm)
		if warm.Warmed {
			warmed++
		}
		if warm.Status == Optimal {
			st = warm.State
		}
	}
	if warmed < 30 {
		t.Errorf("only %d of 60 bound edits resumed the carried state", warmed)
	}
}

// TestSolveFromStateRHSEditsOnNegatedAndEqualityRows: an RHS edit on a
// row of a problem whose lower limit starts it outside the slack basis,
// and an edit on an equality written as its two ≤ rows, both resume:
// every row has a slack column to read the refresh and the certificates
// from. Every answer matches cold.
func TestSolveFromStateRHSEditsOnNegatedAndEqualityRows(t *testing.T) {
	// x0 ≥ lower and, for an equality, x0 + x1 ≥ sum carry the constant
	// 10 on column one, so lower and sum stay right-hand sides.
	build := func(sumRel rel, lower, sum float64) *Problem {
		p, one := withOne(2)
		p.SetObj(0, 1)
		p.SetObj(1, 2)
		p.AddRow(map[int]float64{0: -1, one: 10}, 10-lower) // x0 ≥ lower
		p.AddRow(map[int]float64{0: 1, 1: 1}, sum)          // x0 + x1 ≤ sum
		if sumRel == eq {
			p.AddRow(map[int]float64{0: -1, 1: -1, one: 10}, 10-sum) // x0 + x1 ≥ sum
		}
		p.AddRow(map[int]float64{0: 1, 1: -1}, sum-lower) // keeps x1 ≥ 0 slack
		return p
	}
	for _, tc := range []struct {
		sumRel     rel
		lower, sum float64
	}{
		{le, 3, 5}, // the lower limit's row edited
		{eq, 3, 5}, // the lower limit's row edited beside an equality
		{eq, 2, 6}, // the equality's rows edited
	} {
		donor := solve(t, build(tc.sumRel, 2, 5))
		p := build(tc.sumRel, tc.lower, tc.sum)
		cold := solve(t, p.Clone())
		warm, err := p.SolveFromState(context.Background(), donor.State)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status || !approx(warm.Obj, cold.Obj) {
			t.Errorf("rel %v lower %v sum %v: warm %v obj %v, cold %v obj %v",
				tc.sumRel, tc.lower, tc.sum, warm.Status, warm.Obj, cold.Status, cold.Obj)
		}
		if !warm.Warmed {
			t.Errorf("rel %v lower %v sum %v: fell back to a cold solve", tc.sumRel, tc.lower, tc.sum)
		}
		certify(t, p, warm)
	}
}
