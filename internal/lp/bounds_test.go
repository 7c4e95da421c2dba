package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// TestColumnBounds solves small problems whose answers sit on column
// bounds: bound flips, a basic column leaving at its upper bound, a
// negative lower bound, a fixed column, and a lower bound that makes
// standard form negate a row.
func TestColumnBounds(t *testing.T) {
	inf := math.Inf(1)
	type bound struct{ lo, hi float64 }
	cases := []struct {
		name   string
		obj    []float64
		bounds []bound
		rows   []map[int]float64
		rels   []Rel
		rhs    []float64
		want   Status
		wantX  []float64
	}{
		{"upper bound without a row", []float64{-1}, []bound{{1, 3}}, nil, nil, nil,
			Optimal, []float64{3}},
		{"negative lower bound", []float64{1}, []bound{{-5, 2}}, nil, nil, nil,
			Optimal, []float64{-5}},
		{"fixed column", []float64{-1, -1}, []bound{{2, 2}, {0, inf}},
			[]map[int]float64{{0: 1, 1: 1}}, []Rel{LE}, []float64{5},
			Optimal, []float64{2, 3}},
		{"lower bound negates a row", []float64{1, 1}, []bound{{3, 10}, {0, inf}},
			[]map[int]float64{{0: 1, 1: -1}}, []Rel{LE}, []float64{1},
			Optimal, []float64{3, 2}},
		{"knapsack relaxation by bound flips", []float64{-5, -4, -3}, []bound{{0, 1}, {0, 1}, {0, 1}},
			[]map[int]float64{{0: 2, 1: 3, 2: 1}}, []Rel{LE}, []float64{5},
			Optimal, []float64{1, 2.0 / 3.0, 1}},
		{"basic column leaves at its upper bound", []float64{-1, -0.1}, []bound{{0, 1}, {0, 2}},
			[]map[int]float64{{0: 1, 1: -1}}, []Rel{LE}, []float64{0},
			Optimal, []float64{1, 2}},
		{"equality over bounded columns", []float64{1, 2}, []bound{{0, 1}, {0, 4}},
			[]map[int]float64{{0: 1, 1: 1}}, []Rel{EQ}, []float64{3},
			Optimal, []float64{1, 2}},
		{"unbounded above", []float64{-1}, []bound{{2, inf}}, nil, nil, nil,
			Unbounded, nil},
		{"bounds contradict a row", []float64{1}, []bound{{2, 3}},
			[]map[int]float64{{0: 1}}, []Rel{LE}, []float64{1},
			Infeasible, nil},
	}
	for _, tc := range cases {
		p := NewProblem(len(tc.obj))
		for j, c := range tc.obj {
			p.SetObj(j, c)
			p.SetBounds(j, tc.bounds[j].lo, tc.bounds[j].hi)
		}
		for i, row := range tc.rows {
			p.AddRow(row, tc.rels[i], tc.rhs[i])
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
	p.AddRow(row, LE, budget)
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
// row standard form negated resumes (the refresh reads the slack column
// with the negation applied); an edit on an EQ row, which has no slack
// column, falls back to a cold solve. Both answers match cold.
func TestSolveFromStateRHSEditsOnNegatedAndEqualityRows(t *testing.T) {
	build := func(lower, sum float64) *Problem {
		p := NewProblem(2)
		p.SetObj(0, 1)
		p.SetObj(1, 2)
		p.AddRow(map[int]float64{0: -1}, LE, -lower)          // x0 ≥ lower, negated
		p.AddRow(map[int]float64{0: 1, 1: 1}, EQ, sum)        // x0 + x1 = sum
		p.AddRow(map[int]float64{0: 1, 1: -1}, LE, sum-lower) // keeps x1 ≥ 0 slack
		return p
	}
	donor := solve(t, build(2, 5))
	for _, tc := range []struct {
		lower, sum float64
		warmed     bool
	}{
		{3, 5, true},  // negated row edited
		{2, 6, false}, // EQ row edited
	} {
		p := build(tc.lower, tc.sum)
		cold := solve(t, p.Clone())
		warm, err := p.SolveFromState(context.Background(), donor.State)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status || !approx(warm.Obj, cold.Obj) {
			t.Errorf("lower %v sum %v: warm %v obj %v, cold %v obj %v",
				tc.lower, tc.sum, warm.Status, warm.Obj, cold.Status, cold.Obj)
		}
		if warm.Warmed != tc.warmed {
			t.Errorf("lower %v sum %v: warmed = %v, want %v", tc.lower, tc.sum, warm.Warmed, tc.warmed)
		}
		certify(t, p, warm)
	}
}
