package lp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// solve solves p cold and certifies an Optimal answer.
func solve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := p.Solve(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	certify(t, p, s)
	return s
}

// certify fails the test unless an Optimal solution carries a valid
// optimality certificate for p.
func certify(t *testing.T, p *Problem, s *Solution) {
	t.Helper()
	if s.Status != Optimal {
		return
	}
	if err := p.Certify(s); err != nil {
		t.Fatalf("certificate: %v", err)
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSimpleMin(t *testing.T) {
	// min -x - 2y s.t. x+y <= 4, x <= 2, y <= 3  → x=1? optimum x=1,y=3? obj
	// at (1,3) = -7; at (2,2) = -6; at (0,3) = -6. Optimal: x=1,y=3 → -7.
	p := NewProblem(2)
	p.SetObj(0, -1)
	p.SetObj(1, -2)
	p.AddRow(map[int]float64{0: 1, 1: 1}, 4)
	p.AddRow(map[int]float64{0: 1}, 2)
	p.AddRow(map[int]float64{1: 1}, 3)
	s := solve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(s.Obj, -7) || !approx(s.X[0], 1) || !approx(s.X[1], 3) {
		t.Errorf("got obj=%v x=%v, want -7 at (1,3)", s.Obj, s.X)
	}
}

// The helpers below write rows of any relation and right-hand-side sign
// into the ≤ class with right-hand sides ≥ 0. A constant a row needs goes
// onto column one, which the problem fixes at [1, 1]: aᵀx ≤ b with b < 0
// becomes aᵀx − b·x_one ≤ 0. A solve whose rows need one starts outside
// the slack basis and reaches a feasible one through its lower bounds.

// rel is a row relation, as the tests' generators draw them.
type rel int

const (
	le rel = iota // aᵀx ≤ b
	ge            // aᵀx ≥ b
	eq            // aᵀx = b
)

// withOne returns a problem of n columns plus column one = n fixed at 1.
func withOne(n int) (p *Problem, one int) {
	p = NewProblem(n + 1)
	p.SetBounds(n, 1, 1)
	return p, n
}

// addLE adds Σ coef·x ≤ rhs for a rhs of either sign.
func addLE(p *Problem, coef []float64, rhs float64, one int) {
	row := append([]float64(nil), coef...)
	if rhs < 0 {
		row[one] -= rhs
		rhs = 0
	}
	p.AddDenseRow(row, rhs)
}

// addRel adds Σ coef·x r rhs: a ≥ row as its negation, an = row as both.
func addRel(p *Problem, coef []float64, r rel, rhs float64, one int) {
	neg := make([]float64, len(coef))
	for j, c := range coef {
		neg[j] = -c
	}
	switch r {
	case le:
		addLE(p, coef, rhs, one)
	case ge:
		addLE(p, neg, -rhs, one)
	case eq:
		addLE(p, coef, rhs, one)
		addLE(p, neg, -rhs, one)
	}
}

// dense spreads a sparse row over n columns.
func dense(n int, coeffs map[int]float64) []float64 {
	row := make([]float64, n)
	for j, c := range coeffs {
		row[j] = c
	}
	return row
}

func TestGEAndEQRows(t *testing.T) {
	// min x + y s.t. x + y >= 2, x = 0.5 → x=0.5, y=1.5, obj 2.
	p, one := withOne(2)
	p.SetObj(0, 1)
	p.SetObj(1, 1)
	addRel(p, dense(3, map[int]float64{0: 1, 1: 1}), ge, 2, one)
	addRel(p, dense(3, map[int]float64{0: 1}), eq, 0.5, one)
	s := solve(t, p)
	if s.Status != Optimal || !approx(s.Obj, 2) || !approx(s.X[0], 0.5) {
		t.Errorf("got %v obj=%v x=%v", s.Status, s.Obj, s.X)
	}
}

func TestInfeasible(t *testing.T) {
	p, one := withOne(1)
	addRel(p, []float64{1, 0}, ge, 2, one)
	addRel(p, []float64{1, 0}, le, 1, one)
	s := solve(t, p)
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(1)
	p.SetObj(0, -1)
	s := solve(t, p)
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
	// Unbounded, too, where a lower bound starts the solve outside the
	// slack basis: x ≥ 1 + y, y ≥ 1, min −x.
	q := NewProblem(2)
	q.SetObj(0, -1)
	q.SetBounds(1, 1, math.Inf(1))
	q.AddRow(map[int]float64{0: -1, 1: 1}, 0)
	if s := solve(t, q); s.Status != Unbounded {
		t.Fatalf("from lower bounds: status = %v, want unbounded", s.Status)
	}
}

// TestNegativeRHS: a negative right-hand side is refused as a sticky
// ErrBadProblem, from AddRow, AddDenseRow and SetRHS; the rows it wrote
// take a lower bound or the fixed column instead.
func TestNegativeRHS(t *testing.T) {
	for name, build := range map[string]func(p *Problem){
		"AddRow":      func(p *Problem) { p.AddRow(map[int]float64{0: -1}, -3) },
		"AddDenseRow": func(p *Problem) { p.AddDenseRow([]float64{-1}, -3) },
		"SetRHS": func(p *Problem) {
			p.AddRow(map[int]float64{0: -1}, 3)
			p.SetRHS(0, -3)
		},
	} {
		p := NewProblem(1)
		build(p)
		if _, err := p.Solve(context.Background()); !errors.Is(err, ErrBadProblem) {
			t.Errorf("%s: Solve error = %v, want ErrBadProblem", name, err)
		}
	}
	// min x s.t. -x <= -3 (i.e. x >= 3) → x=3.
	p, one := withOne(1)
	p.SetObj(0, 1)
	addLE(p, []float64{-1, 0}, -3, one)
	s := solve(t, p)
	if s.Status != Optimal || !approx(s.X[0], 3) {
		t.Errorf("got %v x=%v, want x=3", s.Status, s.X)
	}
	// min x s.t. -x >= -3 (x <= 3), x >= 1 → x=1.
	q, one := withOne(1)
	q.SetObj(0, 1)
	addRel(q, []float64{-1, 0}, ge, -3, one)
	addRel(q, []float64{1, 0}, ge, 1, one)
	s = solve(t, q)
	if s.Status != Optimal || !approx(s.X[0], 1) {
		t.Errorf("got %v x=%v, want x=1", s.Status, s.X)
	}
}

func TestDegenerateKnapsackRelaxation(t *testing.T) {
	// A knapsack-style relaxation like the placement model's Eq. 7:
	// min -5a -4b -3c s.t. 2a+3b+c <= 5, a,b,c <= 1.
	// LP optimum: a=1, b=2/3? value: -5 -4*(2/3) ... check: after a=1,c=1:
	// weight 3, b can take 2/3: obj -5 -3 -8/3 = -10.666...
	p := NewProblem(3)
	p.SetObj(0, -5)
	p.SetObj(1, -4)
	p.SetObj(2, -3)
	p.AddRow(map[int]float64{0: 2, 1: 3, 2: 1}, 5)
	for j := 0; j < 3; j++ {
		p.AddRow(map[int]float64{j: 1}, 1)
	}
	s := solve(t, p)
	want := -5.0 - 3.0 - 8.0/3.0
	if s.Status != Optimal || !approx(s.Obj, want) {
		t.Errorf("obj = %v, want %v (x=%v)", s.Obj, want, s.X)
	}
}

func TestEqualityOnly(t *testing.T) {
	// min 2x+3y s.t. x+y=10, x-y=2 → x=6,y=4, obj 24.
	p, one := withOne(2)
	p.SetObj(0, 2)
	p.SetObj(1, 3)
	addRel(p, []float64{1, 1, 0}, eq, 10, one)
	addRel(p, []float64{1, -1, 0}, eq, 2, one)
	s := solve(t, p)
	if s.Status != Optimal || !approx(s.X[0], 6) || !approx(s.X[1], 4) {
		t.Errorf("got %v x=%v", s.Status, s.X)
	}
}

func TestRedundantRows(t *testing.T) {
	// Duplicate equality rows leave a degenerate basis; solver must cope.
	p, one := withOne(2)
	p.SetObj(0, 1)
	p.SetObj(1, 1)
	addRel(p, []float64{1, 1, 0}, eq, 3, one)
	addRel(p, []float64{1, 1, 0}, eq, 3, one)
	addRel(p, []float64{1, 0, 0}, ge, 1, one)
	s := solve(t, p)
	if s.Status != Optimal || !approx(s.Obj, 3) {
		t.Errorf("got %v obj=%v", s.Status, s.Obj)
	}
}

func TestDenseRow(t *testing.T) {
	p := NewProblem(2)
	p.SetObj(0, -1)
	p.AddDenseRow([]float64{1, 1}, 1)
	s := solve(t, p)
	if !approx(s.X[0], 1) {
		t.Errorf("x = %v, want x0=1", s.X)
	}
}

func TestBadProblemSurfacedBySolve(t *testing.T) {
	build := func(n int, edit func(*Problem)) *Problem {
		p := NewProblem(n)
		edit(p)
		return p
	}
	cases := []struct {
		name string
		p    *Problem
	}{
		{"negative variable count", NewProblem(-1)},
		{"out-of-range variable", func() *Problem {
			p := NewProblem(1)
			p.AddRow(map[int]float64{5: 1}, 1)
			return p
		}()},
		{"dense row length mismatch", func() *Problem {
			p := NewProblem(2)
			p.AddDenseRow([]float64{1}, 1)
			return p
		}()},
		{"negative right-hand side", build(1, func(p *Problem) { p.AddRow(map[int]float64{0: 1}, -1) })},
		{"NaN right-hand side", build(1, func(p *Problem) { p.AddDenseRow([]float64{1}, math.NaN()) })},
		{"negative lower bound", build(1, func(p *Problem) { p.SetBounds(0, -1, 1) })},
		{"objective of out-of-range variable", build(2, func(p *Problem) { p.SetObj(2, 1) })},
		{"objective on negative variable count", build(-1, func(p *Problem) { p.SetObj(0, 1) })},
		{"rhs of out-of-range row", build(1, func(p *Problem) {
			p.AddRow(map[int]float64{0: 1}, 1)
			p.SetRHS(1, 2)
		})},
		{"bounds of out-of-range variable", build(1, func(p *Problem) { p.SetBounds(-1, 0, 1) })},
		{"bounds on negative variable count", build(-1, func(p *Problem) { p.SetBounds(0, 0, 1) })},
		{"empty bounds", build(1, func(p *Problem) { p.SetBounds(0, 2, 1) })},
		{"infinite lower bound", build(1, func(p *Problem) { p.SetBounds(0, math.Inf(-1), 1) })},
		{"NaN lower bound", build(1, func(p *Problem) { p.SetBounds(0, math.NaN(), 1) })},
		{"NaN upper bound", build(1, func(p *Problem) { p.SetBounds(0, 0, math.NaN()) })},
	}
	for _, tc := range cases {
		if _, err := tc.p.Solve(context.Background()); !errors.Is(err, ErrBadProblem) {
			t.Errorf("%s: Solve error = %v, want ErrBadProblem", tc.name, err)
		}
		// The error is part of the problem's state: a branch-and-bound
		// clone must refuse to solve too.
		if _, err := tc.p.Clone().Solve(context.Background()); !errors.Is(err, ErrBadProblem) {
			t.Errorf("%s: Clone().Solve error = %v, want ErrBadProblem", tc.name, err)
		}
	}
}

// bruteForceBinary finds the optimal 0/1 assignment of a problem whose
// variables are all additionally constrained to {0,1}; used as an oracle:
// the LP relaxation value must lower-bound it.
func bruteForceBinary(obj []float64, rows [][]float64, rels []rel, rhs []float64) (float64, bool) {
	n := len(obj)
	best := math.Inf(1)
	found := false
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		for r := range rows {
			v := 0.0
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					v += rows[r][j]
				}
			}
			switch rels[r] {
			case le:
				ok = ok && v <= rhs[r]+1e-9
			case ge:
				ok = ok && v >= rhs[r]-1e-9
			case eq:
				ok = ok && math.Abs(v-rhs[r]) < 1e-9
			}
		}
		if !ok {
			continue
		}
		v := 0.0
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				v += obj[j]
			}
		}
		if v < best {
			best = v
			found = true
		}
	}
	return best, found
}

// TestRelaxationLowerBounds: on random binary-feasible problems, the LP
// relaxation (with x ≤ 1 rows) is a valid lower bound on the binary
// optimum, and the LP never reports infeasible when a binary solution
// exists.
func TestRelaxationLowerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(5)
		m := 1 + rng.Intn(4)
		obj := make([]float64, n)
		for j := range obj {
			obj[j] = float64(rng.Intn(21) - 10)
		}
		rows := make([][]float64, m)
		rels := make([]rel, m)
		rhs := make([]float64, m)
		for r := 0; r < m; r++ {
			rows[r] = make([]float64, n)
			for j := 0; j < n; j++ {
				rows[r][j] = float64(rng.Intn(7) - 3)
			}
			rels[r] = rel(rng.Intn(2)) // le or ge; eq rarely binary-feasible
			rhs[r] = float64(rng.Intn(11) - 5)
		}
		intBest, feasible := bruteForceBinary(obj, rows, rels, rhs)
		if !feasible {
			continue
		}
		p, one := withOne(n)
		for j := 0; j < n; j++ {
			p.SetObj(j, obj[j])
			p.AddRow(map[int]float64{j: 1}, 1)
		}
		for r := 0; r < m; r++ {
			addRel(p, append(slices.Clone(rows[r]), 0), rels[r], rhs[r], one)
		}
		s, err := p.Solve(context.Background())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.Status != Optimal {
			t.Fatalf("trial %d: status %v with binary-feasible instance", trial, s.Status)
		}
		certify(t, p, s)
		if s.Obj > intBest+1e-6 {
			t.Fatalf("trial %d: LP obj %v exceeds binary optimum %v", trial, s.Obj, intBest)
		}
		// The solution must satisfy every row.
		for r := 0; r < m; r++ {
			v := 0.0
			for j := 0; j < n; j++ {
				v += rows[r][j] * s.X[j]
			}
			switch rels[r] {
			case le:
				if v > rhs[r]+1e-6 {
					t.Fatalf("trial %d: row %d violated: %v > %v", trial, r, v, rhs[r])
				}
			case ge:
				if v < rhs[r]-1e-6 {
					t.Fatalf("trial %d: row %d violated: %v < %v", trial, r, v, rhs[r])
				}
			}
		}
		for j := 0; j < n; j++ {
			if s.X[j] < -1e-6 || s.X[j] > 1+1e-6 {
				t.Fatalf("trial %d: x[%d]=%v out of [0,1]", trial, j, s.X[j])
			}
		}
	}
}

func TestIterLimit(t *testing.T) {
	p := NewProblem(3)
	p.SetObj(0, -1)
	p.AddRow(map[int]float64{0: 1, 1: 1, 2: 1}, 10)
	p.MaxIter = 1
	s := solve(t, p)
	if s.Status != IterLimit && s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
}

// TestDualRatioTestWalksLabels: the dual ratio test's ±eps tie rule
// depends on the order it visits its candidates, so it walks them in
// label order, as a tableau storing every column would, not in the
// order the dictionary stores them. Here labels 0, 1 and 2 are stored
// at positions 0, 2 and 1 and price at ratios 1.8, 1.2 and 0.6 (×1e-9)
// against the violated row. In label order 2 undercuts 0 by more than
// eps and wins; in storage order 1 would tie with 2 and take it on the
// lower label.
func TestDualRatioTestWalksLabels(t *testing.T) {
	tb := tableau{n: 3, total: 4}
	tb.cells, tb.nz = make([]float64, 4), make([]int, 0, 4)
	tb.rows(1)
	copy(tb.t[0], []float64{-1, -1, -1, -1}) // three coefficients, then the basic value
	tb.lab = make([]int, 8)
	tb.views()
	copy(tb.lab, []int{0, 2, 1, 3}) // nonb, then slack 3 basic in row 0
	copy(tb.pos, []int{0, 2, 1, 3})
	tb.up = []float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}
	tb.flip = make([]bool, 4)
	reduced := []float64{1.8e-9, 1.2e-9, 0.6e-9, 0}
	iters := 0
	st, _ := dualSimplex(&tb, make([]float64, 4), reduced, nil, false, 10, &iters, nil)
	if st != Optimal || tb.basis[0] != 2 {
		t.Errorf("dual simplex %v with label %d entering, want optimal with label 2", st, tb.basis[0])
	}
}

// TestEnteringRulesBreakTiesByLabel: Dantzig's rule takes the lowest
// label among exactly tied most negative reduced costs, and Bland's rule
// the lowest label, whatever order the dictionary stores the columns in.
// Labels 0 and 1 cost −1 each and are stored at positions 1 and 0; the
// first pivot must enter label 0 under both rules (Bland's from the
// start, with a budget of one pivot).
func TestEnteringRulesBreakTiesByLabel(t *testing.T) {
	for _, maxIter := range []int{4, 1} {
		tb := tableau{n: 2, total: 3}
		tb.cells, tb.nz = make([]float64, 3), make([]int, 0, 3)
		tb.rows(1)
		copy(tb.t[0], []float64{1, 1, 5})
		tb.lab = make([]int, 6)
		tb.views()
		copy(tb.lab, []int{1, 0, 2})
		copy(tb.pos, []int{1, 0, 2})
		tb.up = []float64{math.Inf(1), math.Inf(1), math.Inf(1)}
		tb.flip = make([]bool, 3)
		iters := 0
		simplex(&tb, []float64{-1, -1, 0}, make([]float64, 3), maxIter, &iters, nil)
		if tb.basis[0] != 0 {
			t.Errorf("budget %d: label %d entered first, want label 0", maxIter, tb.basis[0])
		}
	}
}
