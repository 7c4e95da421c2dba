package lp

import (
	"context"
	"errors"
	"math"
	"math/rand"
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
	p.AddRow(map[int]float64{0: 1, 1: 1}, LE, 4)
	p.AddRow(map[int]float64{0: 1}, LE, 2)
	p.AddRow(map[int]float64{1: 1}, LE, 3)
	s := solve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(s.Obj, -7) || !approx(s.X[0], 1) || !approx(s.X[1], 3) {
		t.Errorf("got obj=%v x=%v, want -7 at (1,3)", s.Obj, s.X)
	}
}

func TestGEAndEQRows(t *testing.T) {
	// min x + y s.t. x + y >= 2, x = 0.5 → x=0.5, y=1.5, obj 2.
	p := NewProblem(2)
	p.SetObj(0, 1)
	p.SetObj(1, 1)
	p.AddRow(map[int]float64{0: 1, 1: 1}, GE, 2)
	p.AddRow(map[int]float64{0: 1}, EQ, 0.5)
	s := solve(t, p)
	if s.Status != Optimal || !approx(s.Obj, 2) || !approx(s.X[0], 0.5) {
		t.Errorf("got %v obj=%v x=%v", s.Status, s.Obj, s.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.AddRow(map[int]float64{0: 1}, GE, 2)
	p.AddRow(map[int]float64{0: 1}, LE, 1)
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
}

func TestNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -3 (i.e. x >= 3) → x=3.
	p := NewProblem(1)
	p.SetObj(0, 1)
	p.AddRow(map[int]float64{0: -1}, LE, -3)
	s := solve(t, p)
	if s.Status != Optimal || !approx(s.X[0], 3) {
		t.Errorf("got %v x=%v, want x=3", s.Status, s.X)
	}
	// min x s.t. -x >= -3 (x <= 3), x >= 1 → x=1.
	q := NewProblem(1)
	q.SetObj(0, 1)
	q.AddRow(map[int]float64{0: -1}, GE, -3)
	q.AddRow(map[int]float64{0: 1}, GE, 1)
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
	p.AddRow(map[int]float64{0: 2, 1: 3, 2: 1}, LE, 5)
	for j := 0; j < 3; j++ {
		p.AddRow(map[int]float64{j: 1}, LE, 1)
	}
	s := solve(t, p)
	want := -5.0 - 3.0 - 8.0/3.0
	if s.Status != Optimal || !approx(s.Obj, want) {
		t.Errorf("obj = %v, want %v (x=%v)", s.Obj, want, s.X)
	}
}

func TestEqualityOnly(t *testing.T) {
	// min 2x+3y s.t. x+y=10, x-y=2 → x=6,y=4, obj 24.
	p := NewProblem(2)
	p.SetObj(0, 2)
	p.SetObj(1, 3)
	p.AddRow(map[int]float64{0: 1, 1: 1}, EQ, 10)
	p.AddRow(map[int]float64{0: 1, 1: -1}, EQ, 2)
	s := solve(t, p)
	if s.Status != Optimal || !approx(s.X[0], 6) || !approx(s.X[1], 4) {
		t.Errorf("got %v x=%v", s.Status, s.X)
	}
}

func TestRedundantRows(t *testing.T) {
	// Duplicate equality rows leave a redundant artificial; solver must cope.
	p := NewProblem(2)
	p.SetObj(0, 1)
	p.SetObj(1, 1)
	p.AddRow(map[int]float64{0: 1, 1: 1}, EQ, 3)
	p.AddRow(map[int]float64{0: 1, 1: 1}, EQ, 3)
	p.AddRow(map[int]float64{0: 1}, GE, 1)
	s := solve(t, p)
	if s.Status != Optimal || !approx(s.Obj, 3) {
		t.Errorf("got %v obj=%v", s.Status, s.Obj)
	}
}

func TestDenseRow(t *testing.T) {
	p := NewProblem(2)
	p.SetObj(0, -1)
	p.AddDenseRow([]float64{1, 1}, LE, 1)
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
			p.AddRow(map[int]float64{5: 1}, LE, 1)
			return p
		}()},
		{"dense row length mismatch", func() *Problem {
			p := NewProblem(2)
			p.AddDenseRow([]float64{1}, LE, 1)
			return p
		}()},
		{"objective of out-of-range variable", build(2, func(p *Problem) { p.SetObj(2, 1) })},
		{"objective on negative variable count", build(-1, func(p *Problem) { p.SetObj(0, 1) })},
		{"rhs of out-of-range row", build(1, func(p *Problem) {
			p.AddRow(map[int]float64{0: 1}, LE, 1)
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
func bruteForceBinary(obj []float64, rows [][]float64, rels []Rel, rhs []float64) (float64, bool) {
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
			case LE:
				ok = ok && v <= rhs[r]+1e-9
			case GE:
				ok = ok && v >= rhs[r]-1e-9
			case EQ:
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
		rels := make([]Rel, m)
		rhs := make([]float64, m)
		for r := 0; r < m; r++ {
			rows[r] = make([]float64, n)
			for j := 0; j < n; j++ {
				rows[r][j] = float64(rng.Intn(7) - 3)
			}
			rels[r] = Rel(rng.Intn(2)) // LE or GE; EQ rarely binary-feasible
			rhs[r] = float64(rng.Intn(11) - 5)
		}
		intBest, feasible := bruteForceBinary(obj, rows, rels, rhs)
		if !feasible {
			continue
		}
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.SetObj(j, obj[j])
			p.AddRow(map[int]float64{j: 1}, LE, 1)
		}
		for r := 0; r < m; r++ {
			p.AddDenseRow(rows[r], rels[r], rhs[r])
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
			case LE:
				if v > rhs[r]+1e-6 {
					t.Fatalf("trial %d: row %d violated: %v > %v", trial, r, v, rhs[r])
				}
			case GE:
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
	p.AddRow(map[int]float64{0: 1, 1: 1, 2: 1}, LE, 10)
	p.MaxIter = 1
	s := solve(t, p)
	if s.Status != IterLimit && s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
}
