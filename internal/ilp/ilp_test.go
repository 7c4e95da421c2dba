package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// knapsack builds max Σv·x s.t. Σw·x ≤ cap as a minimization of -v. The
// binaries carry no bounds of their own: Solve clamps them to [0, 1].
// Every Optimal LP the returned solver solves is certified.
func knapsack(t *testing.T, values, weights []float64, capacity float64) *Solver {
	n := len(values)
	p := lp.NewProblem(n)
	w := make(map[int]float64, n)
	bins := make([]int, n)
	for j := 0; j < n; j++ {
		p.SetObj(j, -values[j])
		w[j] = weights[j]
		bins[j] = j
	}
	p.AddRow(w, capacity)
	return certified(t, &Solver{Base: p, Binaries: bins})
}

// certified makes every Optimal LP relaxation s solves (branch and bound
// and exhaustive enumeration alike) carry a valid optimality certificate
// for its node's problem by the public Certify, which prices the end
// tableau afresh: a warm answer ResumeBelow certified on its closing
// price must pass it too. It also holds every node cut off at the incumbent
// to a cold solve: its bound must reach the cutoff, and the node must be
// infeasible or have an optimum no lower than that bound.
func certified(t *testing.T, s *Solver) *Solver {
	s.onLP = func(p *lp.Problem, cutoff float64, sol *lp.Solution) {
		switch sol.Status {
		case lp.Optimal:
			if err := p.Certify(sol); err != nil {
				t.Errorf("LP relaxation: %v", err)
			}
		case lp.Cutoff:
			if !(sol.Obj >= cutoff) {
				t.Errorf("cut off with bound %v below the cutoff %v", sol.Obj, cutoff)
			}
			cold, err := p.Clone().Solve(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			switch cold.Status {
			case lp.Infeasible:
			case lp.Optimal:
				if cold.Obj < sol.Obj-1e-7*(1+math.Abs(sol.Obj)) {
					t.Errorf("cut off with bound %v, but the cold optimum is %v", sol.Obj, cold.Obj)
				}
			default:
				t.Errorf("cut off with bound %v, but the cold solve is %v", sol.Obj, cold.Status)
			}
		}
	}
	return s
}

// cutoffs counts the nodes of s that are cut off at the incumbent, on
// top of whatever s's LP hook already checks.
func cutoffs(s *Solver) *int {
	n, hook := new(int), s.onLP
	s.onLP = func(p *lp.Problem, cutoff float64, sol *lp.Solution) {
		if sol.Status == lp.Cutoff {
			*n++
		}
		if hook != nil {
			hook(p, cutoff, sol)
		}
	}
	return n
}

// penaltiesHold holds the Driebeek penalties of every Optimal node s
// solves to cold solves of the node's two children on each fractional
// binary, on top of whatever s's LP hook already checks: a child's
// optimum must reach the node's objective plus the child's penalty, and
// a child whose penalty is +Inf must be infeasible. It counts the
// children checked.
func penaltiesHold(t *testing.T, s *Solver) *int {
	n, hook := new(int), s.onLP
	s.onLP = func(p *lp.Problem, cutoff float64, sol *lp.Solution) {
		if hook != nil {
			hook(p, cutoff, sol)
		}
		if sol.Status != lp.Optimal {
			return
		}
		for _, j := range s.Binaries {
			x := sol.X[j]
			if math.Abs(x-math.Round(x)) <= intTol {
				continue
			}
			down, up := sol.State.Penalties(j)
			lo, hi := p.Bounds(j)
			for _, child := range []struct {
				lo, hi, penalty float64
			}{{lo, math.Floor(x), down}, {math.Ceil(x), hi, up}} {
				c := p.Clone()
				c.SetBounds(j, child.lo, child.hi)
				cold, err := c.Solve(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				*n++
				bound := sol.Obj + child.penalty
				switch {
				case cold.Status == lp.Infeasible:
				case cold.Status != lp.Optimal:
					t.Errorf("column %d bounded to [%v, %v]: the cold solve is %v", j, child.lo, child.hi, cold.Status)
				case math.IsInf(child.penalty, 1):
					t.Errorf("column %d bounded to [%v, %v]: penalty +Inf, but the cold optimum is %v", j, child.lo, child.hi, cold.Obj)
				case cold.Obj < bound-1e-7*(1+math.Abs(bound)):
					t.Errorf("column %d bounded to [%v, %v]: node %v plus penalty %v is %v, but the cold optimum is %v",
						j, child.lo, child.hi, sol.Obj, child.penalty, bound, cold.Obj)
				}
			}
		}
	}
	return n
}

func TestKnapsackSmall(t *testing.T) {
	// Classic: values 60,100,120 weights 10,20,30 cap 50 → take 2+3 = 220.
	s := knapsack(t, []float64{60, 100, 120}, []float64{10, 20, 30}, 50)
	r, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	if got := -r.Obj; math.Abs(got-220) > 1e-6 {
		t.Errorf("value = %v, want 220 (x=%v)", got, r.X)
	}
	if math.Round(r.X[0]) != 0 || math.Round(r.X[1]) != 1 || math.Round(r.X[2]) != 1 {
		t.Errorf("x = %v, want [0 1 1]", r.X)
	}
}

// addLE adds Σ coef·x ≤ rhs for a rhs of either sign, in lp's ≤ class
// with right-hand sides ≥ 0: a negative rhs goes onto column one, which
// the problem fixes at [1, 1], as the coefficient −rhs. A ≥ row is added
// as its negation.
func addLE(p *lp.Problem, coef []float64, rhs float64, one int) {
	row := append([]float64(nil), coef...)
	if rhs < 0 {
		row[one] -= rhs
		rhs = 0
	}
	p.AddDenseRow(row, rhs)
}

// negated returns −coef.
func negated(coef []float64) []float64 {
	neg := make([]float64, len(coef))
	for j, c := range coef {
		neg[j] = -c
	}
	return neg
}

func TestInfeasibleILP(t *testing.T) {
	p := lp.NewProblem(3)
	p.SetBounds(2, 1, 1)                         // column one
	addLE(p, negated([]float64{1, 1, 0}), -3, 2) // x0 + x1 ≥ 3: impossible for two binaries
	p.AddRow(map[int]float64{0: 1}, 1)
	p.AddRow(map[int]float64{1: 1}, 1)
	s := certified(t, &Solver{Base: p, Binaries: []int{0, 1}})
	r, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", r.Status)
	}
}

// TestFixAtOneStartsFromLowerBounds: the exhaustive enumeration fixes
// x0 at 1 and x1, x2 at 0, which makes row x0 − x1 − x2 − y ≤ 0 start at
// −1, outside the slack basis, so the cold solve reaches a feasible basis
// from lower bounds of 0 through the dual simplex (y, continuous, rises
// to 1). Every relaxation it solves must pass Certify, and branch and
// bound must agree with the enumeration.
func TestFixAtOneStartsFromLowerBounds(t *testing.T) {
	p := lp.NewProblem(4)
	for j, c := range []float64{-5, 2, 3, 4} {
		p.SetObj(j, c)
	}
	p.SetBounds(3, 0, 1)                                    // y
	p.AddRow(map[int]float64{0: 1, 1: -1, 2: -1, 3: -1}, 0) // x0 needs x1, x2 or y
	p.AddRow(map[int]float64{1: 1, 2: 1}, 1)
	s := certified(t, &Solver{Base: p, Binaries: []int{0, 1, 2}})
	shifted := 0
	hook := s.onLP
	s.onLP = func(p *lp.Problem, cutoff float64, sol *lp.Solution) {
		lo0, _ := p.Bounds(0)
		lo1, _ := p.Bounds(1)
		lo2, _ := p.Bounds(2)
		if lo0-lo1-lo2 > 0 && sol.Status == lp.Optimal {
			shifted++
			if !approx(sol.Obj, -1) {
				t.Errorf("x0 = 1, x1 = x2 = 0: obj %v at %v, want −1 with y = 1", sol.Obj, sol.X)
			}
		}
		hook(p, cutoff, sol)
	}
	want, err := s.SolveExhaustive(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if shifted == 0 {
		t.Fatal("no relaxation started outside the slack basis; the path goes untested")
	}
	if want.Status != Optimal || want.Obj != -3 || math.Round(want.X[0]) != 1 || math.Round(want.X[1]) != 1 {
		t.Fatalf("exhaustive: %v obj %v at %v, want optimal −3 at x0 = x1 = 1", want.Status, want.Obj, want.X)
	}
	got := mustSolve(t, s)
	if got.Status != Optimal || got.Obj != want.Obj {
		t.Errorf("branch and bound: %v obj %v, exhaustive %v obj %v", got.Status, got.Obj, want.Status, want.Obj)
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestBinaryBoundsRoundInward: a binary's own column bounds are rounded
// inward to integers, so [0, 0.5] pins it to 0 and [0.2, 0.8] admits no
// value at all.
func TestBinaryBoundsRoundInward(t *testing.T) {
	for _, tc := range []struct {
		lo, hi float64
		want   Status
	}{{0, 0.5, Optimal}, {0.2, 0.8, Infeasible}} {
		p := lp.NewProblem(1)
		p.SetObj(0, -1)
		p.SetBounds(0, tc.lo, tc.hi)
		r := mustSolve(t, certified(t, &Solver{Base: p, Binaries: []int{0}}))
		if r.Status != tc.want || (r.Status == Optimal && r.X[0] != 0) {
			t.Errorf("bounds [%v,%v]: %v x=%v, want %v at x=0", tc.lo, tc.hi, r.Status, r.X, tc.want)
		}
	}
}

func TestIntegralRootShortCircuits(t *testing.T) {
	// min -x0 s.t. x0 <= 1: LP root is already integral.
	p := lp.NewProblem(1)
	p.SetObj(0, -1)
	p.AddRow(map[int]float64{0: 1}, 1)
	s := certified(t, &Solver{Base: p, Binaries: []int{0}})
	r, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || r.Nodes != 1 {
		t.Errorf("status=%v nodes=%d, want optimal in 1 node", r.Status, r.Nodes)
	}
}

func TestUnboundedILP(t *testing.T) {
	// Continuous variable x1 unbounded below drives the relaxation down.
	p := lp.NewProblem(2)
	p.SetObj(1, -1)
	p.AddRow(map[int]float64{0: 1}, 1)
	s := certified(t, &Solver{Base: p, Binaries: []int{0}})
	r, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", r.Status)
	}
}

// TestBranchAndBoundMatchesExhaustive is the core property test: on random
// knapsack-with-side-constraint instances, B&B must find exactly the
// exhaustive optimum.
func TestBranchAndBoundMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(9)
		values := make([]float64, n)
		weights := make([]float64, n)
		for j := 0; j < n; j++ {
			values[j] = float64(1 + rng.Intn(40))
			weights[j] = float64(1 + rng.Intn(15))
		}
		capacity := float64(5 + rng.Intn(40))
		s := knapsack(t, values, weights, capacity)
		// Occasionally add a coupling row like the model's Eq. 9.
		if rng.Intn(2) == 0 {
			row := make(map[int]float64, n)
			for j := 0; j < n; j++ {
				row[j] = float64(rng.Intn(5))
			}
			s.Base.AddRow(row, float64(3+rng.Intn(12)))
		}
		got, err := s.Solve(context.Background())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := s.SolveExhaustive(context.Background())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Status != want.Status {
			t.Fatalf("trial %d: status %v vs exhaustive %v", trial, got.Status, want.Status)
		}
		if want.Status == Optimal && math.Abs(got.Obj-want.Obj) > 1e-6 {
			t.Fatalf("trial %d: B&B obj %v != exhaustive %v", trial, got.Obj, want.Obj)
		}
	}
}

// TestBranchAndBoundMatchesExhaustiveMixed: random 0–1 programs over up
// to 10 binaries with native [0,1] column bounds, plus bounded continuous
// columns and mixed ≤/≥ rows with right-hand sides of either sign
// (addLE). Branch and bound must match exhaustive enumeration, every
// Optimal relaxation either solves is certified, every node cut off at
// the incumbent is checked against a cold solve, and every penalty of a
// fractional binary against its child's (penaltiesHold).
func TestBranchAndBoundMatchesExhaustiveMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	optimal, cut, children := 0, 0, 0
	for trial := 0; trial < 150; trial++ {
		k := 1 + rng.Intn(10)
		n := k + rng.Intn(3)
		p := lp.NewProblem(n + 1)
		p.SetBounds(n, 1, 1) // column one
		bins := make([]int, k)
		for j := 0; j < n; j++ {
			p.SetObj(j, float64(rng.Intn(21)-10))
			if j < k {
				bins[j] = j
				p.SetBounds(j, 0, 1)
			} else {
				p.SetBounds(j, 0, float64(1+rng.Intn(4)))
			}
		}
		for i := 1 + rng.Intn(4); i > 0; i-- {
			row := make([]float64, n+1)
			for j := range row[:n] {
				row[j] = float64(rng.Intn(9) - 4)
			}
			ge, rhs := rng.Intn(2) == 1, float64(rng.Intn(13)-4)
			if ge {
				row, rhs = negated(row), -rhs
			}
			addLE(p, row, rhs, n)
		}
		s := certified(t, &Solver{Base: p, Binaries: bins})
		cutoffs := cutoffs(s)
		checked := penaltiesHold(t, s)
		got, err := s.Solve(context.Background())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cut += *cutoffs
		children += *checked
		want, err := s.SolveExhaustive(context.Background())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Status != want.Status {
			t.Fatalf("trial %d: status %v vs exhaustive %v", trial, got.Status, want.Status)
		}
		if want.Status == Optimal {
			optimal++
			if math.Abs(got.Obj-want.Obj) > 1e-6 {
				t.Fatalf("trial %d: B&B obj %v != exhaustive %v", trial, got.Obj, want.Obj)
			}
		}
	}
	if optimal < 50 {
		t.Errorf("only %d of 150 trials were feasible; the generator tests too little", optimal)
	}
	if cut == 0 {
		t.Error("no node was cut off at the incumbent; the cutoff goes untested")
	}
	if children == 0 {
		t.Error("no fractional node was met; the penalties go untested")
	}
}

func TestRounderSeedsIncumbent(t *testing.T) {
	// A fractional-root knapsack where rounding down is always feasible.
	s := knapsack(t, []float64{10, 9, 8}, []float64{5, 5, 5}, 7)
	s.Rounder = func(x []float64) ([]float64, bool) {
		rx := make([]float64, len(x))
		for j, v := range x {
			if v > 0.999 {
				rx[j] = 1
			}
		}
		return rx, true
	}
	r, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || math.Abs(-r.Obj-10) > 1e-6 {
		t.Errorf("status=%v value=%v, want optimal 10", r.Status, -r.Obj)
	}
}

func TestNodeLimitReturnsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 14
	values := make([]float64, n)
	weights := make([]float64, n)
	for j := 0; j < n; j++ {
		values[j] = float64(10 + rng.Intn(90))
		weights[j] = float64(5 + rng.Intn(30))
	}
	s := knapsack(t, values, weights, 60)
	s.MaxNodes = 4
	s.Rounder = func(x []float64) ([]float64, bool) {
		rx := make([]float64, len(x))
		w := 0.0
		for j, v := range x {
			if v > 0.999 && w+weights[j] <= 60 {
				rx[j] = 1
				w += weights[j]
			}
		}
		return rx, true
	}
	r, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Feasible && r.Status != Optimal {
		t.Fatalf("status = %v, want feasible or optimal under node limit", r.Status)
	}
	if r.X == nil {
		t.Fatal("no incumbent returned")
	}
}

func TestExhaustiveRefusesLargeK(t *testing.T) {
	p := lp.NewProblem(30)
	bins := make([]int, 30)
	for j := range bins {
		bins[j] = j
		p.AddRow(map[int]float64{j: 1}, 1)
	}
	s := &Solver{Base: p, Binaries: bins}
	if _, err := s.SolveExhaustive(context.Background()); err == nil {
		t.Fatal("expected refusal for k=30")
	}
}

func TestStatusStrings(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" {
		t.Error("status strings wrong")
	}
}
