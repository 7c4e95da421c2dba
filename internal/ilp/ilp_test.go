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
	p.AddRow(w, lp.LE, capacity)
	return certified(t, &Solver{Base: p, Binaries: bins})
}

// certified makes every Optimal LP relaxation s solves (branch and bound
// and exhaustive enumeration alike) carry a valid optimality certificate
// for its node's problem, and holds every node cut off at the incumbent
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

func TestInfeasibleILP(t *testing.T) {
	p := lp.NewProblem(2)
	p.AddRow(map[int]float64{0: 1, 1: 1}, lp.GE, 3) // impossible for two binaries
	p.AddRow(map[int]float64{0: 1}, lp.LE, 1)
	p.AddRow(map[int]float64{1: 1}, lp.LE, 1)
	s := certified(t, &Solver{Base: p, Binaries: []int{0, 1}})
	r, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", r.Status)
	}
}

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
	p.AddRow(map[int]float64{0: 1}, lp.LE, 1)
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
	p.AddRow(map[int]float64{0: 1}, lp.LE, 1)
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
			s.Base.AddRow(row, lp.LE, float64(3+rng.Intn(12)))
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
// columns and mixed LE/GE rows. Branch and bound must match exhaustive
// enumeration, every Optimal relaxation either solves is certified, and
// every node cut off at the incumbent is checked against a cold solve.
func TestBranchAndBoundMatchesExhaustiveMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	optimal, cut := 0, 0
	for trial := 0; trial < 150; trial++ {
		k := 1 + rng.Intn(10)
		n := k + rng.Intn(3)
		p := lp.NewProblem(n)
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
			row := make([]float64, n)
			for j := range row {
				row[j] = float64(rng.Intn(9) - 4)
			}
			p.AddDenseRow(row, lp.Rel(rng.Intn(2)), float64(rng.Intn(13)-4))
		}
		s := certified(t, &Solver{Base: p, Binaries: bins})
		cutoffs := cutoffs(s)
		got, err := s.Solve(context.Background())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cut += *cutoffs
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
		p.AddRow(map[int]float64{j: 1}, lp.LE, 1)
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
