package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// sweepProblem builds min -Σ c_j x_j with x_j ≤ 1 box rows and one
// shared budget row Σ w_j x_j ≤ budget — the same all-LE shape as the
// placement model, where sweeps vary only the budget RHS.
func sweepProblem(n int, c, w []float64, budget float64) *Problem {
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetObj(j, -c[j])
		p.AddRow(map[int]float64{j: 1}, 1)
	}
	row := make(map[int]float64, n)
	for j := 0; j < n; j++ {
		row[j] = w[j]
	}
	p.AddRow(row, budget)
	return p
}

// TestSolveFromMatchesColdAfterRHSChange resumes every budget of the
// sweep from the one base state (no chaining), so each resume repairs
// the whole RHS jump from budget 20.
func TestSolveFromMatchesColdAfterRHSChange(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 12
	c := make([]float64, n)
	w := make([]float64, n)
	for j := range c {
		c[j] = 1 + rng.Float64()*9
		w[j] = 1 + rng.Float64()*4
	}

	base := sweepProblem(n, c, w, 20)
	sol := solve(t, base)
	if sol.Status != Optimal {
		t.Fatalf("base status = %v", sol.Status)
	}
	if sol.State == nil {
		t.Fatal("optimal solve returned nil State")
	}
	if sol.Iters <= 0 {
		t.Fatalf("Iters = %d, want > 0", sol.Iters)
	}

	// Both directions of the sweep: tighter and looser budgets.
	for _, budget := range []float64{4, 9, 14, 18, 22, 30} {
		next := sweepProblem(n, c, w, budget)
		cold := solve(t, next.Clone())
		warm, err := next.SolveFromState(context.Background(), sol.State)
		if err != nil {
			t.Fatalf("budget %v: SolveFromState: %v", budget, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("budget %v: warm status %v, cold %v", budget, warm.Status, cold.Status)
		}
		if !warm.Warmed {
			t.Errorf("budget %v: state resume fell back to a cold solve", budget)
		}
		certify(t, next, warm)
		if !approx(warm.Obj, cold.Obj) {
			t.Errorf("budget %v: warm obj %v, cold %v", budget, warm.Obj, cold.Obj)
		}
		for j := range warm.X {
			if !approx(warm.X[j], cold.X[j]) {
				t.Errorf("budget %v: x[%d] warm %v cold %v", budget, j, warm.X[j], cold.X[j])
			}
		}
	}
}

func TestSolveFromStickyError(t *testing.T) {
	p := NewProblem(1)
	p.AddRow(map[int]float64{2: 1}, 1) // out of range: poisons the problem
	if _, err := p.SolveFromState(context.Background(), nil); err == nil {
		t.Fatal("want sticky construction error from SolveFromState")
	}
}

// TestSolveFromStateUnchangedRHSNeedsNoDualPivots resumes a state on the
// very problem it came from: one dual scan finding nothing, one primal
// scan finding nothing. Far below a cold solve.
func TestSolveFromStateUnchangedRHSNeedsNoDualPivots(t *testing.T) {
	c := []float64{3, 2, 5}
	w := []float64{1, 1, 2}
	p := sweepProblem(3, c, w, 2.5)
	sol := solve(t, p)
	warm, err := p.Clone().SolveFromState(context.Background(), sol.State)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || !approx(warm.Obj, sol.Obj) || !warm.Warmed {
		t.Fatalf("warm = %v obj %v warmed=%v, want Optimal obj %v", warm.Status, warm.Obj, warm.Warmed, sol.Obj)
	}
	if warm.Iters >= sol.Iters {
		t.Errorf("warm Iters = %d, want < cold %d", warm.Iters, sol.Iters)
	}
	certify(t, p, warm)
}

func TestSolveFromStateMatchesColdAfterRHSChange(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const n = 12
	c := make([]float64, n)
	w := make([]float64, n)
	for j := range c {
		c[j] = 1 + rng.Float64()*9
		w[j] = 1 + rng.Float64()*4
	}

	sol := solve(t, sweepProblem(n, c, w, 20))
	if sol.State == nil {
		t.Fatal("optimal solve returned nil State")
	}

	// Both directions of the sweep, chaining: each solve resumes from the
	// previous one's state, exactly how branch and bound walks its tree.
	st := sol.State
	warmIters, coldIters := 0, 0
	for _, budget := range []float64{4, 9, 14, 18, 22, 30} {
		next := sweepProblem(n, c, w, budget)
		cold := solve(t, next.Clone())
		warm, err := next.SolveFromState(context.Background(), st)
		if err != nil {
			t.Fatalf("budget %v: SolveFromState: %v", budget, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("budget %v: warm status %v, cold %v", budget, warm.Status, cold.Status)
		}
		if !warm.Warmed {
			t.Errorf("budget %v: state resume fell back to a cold solve", budget)
		}
		certify(t, next, warm)
		if !approx(warm.Obj, cold.Obj) {
			t.Errorf("budget %v: warm obj %v, cold %v", budget, warm.Obj, cold.Obj)
		}
		for j := range warm.X {
			if !approx(warm.X[j], cold.X[j]) {
				t.Errorf("budget %v: x[%d] warm %v cold %v", budget, j, warm.X[j], cold.X[j])
			}
		}
		warmIters += warm.Iters
		coldIters += cold.Iters
		if warm.State == nil {
			t.Fatalf("budget %v: warm optimal solve donated no State", budget)
		}
		st = warm.State
	}
	// A single large RHS jump can cost a pivot more than a cold solve,
	// but over the chain the dual repairs must beat re-derivation.
	if warmIters >= coldIters {
		t.Errorf("chained warm Iters %d not below cold %d", warmIters, coldIters)
	}
}

func TestSolveFromStateSharedDonorServesTwoReceivers(t *testing.T) {
	// Both children of a branch-and-bound node consume the same parent
	// state; the first consumer must not corrupt it for the second.
	c := []float64{3, 2, 5}
	w := []float64{1, 1, 2}
	parent := solve(t, sweepProblem(3, c, w, 2.5))
	for _, budget := range []float64{1.5, 3.5} {
		cold := solve(t, sweepProblem(3, c, w, budget))
		p := sweepProblem(3, c, w, budget)
		warm, err := p.SolveFromState(context.Background(), parent.State)
		if err != nil {
			t.Fatal(err)
		}
		certify(t, p, warm)
		if warm.Status != Optimal || !approx(warm.Obj, cold.Obj) {
			t.Errorf("budget %v: got %v obj %v, want cold optimum %v",
				budget, warm.Status, warm.Obj, cold.Obj)
		}
	}
}

func TestSolveFromStateDetectsInfeasible(t *testing.T) {
	// x ≥ 2 on column one, x ≤ budget: budget 1 is infeasible.
	build := func(budget float64) *Problem {
		p, one := withOne(1)
		p.SetObj(0, 1)
		addRel(p, []float64{1, 0}, ge, 2, one)
		p.AddRow(map[int]float64{0: 1}, budget)
		return p
	}
	sol := solve(t, build(5))
	warm, err := build(1).SolveFromState(context.Background(), sol.State)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Infeasible {
		t.Fatalf("warm status = %v, want Infeasible", warm.Status)
	}
}

// TestSolveFromDetectsInfeasible writes the lower limit as a column
// bound (x ≥ 2), which starts the donor's solve outside the slack basis,
// and resumes from the feasible budget's state.
func TestSolveFromDetectsInfeasible(t *testing.T) {
	// x ≥ 2 plus x ≤ budget: budget 1 is infeasible.
	build := func(budget float64) *Problem {
		p := NewProblem(1)
		p.SetObj(0, 1)
		p.SetBounds(0, 2, math.Inf(1))
		p.AddRow(map[int]float64{0: 1}, budget)
		return p
	}
	sol := solve(t, build(5))
	if sol.Status != Optimal {
		t.Fatalf("base status = %v", sol.Status)
	}
	warm, err := build(1).SolveFromState(context.Background(), sol.State)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Infeasible {
		t.Fatalf("warm status = %v, want Infeasible", warm.Status)
	}
}

func TestSolveFromStateLayoutMismatchFallsBackToCold(t *testing.T) {
	c := []float64{3, 2, 5}
	w := []float64{1, 1, 2}
	donor := solve(t, sweepProblem(3, c, w, 2.5))
	cold := solve(t, sweepProblem(3, c, w, 2.5))

	foreign := func(build func() *Problem) {
		t.Helper()
		p := build()
		pCold := solve(t, p.Clone())
		warm, err := p.SolveFromState(context.Background(), donor.State)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != pCold.Status || (warm.Status == Optimal && !approx(warm.Obj, pCold.Obj)) {
			t.Errorf("foreign state: got %v obj %v, want %v obj %v",
				warm.Status, warm.Obj, pCold.Status, pCold.Obj)
		}
		if warm.Warmed {
			t.Error("foreign state was consumed instead of rejected")
		}
		certify(t, p, warm)
	}

	// Different dimensions.
	foreign(func() *Problem { return sweepProblem(2, c[:2], w[:2], 2.5) })
	// Same columns, one row more.
	foreign(func() *Problem {
		p := sweepProblem(3, c, w, 2.5)
		p.AddRow(map[int]float64{0: -1}, 0)
		return p
	})
	// Same rows, one column more.
	foreign(func() *Problem {
		p := NewProblem(4)
		for j := 0; j < 3; j++ {
			p.SetObj(j, -c[j])
			p.AddRow(map[int]float64{j: 1}, 1)
		}
		p.AddRow(map[int]float64{0: w[0], 1: w[1], 2: w[2], 3: 1}, 2.5)
		return p
	})
	// nil state.
	p := sweepProblem(3, c, w, 2.5)
	warm, err := p.SolveFromState(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	certify(t, p, warm)
	if warm.Status != Optimal || !approx(warm.Obj, cold.Obj) || warm.Warmed {
		t.Errorf("nil state: got %v obj %v warmed=%v, want cold optimum %v",
			warm.Status, warm.Obj, warm.Warmed, cold.Obj)
	}
}

// TestResumeTakesItsStateOver: Resume works on the state it is given and,
// on a warm Optimal answer, hands that same State back; it answers
// exactly as SolveFromState does from the same donor, which it leaves
// alone.
func TestResumeTakesItsStateOver(t *testing.T) {
	c := []float64{3, 2, 5, 4}
	w := []float64{1, 1, 2, 3}
	donor := solve(t, sweepProblem(4, c, w, 3.5)).State
	next := sweepProblem(4, c, w, 2)
	shared, err := next.SolveFromState(context.Background(), donor)
	if err != nil {
		t.Fatal(err)
	}
	own := donor.Copy(nil)
	taken, err := next.Resume(context.Background(), own)
	if err != nil {
		t.Fatal(err)
	}
	if !taken.Warmed || taken.State != own {
		t.Fatalf("warmed=%v, state handed back=%v; want the resumed state back", taken.Warmed, taken.State == own)
	}
	if taken.Obj != shared.Obj || taken.Iters != shared.Iters || shared.State == donor {
		t.Errorf("Resume obj %v in %d iters, SolveFromState obj %v in %d", taken.Obj, taken.Iters, shared.Obj, shared.Iters)
	}
	certify(t, next, taken)
}

// TestCopyIntoSpareAllocatesNothing: a copy built in a spare of the same
// layout reuses its storage outright.
func TestCopyIntoSpareAllocatesNothing(t *testing.T) {
	st := solve(t, sweepProblem(6, []float64{1, 2, 3, 4, 5, 6}, []float64{2, 2, 3, 3, 4, 4}, 7)).State
	spare := st.Copy(nil)
	if allocs := testing.AllocsPerRun(20, func() { spare = st.Copy(spare) }); allocs != 0 {
		t.Errorf("Copy into a fitting spare made %v allocations, want 0", allocs)
	}
	if st.Copy(nil) == st || (*State)(nil).Copy(nil) != nil {
		t.Error("Copy must return a new State, and nil for a nil one")
	}
}

// TestResumeFarkasChecksWarmInfeasible holds a warm Infeasible verdict to
// a Farkas certificate against the resumed problem's own rows. The donor
// is x ≤ 5 solved at x = 5 (and, once more, at x = 0 with its slack
// basic); raising x's lower bound to 6 leaves its row with no column that
// can repair it, so the dual simplex declares the problem infeasible. That holds for x ≤ 5 itself, but a foreign problem
// with the same layout, −x ≤ 5, is feasible at x = 6: its verdict must
// fail the certificate and fall back to the cold solve.
func TestResumeFarkasChecksWarmInfeasible(t *testing.T) {
	build := func(coef float64) *Problem {
		p := NewProblem(1)
		p.SetObj(0, -1)
		p.AddRow(map[int]float64{0: coef}, 5)
		return p
	}
	donor := solve(t, build(1))
	if donor.Status != Optimal || donor.X[0] != 5 {
		t.Fatalf("donor: %v at %v, want optimal at x = 5", donor.Status, donor.X)
	}

	same := build(1)
	same.SetBounds(0, 6, math.Inf(1))
	warm, err := same.SolveFromState(context.Background(), donor.State)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Infeasible || !warm.Warmed {
		t.Errorf("x ≤ 5, x ≥ 6: got %v (warmed %v), want the certified warm Infeasible", warm.Status, warm.Warmed)
	}

	// The same verdict where the violated row's basic column is its own
	// slack: min x leaves x at 0 and the slack basic, so its multiplier
	// is read off a basic column, as 1.
	low := build(1)
	low.SetObj(0, 1)
	lowDonor := solve(t, low.Clone())
	low.SetBounds(0, 6, math.Inf(1))
	warm, err = low.SolveFromState(context.Background(), lowDonor.State)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Infeasible || !warm.Warmed {
		t.Errorf("x ≤ 5, x ≥ 6 from x = 0: got %v (warmed %v), want the certified warm Infeasible", warm.Status, warm.Warmed)
	}

	foreign := build(-1)
	foreign.SetObj(0, 1)
	foreign.SetBounds(0, 6, math.Inf(1))
	got, err := foreign.SolveFromState(context.Background(), donor.State)
	if err != nil {
		t.Fatal(err)
	}
	certify(t, foreign, got)
	if got.Status != Optimal || got.Warmed || !approx(got.Obj, 6) {
		t.Errorf("−x ≤ 5, x ≥ 6 from a foreign state: got %v obj %v (warmed %v), want the cold optimum 6",
			got.Status, got.Obj, got.Warmed)
	}
}

// TestFarkasRejectsEQRows: an equality written as its two ≤ rows holds a
// feasible problem, and farkas certifies none of its rows infeasible,
// whatever the multipliers the end tableau's row gives.
func TestFarkasRejectsEQRows(t *testing.T) {
	p := NewProblem(2)
	p.SetObj(0, 1)
	p.AddRow(map[int]float64{0: 1, 1: -1}, 0)
	p.AddRow(map[int]float64{0: -1, 1: 1}, 0)
	p.AddRow(map[int]float64{0: 1}, 5)
	sol := solve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	for r := 0; r < p.NumRows(); r++ {
		if err := p.farkas(&sol.State.tb, r, new(scratch)); err == nil {
			t.Errorf("farkas certified row %d of a feasible problem infeasible", r)
		}
	}
}

// TestResumeRejectsForeignOptimum: a state from another problem of the
// same layout leaves a tableau whose reduced costs all have the right
// signs, so the sign check alone passes its point. From the end state of
// min x s.t. x ≥ 3, resuming min x s.t. 2x ≥ 3 keeps x = 3, whose
// objective is above the bound −7 this problem's own row gives, so the
// warm answer is refused and the cold solve finds 1.5.
func TestResumeRejectsForeignOptimum(t *testing.T) {
	build := func(coef float64) *Problem {
		p, one := withOne(1)
		p.SetObj(0, 1)
		p.SetBounds(0, 0, 10)
		p.AddRow(map[int]float64{0: -coef, one: 10}, 7) // coef·x ≥ 3
		return p
	}
	donor := solve(t, build(1))
	if donor.Status != Optimal || !approx(donor.Obj, 3) {
		t.Fatalf("donor: %v obj %v, want optimal 3", donor.Status, donor.Obj)
	}
	p := build(2)
	got, err := p.SolveFromState(context.Background(), donor.State)
	if err != nil {
		t.Fatal(err)
	}
	certify(t, p, got)
	if got.Status != Optimal || got.Warmed || !approx(got.Obj, 1.5) {
		t.Errorf("2x ≥ 3 from the end state of x ≥ 3: got %v obj %v (warmed %v), want the cold optimum 1.5",
			got.Status, got.Obj, got.Warmed)
	}
}
