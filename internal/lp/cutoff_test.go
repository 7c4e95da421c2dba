package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// TestResumeBelowStopsAtTheCutoff resumes a knapsack relaxation under a
// tighter budget, whose optimum rises. A cutoff at or below that optimum
// stops the resume early with a bound between the cutoff and the
// optimum; a cutoff above it changes nothing.
func TestResumeBelowStopsAtTheCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 12
	c := make([]float64, n)
	w := make([]float64, n)
	for j := range c {
		c[j] = 1 + rng.Float64()*9
		w[j] = 1 + rng.Float64()*4
	}
	donor := solve(t, sweepProblem(n, c, w, 20)).State
	next := sweepProblem(n, c, w, 4)
	want, err := next.Resume(context.Background(), donor.Copy(nil))
	if err != nil {
		t.Fatal(err)
	}
	if want.Status != Optimal || !want.Warmed {
		t.Fatalf("resume without a cutoff: %v (warmed %v)", want.Status, want.Warmed)
	}
	for _, cutoff := range []float64{want.Obj - 20, want.Obj - 1, want.Obj} {
		got, err := next.ResumeBelow(context.Background(), donor.Copy(nil), cutoff)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != Cutoff || got.X != nil || got.State != nil {
			t.Fatalf("cutoff %v: %v, want Cutoff with no point or state", cutoff, got.Status)
		}
		if got.Obj < cutoff || got.Obj > want.Obj+1e-9*(1+math.Abs(want.Obj)) {
			t.Errorf("cutoff %v: bound %v outside [cutoff, optimum %v]", cutoff, got.Obj, want.Obj)
		}
		if got.Iters > want.Iters {
			t.Errorf("cutoff %v: %d iterations, more than the %d of the full resume", cutoff, got.Iters, want.Iters)
		}
	}
	above, err := next.ResumeBelow(context.Background(), donor.Copy(nil), want.Obj+1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if above.Status != Optimal || above.Obj != want.Obj || above.Iters != want.Iters {
		t.Errorf("cutoff above the optimum: %v obj %v in %d iters, want %v obj %v in %d",
			above.Status, above.Obj, above.Iters, want.Status, want.Obj, want.Iters)
	}
	certify(t, next, above)
}

// TestResumeBelowForeignStateKeepsGoing resumes states whose basis
// passes the quick objective check although the resumed problem's
// optimum lies below the cutoff; the bound built from the problem's own
// rows must refuse the cutoff, and the resume must answer exactly as a
// resume without one.
//
//   - The donor solved min x s.t. x ≥ 3 at x = 3; the resumed problem is
//     min x s.t. 2x ≥ 3, x ≤ 2.5, optimum 1.5. The donor's basis reads
//     objective 3, but the row's own coefficient gives the bound
//     3 − 2.5 = 0.5.
//   - The donor solved min −x s.t. x ≤ 5 at x = 5; the resumed problem is
//     min x under the same row, optimum 0, resumed without the carried
//     price so that it is priced under its own objective. The basis reads
//     objective 5 and the slack's reduced cost is −1: taken as a
//     multiplier, that wrong sign would certify the bound 5.
func TestResumeBelowForeignStateKeepsGoing(t *testing.T) {
	build := func(obj, coef float64, rel Rel, rhs, hi float64) *Problem {
		p := NewProblem(1)
		p.SetObj(0, obj)
		p.SetBounds(0, 0, hi)
		p.AddRow(map[int]float64{0: coef}, rel, rhs)
		return p
	}
	for _, tc := range []struct {
		name        string
		donor, p    *Problem
		dropPrice   bool
		cutoff, opt float64
	}{
		{"another row coefficient", build(1, 1, GE, 3, 10), build(1, 2, GE, 3, 2.5), false, 2, 1.5},
		{"a multiplier of the wrong sign", build(-1, 1, LE, 5, 10), build(1, 1, LE, 5, 10), true, 3, 0},
	} {
		donor := solve(t, tc.donor)
		if donor.Status != Optimal {
			t.Fatalf("%s: donor %v", tc.name, donor.Status)
		}
		state := func() *State {
			st := donor.State.Copy(nil)
			if tc.dropPrice {
				st.reduced = nil
			}
			return st
		}
		st := state()
		cost, reduced, ok := tc.p.refresh(st)
		if !ok {
			t.Fatalf("%s: the foreign state's layout does not fit; the test needs one that does", tc.name)
		}
		if obj := tc.p.basisObj(&st.tb, cost); obj < tc.cutoff {
			t.Fatalf("%s: basis objective %v: the quick check would not pass", tc.name, obj)
		}
		if bound, ok := tc.p.cutBound(&st.tb, reduced); ok && bound >= tc.cutoff {
			t.Fatalf("%s: bound %v: the certificate would hold", tc.name, bound)
		}

		want, err := tc.p.Resume(context.Background(), state())
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.p.ResumeBelow(context.Background(), state(), tc.cutoff)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || got.Obj != want.Obj || got.Iters != want.Iters || got.Warmed != want.Warmed {
			t.Errorf("%s: with the cutoff %v obj %v in %d iters (warmed %v); without %v obj %v in %d (warmed %v)", tc.name,
				got.Status, got.Obj, got.Iters, got.Warmed, want.Status, want.Obj, want.Iters, want.Warmed)
		}
		certify(t, tc.p, got)
		if got.Status != Optimal || !approx(got.Obj, tc.opt) {
			t.Errorf("%s: got %v obj %v, want the optimum %v", tc.name, got.Status, got.Obj, tc.opt)
		}
	}
}

// TestCarriedPriceIsFresh resumes random small LPs, shaped like
// FuzzBoundsVsRows', under edited RHS values and column bounds, half the
// time lifting a complemented column's upper bound to +Inf, and holds
// every carried price to a fresh one. Both kinds of complemented column,
// basic and nonbasic, must meet a lifted bound.
func TestCarriedPriceIsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	bound := func() (lo, hi float64) {
		lo = float64(rng.Intn(3))
		if span := rng.Intn(5); span < 4 {
			return lo, lo + float64(span)
		}
		return lo, math.Inf(1)
	}
	lifted := map[bool]int{} // by whether the column was basic
	for trial := 0; trial < 2000; trial++ {
		n, m := 1+rng.Intn(5), rng.Intn(5)
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.SetObj(j, float64(rng.Intn(11)-5))
			lo, hi := bound()
			p.SetBounds(j, lo, hi)
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = float64(rng.Intn(7) - 3)
			}
			p.AddDenseRow(row, Rel(rng.Intn(3)), float64(rng.Intn(11)-5))
		}
		sol := solve(t, p)
		if sol.Status != Optimal {
			continue
		}
		q := p.Clone()
		for j := 0; j < n; j++ {
			lo, _ := q.Bounds(j)
			switch {
			case sol.State.tb.flip[j] && rng.Intn(2) == 0:
				q.SetBounds(j, lo, math.Inf(1))
				basic := false
				for _, b := range sol.State.tb.basis {
					basic = basic || b == j
				}
				lifted[basic]++
			case rng.Intn(2) == 0:
				lo, hi := bound()
				q.SetBounds(j, lo, hi)
			}
		}
		for i := 0; i < m; i++ {
			if rng.Intn(3) == 0 {
				q.SetRHS(i, math.Copysign(float64(rng.Intn(6)), p.rowRHS[i]))
			}
		}
		checkCarriedPrice(t, q, sol.State)
	}
	if lifted[true] == 0 || lifted[false] == 0 {
		t.Errorf("lifted bounds on %d basic and %d nonbasic complemented columns; want both", lifted[true], lifted[false])
	}
}

// checkCarriedPrice refreshes a copy of st for p and fails the test
// unless the carried reduced costs are bit-equal to a fresh price of the
// refreshed tableau.
func checkCarriedPrice(t *testing.T, p *Problem, st *State) {
	t.Helper()
	cp := st.Copy(nil)
	cost, carried, ok := p.refresh(cp)
	if !ok {
		return
	}
	fresh := make([]float64, cp.tb.total)
	cp.tb.price(cost, fresh)
	for j := range fresh {
		if math.Float64bits(carried[j]) != math.Float64bits(fresh[j]) {
			t.Fatalf("column %d: carried reduced cost %v, fresh price %v", j, carried[j], fresh[j])
		}
	}
}
