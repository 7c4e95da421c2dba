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
//     3 − 2.5 = 0.5. (A lower limit x ≥ b is written −x + 10·x_one ≤
//     10 − b, column one fixed at 1.)
//   - The donor solved min −x s.t. x ≤ 5 at x = 5; the resumed problem is
//     min x under the same row, optimum 0, resumed without the carried
//     price so that it is priced under its own objective. The basis reads
//     objective 5 and the slack's reduced cost is −1: taken as a
//     multiplier, that wrong sign would certify the bound 5.
func TestResumeBelowForeignStateKeepsGoing(t *testing.T) {
	build := func(obj, coef float64, r rel, rhs, hi float64) *Problem {
		p, one := withOne(1)
		p.SetObj(0, obj)
		p.SetBounds(0, 0, hi)
		if r == ge {
			p.AddRow(map[int]float64{0: -coef, one: 10}, 10-rhs)
		} else {
			p.AddRow(map[int]float64{0: coef}, rhs)
		}
		return p
	}
	for _, tc := range []struct {
		name        string
		donor, p    *Problem
		dropPrice   bool
		cutoff, opt float64
	}{
		{"another row coefficient", build(1, 1, ge, 3, 10), build(1, 2, ge, 3, 2.5), false, 2, 1.5},
		{"a multiplier of the wrong sign", build(-1, 1, le, 5, 10), build(1, 1, le, 5, 10), true, 3, 0},
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
		if bound, ok := tc.p.cutBound(reduced, new(scratch)); ok && bound >= tc.cutoff {
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
		p, one := withOne(n)
		for j := 0; j < n; j++ {
			p.SetObj(j, float64(rng.Intn(11)-5))
			lo, hi := bound()
			p.SetBounds(j, lo, hi)
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n+1)
			for j := range row[:n] {
				row[j] = float64(rng.Intn(7) - 3)
			}
			addRel(p, row, rel(rng.Intn(3)), float64(rng.Intn(11)-5), one)
		}
		sol := solve(t, p)
		if sol.Status != Optimal {
			continue
		}
		q := p.Clone()
		for j := 0; j < n; j++ { // column one stays fixed at 1
			lo, _ := q.Bounds(j)
			switch {
			case sol.State.tb.flip[j] && rng.Intn(2) == 0:
				q.SetBounds(j, lo, math.Inf(1))
				lifted[sol.State.tb.pos[j] >= n+1]++
			case rng.Intn(2) == 0:
				lo, hi := bound()
				q.SetBounds(j, lo, hi)
			}
		}
		for i := range p.rowRHS {
			if rng.Intn(3) == 0 {
				q.SetRHS(i, float64(rng.Intn(6)))
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

// TestResumeBelowDropsRoundingLevelPrices takes an explicit-rows problem
// of the kind FuzzBoundsVsRows builds, column bounds written as rows, and
// resumes it from its own end state with row 3's RHS lowered by one (the
// optimum stays −30). That end
// state prices row 3's slack at 2.2e-16 beside prices of up to 4, and x3
// costs nothing, has no upper bound and sits in row 3. Read as a
// multiplier, the rounding-level price gives x3 a dⱼ its cancel test
// cannot absorb, so the bound would be refused and the resume would pivot
// on to the optimum. Dropped, as farkas drops such prices, it leaves the
// bound −30 at the first basis, and a cutoff of −31 stops the resume
// there.
func TestResumeBelowDropsRoundingLevelPrices(t *testing.T) {
	build := func(rhs3 float64) *Problem {
		p, one := withOne(4)
		for j, c := range []float64{-2, -2, -4, 0} {
			p.SetObj(j, c)
		}
		p.AddDenseRow([]float64{-2, 3, 0, 0, 0}, 1)
		p.AddDenseRow([]float64{0, -3, -2, 1, 5}, 0)
		p.AddDenseRow([]float64{0, -1, 0, -3, 2}, 0)
		p.AddDenseRow([]float64{3, -1, 2, -3, 0}, rhs3)
		for j, b := range []struct{ lo, hi float64 }{{1, 4}, {2, 3}, {2, 4}, {2, math.Inf(1)}} {
			p.AddRow(map[int]float64{j: -1, one: b.lo}, 0)
			if !math.IsInf(b.hi, 1) {
				p.AddRow(map[int]float64{j: 1}, b.hi)
			}
		}
		return p
	}
	donor := solve(t, build(3))
	if donor.Status != Optimal || !approx(donor.Obj, -30) {
		t.Fatalf("donor: %v obj %v, want optimal −30", donor.Status, donor.Obj)
	}
	if r := donor.State.reduced[8]; !(r > 0 && r < 1e-12) {
		t.Fatalf("row 3's slack price is %v; the test needs one at rounding level", r)
	}

	p := build(2)
	cold := solve(t, p.Clone())
	if cold.Status != Optimal || !approx(cold.Obj, -30) {
		t.Fatalf("cold: %v obj %v, want optimal −30", cold.Status, cold.Obj)
	}
	const cutoff = -31
	got, err := p.ResumeBelow(context.Background(), donor.State.Copy(nil), cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != Cutoff || got.Iters != 0 {
		t.Fatalf("cutoff %v: %v obj %v after %d iterations, want Cutoff at the first basis", cutoff, got.Status, got.Obj, got.Iters)
	}
	if got.Obj < cutoff || got.Obj > cold.Obj+1e-9*(1+math.Abs(cold.Obj)) {
		t.Errorf("cutoff %v: bound %v outside [cutoff, optimum %v]", cutoff, got.Obj, cold.Obj)
	}
}
