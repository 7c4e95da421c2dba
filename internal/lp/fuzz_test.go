package lp

import (
	"context"
	"math"
	"testing"
)

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// bound decodes a column bound pair: lo in {0,1,2}, hi lo+{0..3} or +Inf.
func (b *fuzzBytes) bound() (lo, hi float64) {
	lo = float64(b.next() % 3)
	if span := b.next() % 5; span < 4 {
		return lo, lo + float64(span)
	}
	return lo, math.Inf(1)
}

// FuzzBoundsVsRows decodes a small LP from the input and solves it twice:
// with native column bounds, and with the same bounds written as explicit
// rows over default [0, +Inf) columns. Rows are ≤, ≥ or = with a
// right-hand side of either sign, written into the ≤ class with constants
// on column one, which both problems fix at 1 (addRel); an explicit lower
// bound x ≥ lo is the row −x + lo·x_one ≤ 0. Both must report the same
// status and, when Optimal, objectives within 1e-7 and valid
// certificates. The native end state is then resumed under edited column
// bounds and RHS values and must agree with a cold solve of the edited
// problem; its carried reduced costs must be bit-equal to a fresh price.
// Resumed once more below a decoded cutoff, it must either answer as
// before or stop with a bound that reaches the cutoff and that the cold
// optimum does not undercut. Every resume runs a second time from a
// copy of the same end state built in a dead state's storage, as branch
// and bound recycles it, and must answer bit for bit as the resume from
// a fresh copy did. Every Optimal answer of a
// resume, which ResumeBelow certified on its closing price, must also
// pass the public Certify, which prices the end tableau afresh. Dense
// rows may hold explicit zeros and −0 coefficients (a coefficient byte
// of 3 mod 7 is a zero, and a −0 from 128 on).
func FuzzBoundsVsRows(f *testing.F) {
	f.Add([]byte{2, 1, 250, 253, 0, 1, 1, 4, 1, 2, 2, 0, 5})
	f.Add([]byte{3, 2, 1, 2, 3, 0, 1, 2, 0, 1, 1, 4, 6, 5, 4, 0, 9, 1, 2, 3, 1, 7})
	f.Add([]byte{4, 3, 0, 10, 2, 7, 1, 4, 0, 0, 2, 2, 1, 3, 3, 1, 6, 0, 2, 5, 8, 1, 0, 4, 3, 2, 1, 1, 1, 1, 2, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := 1 + in.next()%5
		m := in.next() % 5
		native, one := withOne(n)
		explicit, _ := withOne(n)
		for j := 0; j < n; j++ {
			c := float64(in.next()%11 - 5)
			native.SetObj(j, c)
			explicit.SetObj(j, c)
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n+1)
			for j := range row[:n] {
				v := in.next()
				row[j] = float64(v%7 - 3)
				if v%7 == 3 && v >= 128 {
					row[j] = math.Copysign(0, -1) // an explicit −0
				}
			}
			r := rel(in.next() % 3)
			rhs := float64(in.next()%11 - 5)
			addRel(native, row, r, rhs, one)
			addRel(explicit, row, r, rhs, one)
		}
		for j := 0; j < n; j++ {
			lo, hi := in.bound()
			native.SetBounds(j, lo, hi)
			if lo > 0 {
				explicit.AddRow(map[int]float64{j: -1, one: lo}, 0)
			}
			if !math.IsInf(hi, 1) {
				explicit.AddRow(map[int]float64{j: 1}, hi)
			}
		}

		a := solve(t, native)
		b := solve(t, explicit)
		if a.Status != b.Status {
			t.Fatalf("native bounds %v, explicit rows %v", a.Status, b.Status)
		}
		if a.Status != Optimal {
			return
		}
		if math.Abs(a.Obj-b.Obj) > 1e-7*(1+math.Abs(a.Obj)) {
			t.Fatalf("native bounds obj %v, explicit rows obj %v", a.Obj, b.Obj)
		}

		q := native.Clone()
		for j := 0; j < n; j++ {
			if in.next()%2 == 1 {
				lo, hi := in.bound()
				q.SetBounds(j, lo, hi)
			}
		}
		for i := 0; i < q.NumRows(); i++ {
			if in.next()%3 == 0 {
				q.SetRHS(i, float64(in.next()%6))
			}
		}
		checkCarriedPrice(t, q, a.State)
		cold := solve(t, q.Clone())
		warm, err := q.SolveFromState(context.Background(), a.State)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("resumed %v, cold %v", warm.Status, cold.Status)
		}
		if cold.Status == Optimal && math.Abs(warm.Obj-cold.Obj) > 1e-7*(1+math.Abs(cold.Obj)) {
			t.Fatalf("resumed obj %v, cold obj %v", warm.Obj, cold.Obj)
		}
		certify(t, q, warm)
		resumeCopy(t, q, a.State, math.Inf(1), warm)

		cutoff := float64(in.next()%21-10) / 2
		below, err := q.ResumeBelow(context.Background(), a.State.Copy(nil), cutoff)
		if err != nil {
			t.Fatal(err)
		}
		certify(t, q, below)
		resumeCopy(t, q, a.State, cutoff, below)
		if below.Status != Cutoff {
			if below.Status != warm.Status || below.Obj != warm.Obj {
				t.Fatalf("below cutoff %v: %v obj %v, without a cutoff %v obj %v", cutoff, below.Status, below.Obj, warm.Status, warm.Obj)
			}
			return
		}
		switch {
		case below.Obj < cutoff:
			t.Fatalf("cut off with bound %v below the cutoff %v", below.Obj, cutoff)
		case cold.Status == Optimal && cold.Obj < below.Obj-1e-7*(1+math.Abs(below.Obj)):
			t.Fatalf("cut off with bound %v, but the cold optimum is %v", below.Obj, cold.Obj)
		case cold.Status != Optimal && cold.Status != Infeasible:
			t.Fatalf("cut off with bound %v, but the cold solve is %v", below.Obj, cold.Status)
		}
	})
}

// resumeCopy resumes p below cutoff from a copy of st built in the
// storage of a dead state whose every cell was scribbled over first. The
// copy must hold st's cells bit for bit, and the answer must be
// bit-identical to want, the answer of the same resume from a fresh copy
// of st: status, objective, point, pivot count and, for an Optimal
// answer, the carried price and end tableau.
func resumeCopy(t *testing.T, p *Problem, st *State, cutoff float64, want *Solution) {
	t.Helper()
	dead := st.Copy(nil)
	for i := range dead.tb.cells {
		dead.tb.cells[i] = math.NaN()
	}
	rt := st.Copy(dead)
	if !sameFloats(rt.tb.cells, st.tb.cells) {
		t.Fatal("a copy into recycled storage changed a tableau cell")
	}
	got, err := p.ResumeBelow(context.Background(), rt, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	certify(t, p, got)
	switch {
	case got.Status != want.Status || got.Warmed != want.Warmed || got.Iters != want.Iters:
		t.Fatalf("from the recycled copy %v (warmed %v) in %d iters, from a fresh copy %v (warmed %v) in %d",
			got.Status, got.Warmed, got.Iters, want.Status, want.Warmed, want.Iters)
	case math.Float64bits(got.Obj) != math.Float64bits(want.Obj) || !sameFloats(got.X, want.X):
		t.Fatalf("from the recycled copy obj %v x %v, from a fresh copy obj %v x %v", got.Obj, got.X, want.Obj, want.X)
	case (got.State == nil) != (want.State == nil):
		t.Fatal("only one of the two resumes donated an end state")
	case got.State != nil && (!sameFloats(got.State.reduced, want.State.reduced) ||
		!sameFloats(got.State.tb.cells, want.State.tb.cells)):
		t.Fatal("the two resumes ended on different tableaus or carried prices")
	}
}

// sameFloats reports whether a and b hold the same values bit for bit.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
