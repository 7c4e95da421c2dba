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
// rows over default [0, +Inf) columns. Both must report the same status
// and, when Optimal, objectives within 1e-7 and valid certificates. The
// native end state is then resumed under edited column bounds and RHS
// values (signs kept) and must agree with a cold solve of the edited
// problem; its carried reduced costs must be bit-equal to a fresh price.
// Resumed once more below a decoded cutoff, it must either answer as
// before or stop with a bound that reaches the cutoff and that the cold
// optimum does not undercut.
func FuzzBoundsVsRows(f *testing.F) {
	f.Add([]byte{2, 1, 250, 253, 0, 1, 1, 4, 1, 2, 2, 0, 5})
	f.Add([]byte{3, 2, 1, 2, 3, 0, 1, 2, 0, 1, 1, 4, 6, 5, 4, 0, 9, 1, 2, 3, 1, 7})
	f.Add([]byte{4, 3, 0, 10, 2, 7, 1, 4, 0, 0, 2, 2, 1, 3, 3, 1, 6, 0, 2, 5, 8, 1, 0, 4, 3, 2, 1, 1, 1, 1, 2, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := 1 + in.next()%5
		m := in.next() % 5
		native, explicit := NewProblem(n), NewProblem(n)
		rhs := make([]float64, m)
		for j := 0; j < n; j++ {
			c := float64(in.next()%11 - 5)
			native.SetObj(j, c)
			explicit.SetObj(j, c)
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = float64(in.next()%7 - 3)
			}
			rel := Rel(in.next() % 3)
			rhs[i] = float64(in.next()%11 - 5)
			native.AddDenseRow(row, rel, rhs[i])
			explicit.AddDenseRow(row, rel, rhs[i])
		}
		for j := 0; j < n; j++ {
			lo, hi := in.bound()
			native.SetBounds(j, lo, hi)
			if lo > 0 {
				explicit.AddRow(map[int]float64{j: 1}, GE, lo)
			}
			if !math.IsInf(hi, 1) {
				explicit.AddRow(map[int]float64{j: 1}, LE, hi)
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
		for i, rhs := range rhs {
			if in.next()%3 == 0 {
				q.SetRHS(i, math.Copysign(float64(in.next()%6), rhs))
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

		cutoff := float64(in.next()%21-10) / 2
		below, err := q.ResumeBelow(context.Background(), a.State.Copy(nil), cutoff)
		if err != nil {
			t.Fatal(err)
		}
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
