package ilp

import (
	"context"
	"math"
	"testing"

	"repro/internal/lp"
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

// FuzzBranchAndBoundVsExhaustive decodes a 0–1 program over k ≤ 10
// binaries — integer objective, knapsack rows shaped like the placement
// model's RAM row (non-negative sizes under a capacity), the odd cover or
// mixed-sign row, and random fixes in the column bounds — and solves it
// by branch and bound and by exhaustive enumeration. Statuses must agree;
// an Optimal point must be integral and feasible, with an objective
// bit-equal to the exhaustive one once both points are rounded.
// Optionally the solve is warm-started from the root end state of a
// looser sibling, so the search also branches below a resumed root.
// Every Optimal relaxation either solve meets is certified.
func FuzzBranchAndBoundVsExhaustive(f *testing.F) {
	f.Add([]byte{5, 0, 3, 250, 7, 1, 9, 1, 0, 4, 8, 12, 3, 6, 9, 40, 2, 2, 2, 2, 2, 0})
	f.Add([]byte{8, 1, 10, 251, 3, 4, 5, 6, 248, 7, 2, 0, 11, 5, 7, 13, 2, 9, 4, 3, 1, 60, 1, 1, 3, 5, 7, 2, 8, 1, 3, 9, 20, 4, 4, 4, 4, 4, 4, 4, 4, 1, 15})
	f.Add([]byte{9, 2, 14, 2, 9, 1, 5, 3, 8, 6, 2, 0, 21, 17, 5, 9, 30, 2, 4, 11, 13, 8, 70, 2, 6, 3, 1, 2, 0, 5, 4, 2, 6, 3, 10, 3, 2, 3, 4, 2, 3, 4, 2, 3, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		k := 1 + in.next()%10
		nRows := 1 + in.next()%3
		obj := make([]float64, k)
		for j := range obj {
			obj[j] = float64(in.next()%41 - 20)
		}
		type row struct {
			coef []float64
			rel  lp.Rel
			rhs  float64
		}
		rows := make([]row, nRows)
		for i := range rows {
			r := row{coef: make([]float64, k), rel: lp.LE}
			kind := in.next() % 4
			total := 0.0
			for j := range r.coef {
				if kind == 3 { // mixed signs
					r.coef[j] = float64(in.next()%9 - 4)
				} else { // non-negative sizes
					r.coef[j] = float64(in.next() % 32)
				}
				total += math.Abs(r.coef[j])
			}
			// The right-hand side is a byte's share of the row's total.
			r.rhs = math.Floor(total * float64(in.next()) / 255)
			if kind == 2 { // a cover row: at least that much must be chosen
				r.rel, r.rhs = lp.GE, math.Floor(r.rhs/2)
			}
			rows[i] = r
		}
		fixes := make([]int, k)
		for j := range fixes {
			fixes[j] = in.next() % 6 // 0: fix at 0, 1: fix at 1, else free
		}
		slack := float64(in.next() % 4 * 8) // the sibling's extra capacity; 0 = no warm start

		build := func(extra float64) *Solver {
			p := lp.NewProblem(k)
			bins := make([]int, k)
			for j := range bins {
				bins[j] = j
				p.SetObj(j, obj[j])
				switch fixes[j] {
				case 0:
					p.SetBounds(j, 0, 0)
				case 1:
					p.SetBounds(j, 1, 1)
				default:
					p.SetBounds(j, 0, 1)
				}
			}
			for _, r := range rows {
				rhs := r.rhs
				if r.rel == lp.LE {
					rhs += extra
				}
				p.AddDenseRow(r.coef, r.rel, rhs)
			}
			return certified(t, &Solver{Base: p, Binaries: bins})
		}

		s := build(0)
		if slack > 0 {
			sib, err := build(slack).Solve(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			s.Warm = &WarmStart{State: sib.RootState}
		}
		got, err := s.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.SolveExhaustive(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status {
			t.Fatalf("branch and bound %v, exhaustive %v", got.Status, want.Status)
		}
		if got.Status != Optimal {
			return
		}
		if !s.integral(got.X) || !s.Base.Feasible(got.X, 1e-6) {
			t.Fatalf("optimal point %v is not an integral feasible point", got.X)
		}
		// Obj is cᵀx at the relaxation's point, whose binaries may sit an
		// ulp off 0 or 1 (either solver's); at the rounded points the
		// integer objective is exact, and the two optima must agree to
		// the bit.
		g, w := s.Base.Objective(rounded(got.X)), s.Base.Objective(rounded(want.X))
		if math.Float64bits(g) != math.Float64bits(w) || math.Abs(got.Obj-want.Obj) > 1e-9 {
			t.Fatalf("branch and bound obj %v (x=%v), exhaustive %v (x=%v)", got.Obj, got.X, want.Obj, want.X)
		}
	})
}

// rounded returns x with every entry rounded to the nearest integer.
func rounded(x []float64) []float64 {
	r := make([]float64, len(x))
	for j, v := range x {
		r[j] = math.Round(v)
	}
	return r
}
