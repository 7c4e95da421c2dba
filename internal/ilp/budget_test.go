package ilp

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/errs"
)

// budgetKnapsack is a fractional-root instance with a feasible rounder,
// shared by the budget-trip regression tests. Its exact optimum is 220
// (items 2+3). The LP root is x = [1, 1, 2/3] (greedy by density), and
// rounding down keeps items 1+2, so a budget that stops the search at
// the root pins the incumbent objective at exactly 160 — strictly worse
// than the optimum, proving the incumbent (not a lucky optimum) is what
// a budget trip returns.
func budgetKnapsack(t *testing.T) *Solver {
	s := knapsack(t, []float64{60, 100, 120}, []float64{10, 20, 30}, 50)
	weights := []float64{10, 20, 30}
	s.Rounder = func(x []float64) ([]float64, bool) {
		rx := make([]float64, len(x))
		w := 0.0
		for j, v := range x {
			if v > 0.999 && w+weights[j] <= 50 {
				rx[j] = 1
				w += weights[j]
			}
		}
		return rx, true
	}
	return s
}

// TestNodeBudgetKeepsIncumbent is the regression test for the discarded
// incumbent: a tripped node budget must return the best incumbent with a
// Feasible (non-Optimal) status and the budget error in Stop — never an
// error, never a worse objective than the root rounding guarantees.
func TestNodeBudgetKeepsIncumbent(t *testing.T) {
	s := budgetKnapsack(t)
	s.MaxNodes = 1 // root only: the incumbent exists solely via the rounder
	r, err := s.Solve(context.Background())
	if err != nil {
		t.Fatalf("node budget must not fail when an incumbent exists: %v", err)
	}
	if r.Status != Feasible {
		t.Fatalf("status = %v, want feasible", r.Status)
	}
	if got := -r.Obj; math.Abs(got-160) > 1e-6 {
		t.Fatalf("incumbent value = %v, want the pinned 160", got)
	}
	if r.Nodes != 1 {
		t.Fatalf("nodes = %d, want exactly the root", r.Nodes)
	}
	if r.Stop == nil || !errors.Is(r.Stop, errs.ErrBudget) {
		t.Fatalf("Stop = %v, want a budget error", r.Stop)
	}
	var be *errs.BudgetError
	if !errors.As(r.Stop, &be) || be.Resource != "node" || be.Limit != 1 {
		t.Fatalf("Stop = %+v, want node budget 1", r.Stop)
	}
}

// TestIterBudgetRoundsPhase2Point: a simplex pivot budget that trips in
// the primal pass leaves a feasible fractional point; the solver must
// round it into an incumbent instead of erroring out.
func TestIterBudgetRoundsPhase2Point(t *testing.T) {
	sawFeasible := false
	for maxIter := 1; maxIter <= 20; maxIter++ {
		s := budgetKnapsack(t)
		s.Base.MaxIter = maxIter
		r, err := s.Solve(context.Background())
		if err != nil {
			// No feasible point existed when the budget tripped, so an
			// error matching the budget sentinel is the correct outcome.
			if !errors.Is(err, errs.ErrBudget) {
				t.Fatalf("maxIter=%d: error %v does not match ErrBudget", maxIter, err)
			}
			continue
		}
		if r.Status == Feasible {
			sawFeasible = true
			if r.X == nil {
				t.Fatalf("maxIter=%d: feasible result without an incumbent", maxIter)
			}
			if !s.Base.Feasible(r.X, 1e-6) {
				t.Fatalf("maxIter=%d: incumbent violates the constraints", maxIter)
			}
			if r.Stop == nil || !errors.Is(r.Stop, errs.ErrBudget) {
				t.Fatalf("maxIter=%d: Stop = %v, want budget error", maxIter, r.Stop)
			}
		}
	}
	if !sawFeasible {
		t.Fatal("no pivot budget produced a rounded primal-pass incumbent; the regression path never ran")
	}
}

// TestDeadlineKeepsIncumbent: an already-expired context still returns
// the root incumbent (the root LP finished before the first poll only if
// the point was in hand; with a dead context the LP itself is interrupted,
// so assert the no-incumbent error matches both sentinels instead).
func TestDeadlineKeepsIncumbent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := budgetKnapsack(t)
	_, err := s.Solve(ctx)
	if err == nil {
		t.Fatal("expected an error from a pre-cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not match context.Canceled", err)
	}
}

// TestBudgetDeterminism: the same budget yields byte-identical incumbents
// across repeated solves.
func TestBudgetDeterminism(t *testing.T) {
	run := func() *Result {
		s := budgetKnapsack(t)
		s.MaxNodes = 1
		r, err := s.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Obj != b.Obj || a.Status != b.Status || a.Nodes != b.Nodes {
		t.Fatalf("non-deterministic budget result: %+v vs %+v", a, b)
	}
	for j := range a.X {
		if a.X[j] != b.X[j] {
			t.Fatalf("incumbent differs at %d: %v vs %v", j, a.X[j], b.X[j])
		}
	}
}
