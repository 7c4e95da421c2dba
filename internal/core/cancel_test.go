package core_test

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/ir"
)

// rootThenCancelled is a context that is live for its first Done call
// and cancelled from the second on. With the model memoized, the first
// call is the root relaxation's LP solve, so the branch-and-bound loop
// finds the caller gone with the rounded root incumbent in hand.
type rootThenCancelled struct {
	context.Context
	calls atomic.Int32
}

var closedDone = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (c *rootThenCancelled) Done() <-chan struct{} {
	if c.calls.Add(1) == 1 {
		return nil
	}
	return closedDone
}

func (c *rootThenCancelled) Err() error {
	if c.calls.Load() <= 1 {
		return nil
	}
	return context.Canceled
}

func (c *rootThenCancelled) Deadline() (time.Time, bool) { return time.Time{}, false }

// A solve whose caller cancels mid-search fails as a solve-stage
// cancellation and is not memoized: a later caller with a live context
// gets exactly what a fresh session solves, not the unproven incumbent
// the cancelled search held.
func TestSolveCancelledMidSearchIsNotMemoized(t *testing.T) {
	ctx := context.Background()
	// Figure 2 with 16 bytes of spare RAM: the root relaxation is
	// fractional, so the search branches past it.
	spec := core.SolveSpec{ModelSpec: core.ModelSpec{Rspare: 16}}
	s, err := core.NewSession(ir.Figure2Program(), core.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Model(ctx, spec.ModelSpec); err != nil {
		t.Fatal(err)
	}
	late := &rootThenCancelled{Context: ctx}
	res, err := s.Solve(late, spec)
	var e *errs.Error
	if !errs.IsCancellation(err) || !errors.As(err, &e) || e.Stage != errs.StageSolve {
		t.Fatalf("cancelled solve returned (%v, %v), want a %s-stage cancellation", res, err, errs.StageSolve)
	}
	if late.calls.Load() < 2 {
		t.Fatal("the solve never polled past the root relaxation")
	}

	got, err := s.Solve(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.NewSession(ir.Figure2Program(), core.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Solve(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Proven || want.Nodes <= 1 {
		t.Fatalf("precondition: a proven solve that branched, got proven=%v nodes=%d", want.Proven, want.Nodes)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("retry after a cancelled solve differs from a fresh session's:\nretry: %+v\nfresh: %+v", got, want)
	}
}
