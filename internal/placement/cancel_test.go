package placement

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/ir"
)

// rootThenCancelled is a context that is live for its first Done call
// and cancelled from the second on: the root relaxation (one LP solve,
// one Done call) runs to completion, and the branch-and-bound loop then
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

// A caller that cancels while branch and bound holds only an unproven
// incumbent gets its cancellation back, not the incumbent as an answer:
// the solve's own Timeout degrades, the caller's context never does.
func TestSolveLadderCancelledCallerGetsCancellation(t *testing.T) {
	// Figure 2 with 16 bytes of spare RAM: the root relaxation is
	// fractional and the rounder turns it into an incumbent.
	m := buildModel(t, ir.Figure2Program(), 16, 2.0)
	live, err := SolveLadder(context.Background(), m, Budget{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if live.Nodes <= 1 {
		t.Fatalf("the root relaxation is integral (%d nodes): the scenario needs branching", live.Nodes)
	}
	ctx := &rootThenCancelled{Context: context.Background()}
	res, err := SolveLadder(ctx, m, Budget{}, nil)
	if err == nil || !errs.IsCancellation(err) {
		t.Fatalf("cancelled caller got (%v, %v), want a cancellation error", res, err)
	}
	if ctx.calls.Load() < 2 {
		t.Fatal("the solve never polled past the root")
	}
}
