// Package errs is the pipeline's structured error taxonomy. Every layer
// of the reproduction — solver, session stages, simulator, sweeps —
// reports failures through the types here, so callers can route on
// errors.Is/errors.As instead of string matching:
//
//   - Error attributes a failure to a pipeline stage and, when known, the
//     benchmark × optimization-level cell being processed.
//   - BudgetError marks solver resource exhaustion (nodes, pivots,
//     deadline); errors.Is(err, ErrBudget) matches any of them, and a
//     deadline-caused one also matches context.DeadlineExceeded.
//   - PanicError carries a recovered worker panic and its stack.
//   - SweepError aggregates the per-item failures of a parallel sweep in
//     deterministic (index) order.
//
// Cancellation is deliberately not a type of its own: context.Canceled
// and context.DeadlineExceeded flow through wrapped, and IsCancellation
// answers the one question shutdown paths ask.
package errs

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// Stage names one pipeline stage for error attribution.
type Stage string

// Pipeline stages, in execution order.
const (
	StageCompile   Stage = "compile"
	StageVerify    Stage = "verify"
	StageCFG       Stage = "cfg"
	StageFreq      Stage = "freq"
	StageModel     Stage = "model"
	StageSolve     Stage = "solve"
	StageTransform Stage = "transform"
	StageLayout    Stage = "layout"
	StageAnalysis  Stage = "analysis"
	StageBaseline  Stage = "baseline-run"
	StageOptRun    Stage = "optimized-run"
	StageValidate  Stage = "validate"
	// StageIntermittent is the trace-driven replay of an image under an
	// injected power trace (DESIGN.md §6l).
	StageIntermittent Stage = "intermittent-run"
)

// Error attributes a pipeline failure: which stage raised it and — once
// the failure has crossed the evaluation layer — which benchmark ×
// optimization-level cell was being processed. Any subset of the
// attribution fields may be set; wrapping an *Error in another *Error
// fills in the missing fields without repeating the set ones.
type Error struct {
	Stage Stage
	Bench string
	Level string
	Err   error
}

func (e *Error) Error() string {
	var b strings.Builder
	if e.Bench != "" {
		b.WriteString(e.Bench)
		if e.Level != "" {
			b.WriteString(" at ")
			b.WriteString(e.Level)
		}
		b.WriteString(": ")
	}
	cause := "failed"
	if e.Err != nil {
		cause = e.Err.Error()
	}
	if e.Stage != "" {
		// Suppress the stage prefix when the cause already names the
		// stage: an inner *Error for the same stage, or a plain message
		// that leads with it (model.Build's "model: ...").
		prefix := string(e.Stage) + ": "
		var inner *Error
		if !(errors.As(e.Err, &inner) && inner.Stage == e.Stage) && !strings.HasPrefix(cause, prefix) {
			b.WriteString(prefix)
		}
	}
	b.WriteString(cause)
	return b.String()
}

func (e *Error) Unwrap() error { return e.Err }

// Wrap attributes err to a stage, returning nil for a nil err. If err is
// already an *Error carrying a stage, it is returned unchanged — the
// innermost stage is the accurate one.
func Wrap(stage Stage, err error) error {
	if err == nil {
		return nil
	}
	var se *Error
	if errors.As(err, &se) && se.Stage != "" {
		return err
	}
	return &Error{Stage: stage, Err: err}
}

// AtBench attributes err to a benchmark × level cell, returning nil for
// a nil err. An *Error already carrying bench attribution is returned
// unchanged.
func AtBench(bench, level string, err error) error {
	if err == nil {
		return nil
	}
	var se *Error
	if errors.As(err, &se) && se.Bench != "" {
		return err
	}
	return &Error{Bench: bench, Level: level, Err: err}
}

// ErrBudget is the sentinel every solver budget-exhaustion error wraps:
// errors.Is(err, ErrBudget) distinguishes "ran out of budget, degrade"
// from "the model is broken, abort".
var ErrBudget = errors.New("solver budget exhausted")

// BudgetError reports that a solver stopped because a resource budget —
// branch-and-bound nodes, simplex pivots, or the solve deadline — ran
// out. It matches ErrBudget via errors.Is, and a deadline-caused one
// also matches the underlying context error.
type BudgetError struct {
	// Resource names what ran out: "nodes", "simplex iterations" or
	// "deadline".
	Resource string
	// Limit is the budget that tripped (0 when the resource is the
	// deadline: wall-clock limits are not meaningful to reproduce).
	Limit int
	// Cause is the context error for deadline/cancellation trips, nil
	// for count budgets.
	Cause error
}

func (e *BudgetError) Error() string {
	if e.Limit > 0 {
		return fmt.Sprintf("%s budget %d exhausted", e.Resource, e.Limit)
	}
	if e.Cause != nil {
		return fmt.Sprintf("%s exceeded: %v", e.Resource, e.Cause)
	}
	return fmt.Sprintf("%s budget exhausted", e.Resource)
}

func (e *BudgetError) Unwrap() []error {
	if e.Cause != nil {
		return []error{ErrBudget, e.Cause}
	}
	return []error{ErrBudget}
}

// PanicError is a worker panic caught at an isolation boundary: the
// recovered value plus the goroutine stack at the point of recovery.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("worker panic: %v", e.Value)
}

// ItemError is one failed item of a sweep.
type ItemError struct {
	// Index is the item's position in the sweep's deterministic order.
	Index int
	Err   error
}

// SweepError aggregates every per-item failure of a parallel sweep,
// sorted by item index so the same failures produce the same error
// regardless of worker scheduling. errors.Is/As reach through to every
// item error.
type SweepError struct {
	// Total is the sweep size the failures came out of.
	Total int
	Items []ItemError
}

func (e *SweepError) Error() string {
	if len(e.Items) == 0 {
		return "sweep failed"
	}
	first := e.Items[0]
	if len(e.Items) == 1 {
		return fmt.Sprintf("sweep: item %d of %d failed: %v", first.Index, e.Total, first.Err)
	}
	return fmt.Sprintf("sweep: %d of %d items failed, first at %d: %v",
		len(e.Items), e.Total, first.Index, first.Err)
}

func (e *SweepError) Unwrap() []error {
	out := make([]error, len(e.Items))
	for i, it := range e.Items {
		out[i] = it.Err
	}
	return out
}

// IsCancellation reports whether err stems from context cancellation or
// an expired deadline — the cases where a cached failure must not
// poison a memo and a sweep should drain rather than diagnose.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
