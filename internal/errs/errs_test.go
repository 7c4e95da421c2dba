package errs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestWrapKeepsInnermostStage(t *testing.T) {
	base := errors.New("boom")
	inner := Wrap(StageModel, base)
	outer := Wrap(StageSolve, inner)
	var se *Error
	if !errors.As(outer, &se) {
		t.Fatalf("not an *Error: %v", outer)
	}
	if se.Stage != StageModel {
		t.Fatalf("stage = %q, want %q (innermost wins)", se.Stage, StageModel)
	}
	if !errors.Is(outer, base) {
		t.Fatalf("lost the cause: %v", outer)
	}
	if Wrap(StageSolve, nil) != nil {
		t.Fatal("Wrap(nil) must be nil")
	}
}

func TestAtBenchFormatsAttribution(t *testing.T) {
	err := AtBench("crc32", "O2", Wrap(StageTransform, errors.New("bad edge")))
	want := "crc32 at O2: transform: bad edge"
	if err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
	// Re-attribution is a no-op once bench info exists.
	again := AtBench("fdct", "Os", err)
	if again.Error() != want {
		t.Fatalf("re-attributed: %q", again.Error())
	}
	var se *Error
	if !errors.As(err, &se) || se.Bench != "crc32" || se.Level != "O2" {
		t.Fatalf("attribution fields not reachable: %+v", se)
	}
}

func TestErrorSuppressesDuplicateStagePrefix(t *testing.T) {
	inner := &Error{Stage: StageSolve, Err: errors.New("x")}
	outer := &Error{Stage: StageSolve, Err: inner}
	if got := outer.Error(); strings.Count(got, "solve:") != 1 {
		t.Fatalf("duplicated stage prefix: %q", got)
	}
	// A plain cause that already leads with the stage keeps one prefix.
	plain := AtBench("crc32", "O2", Wrap(StageModel, errors.New("model: negative Rspare -5")))
	if got, want := plain.Error(), "crc32 at O2: model: negative Rspare -5"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}

func TestBudgetErrorMatching(t *testing.T) {
	nodeErr := &BudgetError{Resource: "nodes", Limit: 7}
	if !errors.Is(nodeErr, ErrBudget) {
		t.Fatal("node budget must match ErrBudget")
	}
	if errors.Is(nodeErr, context.DeadlineExceeded) {
		t.Fatal("count budget must not look like a deadline")
	}
	dlErr := &BudgetError{Resource: "deadline", Cause: context.DeadlineExceeded}
	if !errors.Is(dlErr, ErrBudget) || !errors.Is(dlErr, context.DeadlineExceeded) {
		t.Fatalf("deadline budget must match both sentinels: %v", dlErr)
	}
	wrapped := fmt.Errorf("solve: %w", dlErr)
	var be *BudgetError
	if !errors.As(wrapped, &be) || be.Resource != "deadline" {
		t.Fatalf("As through wrapping failed: %v", wrapped)
	}
}

func TestSweepErrorReachesEveryItem(t *testing.T) {
	a, b := errors.New("a"), &PanicError{Value: "kaboom", Stack: []byte("stack")}
	se := &SweepError{Total: 5, Items: []ItemError{{Index: 1, Err: a}, {Index: 3, Err: b}}}
	if !errors.Is(se, a) {
		t.Fatal("first item unreachable")
	}
	var pe *PanicError
	if !errors.As(se, &pe) || pe.Value != "kaboom" {
		t.Fatalf("panic item unreachable: %v", se)
	}
	want := "sweep: 2 of 5 items failed, first at 1: a"
	if se.Error() != want {
		t.Fatalf("Error() = %q, want %q", se.Error(), want)
	}
}

func TestIsCancellation(t *testing.T) {
	if !IsCancellation(fmt.Errorf("run: %w", context.Canceled)) {
		t.Fatal("wrapped Canceled not detected")
	}
	if !IsCancellation(&BudgetError{Resource: "deadline", Cause: context.DeadlineExceeded}) {
		t.Fatal("deadline budget not detected")
	}
	if IsCancellation(errors.New("boom")) || IsCancellation(nil) {
		t.Fatal("false positive")
	}
}
