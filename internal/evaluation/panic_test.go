package evaluation

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/errs"
	"repro/internal/mcc"
)

// TestForEachPanicIsolatedSerial: a panicking job on the serial path is
// converted to a PanicError and every other job still runs — a panic is
// strictly less disruptive than an ordinary error, which stops the sweep.
func TestForEachPanicIsolatedSerial(t *testing.T) {
	sw := NewSweep(1)
	var ran []int
	err := sw.forEach(context.Background(), 6, func(i int) error {
		ran = append(ran, i)
		if i == 2 {
			panic("cell 2 exploded")
		}
		return nil
	})
	if want := []int{0, 1, 2, 3, 4, 5}; fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Fatalf("ran %v, want %v (panic must not stop the sweep)", ran, want)
	}
	var pe *errs.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a wrapped *errs.PanicError", err)
	}
	if pe.Value != "cell 2 exploded" {
		t.Errorf("recovered value = %v, want the panic payload", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "forEach") {
		t.Errorf("PanicError carries no useful stack:\n%s", pe.Stack)
	}
}

// TestForEachPanicIsolatedParallel: same contract across a worker pool —
// one pathological cell forfeits only its own result.
func TestForEachPanicIsolatedParallel(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sw := NewSweep(workers)
			const n = 40
			counts := make([]atomic.Int64, n)
			err := sw.forEach(context.Background(), n, func(i int) error {
				counts[i].Add(1)
				if i == 7 || i == 23 {
					panic(fmt.Sprintf("cell %d exploded", i))
				}
				return nil
			})
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("job %d ran %d times, want 1", i, c)
				}
			}
			var se *errs.SweepError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v, want *errs.SweepError", err)
			}
			if se.Total != n || len(se.Items) != 2 {
				t.Fatalf("SweepError %d items of %d, want 2 of %d", len(se.Items), se.Total, n)
			}
			if se.Items[0].Index != 7 || se.Items[1].Index != 23 {
				t.Errorf("items at %d,%d, want index order 7,23",
					se.Items[0].Index, se.Items[1].Index)
			}
		})
	}
}

// TestForEachPanicAndErrorMixed: a panic below an ordinary failure is
// still reported, the ordinary failure still stops dispatch, and both
// arrive in index order inside one SweepError.
func TestForEachPanicAndErrorMixed(t *testing.T) {
	sw := NewSweep(2)
	boom := errors.New("boom")
	const n = 500
	var ran atomic.Int64
	err := sw.forEach(context.Background(), n, func(i int) error {
		ran.Add(1)
		switch i {
		case 1:
			panic("panicked before the failure")
		case 3:
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("errors.Is(err, boom) = false for %v", err)
	}
	var pe *errs.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic item lost from %v", err)
	}
	var se *errs.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *errs.SweepError", err)
	}
	for j := 1; j < len(se.Items); j++ {
		if se.Items[j-1].Index >= se.Items[j].Index {
			t.Fatalf("items out of index order: %d before %d",
				se.Items[j-1].Index, se.Items[j].Index)
		}
	}
	if got := ran.Load(); got > 10 {
		t.Errorf("%d of %d jobs ran; the ordinary error should have stopped dispatch", got, n)
	}
}

// TestForEachCancelledBeforeStart: a pre-cancelled context runs nothing
// and reports the cancellation as the first item's error.
func TestForEachCancelledBeforeStart(t *testing.T) {
	for _, workers := range []int{1, 4} {
		sw := NewSweep(workers)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Int64
		err := sw.forEach(ctx, 8, func(i int) error {
			ran.Add(1)
			return nil
		})
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d jobs ran under a cancelled context", workers, ran.Load())
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if !errs.IsCancellation(err) {
			t.Fatalf("workers=%d: IsCancellation(%v) = false", workers, err)
		}
	}
}

// TestForEachCancelMidSweep: cancelling between jobs stops dispatch at
// the boundary; completed items keep their results and the error both
// reports the cancellation and stays errors.Is-reachable.
func TestForEachCancelMidSweep(t *testing.T) {
	sw := NewSweep(1)
	ctx, cancel := context.WithCancel(context.Background())
	var ran []int
	err := sw.forEach(ctx, 8, func(i int) error {
		ran = append(ran, i)
		if i == 3 {
			cancel()
		}
		return nil
	})
	if want := []int{0, 1, 2, 3}; fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
	var se *errs.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *errs.SweepError", err)
	}
	if len(se.Items) != 1 || se.Items[0].Index != 4 {
		t.Fatalf("cancellation reported at %+v, want the first undispatched index 4", se.Items)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false for %v", err)
	}
}

// TestFigure5PartialShape drives the public partial-results contract end
// to end: under a cancelled context the sweep does no work, yet the
// returned rows are complete in shape — every benchmark × level cell
// present, in order, named, and marked Incomplete.
func TestFigure5PartialShape(t *testing.T) {
	sw := NewSweep(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := sw.Figure5(ctx, []mcc.OptLevel{mcc.O2, mcc.Os})
	if err == nil {
		t.Fatal("cancelled Figure5 returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled reachable", err)
	}
	jobs := sweepJobs([]mcc.OptLevel{mcc.O2, mcc.Os})
	if len(rows) != len(jobs) {
		t.Fatalf("%d rows for %d cells", len(rows), len(jobs))
	}
	for i, r := range rows {
		if !r.Incomplete {
			t.Errorf("row %d (%s %v) not marked Incomplete under a cancelled context", i, r.Bench, r.Level)
		}
		if r.Bench != jobs[i].bench.Name || r.Level != jobs[i].level {
			t.Errorf("row %d = %s %v, want %s %v (shape must survive failure)",
				i, r.Bench, r.Level, jobs[i].bench.Name, jobs[i].level)
		}
	}
	// No session should have been compiled for a sweep that never ran.
	if st, _ := sw.Stats(); st.SessionMisses != 0 {
		t.Errorf("cancelled sweep compiled %d sessions", st.SessionMisses)
	}
}
