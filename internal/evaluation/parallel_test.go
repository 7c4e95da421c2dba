package evaluation

import (
	"context"
	"errors"
	"fmt"
	"repro/internal/core"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/beebs"
	"repro/internal/mcc"
)

const testLevel = mcc.O2

func benchForTest(t *testing.T) *beebs.Benchmark {
	t.Helper()
	b := beebs.Get("crc32")
	if b == nil {
		t.Fatal("crc32 benchmark missing")
	}
	return b
}

// TestForEachSerialStopsAtFailure: the serial path must not run any job
// after the failing one.
func TestForEachSerialStopsAtFailure(t *testing.T) {
	sw := NewSweep(1)
	boom := errors.New("boom")
	var ran []int
	err := sw.forEach(context.Background(), 8, func(i int) error {
		ran = append(ran, i)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if want := []int{0, 1, 2, 3}; fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
}

// TestForEachLowestIndexError injects two failures where the
// higher-indexed job is guaranteed to fail first (the lower one blocks on
// it), and asserts the reported error is still the lowest-indexed one.
// This is the regression test for the old forEach, which returned
// whichever failure won the race.
func TestForEachLowestIndexError(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sw := NewSweep(workers)
			errLow := errors.New("low (index 2)")
			errHigh := errors.New("high (index 6)")
			highFailed := make(chan struct{})
			err := sw.forEach(context.Background(), 8, func(i int) error {
				switch i {
				case 2:
					<-highFailed // job 6 has already failed
					return errLow
				case 6:
					close(highFailed)
					return errHigh
				default:
					return nil
				}
			})
			if !errors.Is(err, errLow) {
				t.Fatalf("err = %v, want the lowest-indexed error %v", err, errLow)
			}
		})
	}
}

// TestForEachStopsDispatchAfterFailure: after a mid-sweep failure, the
// dispatcher must stop handing out the (many) remaining jobs instead of
// churning through all of them.
func TestForEachStopsDispatchAfterFailure(t *testing.T) {
	const n = 1000
	sw := NewSweep(2)
	boom := errors.New("boom")
	var ran atomic.Int64
	var maxIdx atomic.Int64
	zeroGate := make(chan struct{})
	err := sw.forEach(context.Background(), n, func(i int) error {
		ran.Add(1)
		for {
			cur := maxIdx.Load()
			if int64(i) <= cur || maxIdx.CompareAndSwap(cur, int64(i)) {
				break
			}
		}
		switch i {
		case 0:
			<-zeroGate // hold a worker until the failure is in
			return nil
		case 1:
			defer close(zeroGate)
			return boom
		default:
			return nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// Dispatch already in flight when the failure lands may still run a
	// handful of jobs; anything near n means dispatch never stopped.
	if got := ran.Load(); got > 10 {
		t.Fatalf("%d of %d jobs ran after a failure at index 1", got, n)
	}
	if got := maxIdx.Load(); got > 10 {
		t.Fatalf("job %d was dispatched after a failure at index 1", got)
	}
}

// TestForEachRunsAllOnSuccess checks every index runs exactly once at
// several pool widths (including widths above n).
func TestForEachRunsAllOnSuccess(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		sw := NewSweep(workers)
		const n = 23
		counts := make([]atomic.Int64, n)
		if err := sw.forEach(context.Background(), n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestSweepSessionCache: two runs of the same benchmark×level share one
// session (one compile), and the second configuration reuses the first's
// baseline simulation.
func TestSweepSessionCache(t *testing.T) {
	sw := NewSweep(1)
	b := benchForTest(t)
	s1, err := sw.Session(b, testLevel)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sw.Session(b, testLevel)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("same benchmark×level produced two distinct sessions")
	}
	st, _ := sw.Stats()
	if st.SessionMisses != 1 || st.SessionHits != 1 {
		t.Fatalf("session cache hits/misses = %d/%d, want 1/1", st.SessionHits, st.SessionMisses)
	}

	// A static and a profiled run of the cell must share the baseline.
	if _, err := sw.RunBenchmark(context.Background(), b, testLevel, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.RunBenchmark(context.Background(), b, testLevel, core.Options{UseProfile: true}); err != nil {
		t.Fatal(err)
	}
	st, _ = sw.Stats()
	if st.Stages.Baseline.Misses != 1 {
		t.Fatalf("baseline simulated %d times across static+profiled, want 1", st.Stages.Baseline.Misses)
	}
	if st.Stages.Totals().Hits == 0 {
		t.Fatal("static+profiled pair reported zero stage reuses")
	}
	if st.Stages.SimRuns != 2 {
		// One shared baseline + one optimized run: static and profiled
		// agree on crc32's placement, so the transformed image and its
		// simulation are shared too.
		t.Fatalf("sim runs = %d, want 2", st.Stages.SimRuns)
	}
}

// TestSweepConcurrentSessionCreation hammers the session cache from many
// goroutines; run under -race this pins the cache's thread safety, and
// the assertion pins single-compilation.
func TestSweepConcurrentSessionCreation(t *testing.T) {
	sw := NewSweep(4)
	b := benchForTest(t)
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sw.Session(b, testLevel); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st, _ := sw.Stats(); st.SessionMisses != 1 {
		t.Fatalf("concurrent Session calls compiled %d times, want 1", st.SessionMisses)
	}
}
