package evaluation

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/mcc"
)

func TestRunCellsDeliversEveryCell(t *testing.T) {
	sw := NewSweep(2)
	cells := []Cell{
		{Bench: beebs.Get("crc32"), Level: mcc.O2},
		{Bench: beebs.Get("crc32"), Level: mcc.O2, Opts: core.Options{Xlimit: 1.5}},
		{Bench: beebs.Get("sha"), Level: mcc.Os},
	}
	var mu sync.Mutex
	got := make(map[int]*Run)
	sw.RunCells(context.Background(), cells, func(i int, r *Run, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			t.Errorf("cell %d: %v", i, err)
			return
		}
		if _, dup := got[i]; dup {
			t.Errorf("cell %d delivered twice", i)
		}
		got[i] = r
	})
	if len(got) != len(cells) {
		t.Fatalf("delivered %d of %d cells", len(got), len(cells))
	}
	for i, cell := range cells {
		if got[i].Bench != cell.Bench.Name || got[i].Level != cell.Level {
			t.Fatalf("cell %d labelled %s/%v, want %s/%v", i, got[i].Bench, got[i].Level, cell.Bench.Name, cell.Level)
		}
	}
	// Cells 0 and 1 share a session (same bench+level, different knobs).
	st, _ := sw.Stats()
	if st.SessionMisses != 2 || st.SessionHits != 1 {
		t.Fatalf("session ledger = %+v, want 2 misses / 1 hit", st)
	}
}

func TestRunCellsCancelledCellsStillCalledBack(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before dispatch: no cell can run
	sw := NewSweep(1)
	cells := []Cell{
		{Bench: beebs.Get("crc32"), Level: mcc.O2},
		{Bench: beebs.Get("sha"), Level: mcc.O2},
	}
	calls := 0
	sw.RunCells(ctx, cells, func(i int, r *Run, err error) {
		calls++
		if r != nil {
			t.Errorf("cell %d produced a result after cancellation", i)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cell %d error = %v, want context.Canceled", i, err)
		}
	})
	if calls != len(cells) {
		t.Fatalf("done ran %d times, want exactly %d (one per cell)", calls, len(cells))
	}
}

func TestRunCellsBadCellForfeitsOnlyItself(t *testing.T) {
	// Cell 1 carries an unknown solver: its pipeline run fails, but the
	// neighbouring cells still deliver results.
	sw := NewSweep(2)
	cells := []Cell{
		{Bench: beebs.Get("crc32"), Level: mcc.O2},
		{Bench: beebs.Get("crc32"), Level: mcc.O2, Opts: core.Options{Solver: "quantum"}},
		{Bench: beebs.Get("sha"), Level: mcc.O2},
	}
	var mu sync.Mutex
	errsByCell := make(map[int]error)
	runs := 0
	sw.RunCells(context.Background(), cells, func(i int, r *Run, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errsByCell[i] = err
			return
		}
		runs++
	})
	if runs != 2 {
		t.Fatalf("healthy cells delivered %d results, want 2", runs)
	}
	if len(errsByCell) != 1 || errsByCell[1] == nil {
		t.Fatalf("failure map = %v, want exactly cell 1", errsByCell)
	}
}

func TestNewSweepStatsTotals(t *testing.T) {
	var stages core.SessionStats
	stages.Baseline = core.StageStats{Hits: 3, Misses: 1}
	stages.Solve = core.StageStats{Hits: 5, Misses: 2}
	st := NewSweepStats(core.StoreStats{Cache: core.CacheStats{Hits: 4, Misses: 2}, Stages: stages})
	wantHits := uint64(4 + 3 + 5)
	wantMisses := uint64(2 + 1 + 2)
	if st.Totals.Hits != wantHits || st.Totals.Misses != wantMisses {
		t.Fatalf("totals = %+v, want %d hits / %d misses", st.Totals, wantHits, wantMisses)
	}
	wantRate := float64(wantHits) / float64(wantHits+wantMisses)
	if st.Totals.HitRate != wantRate {
		t.Fatalf("hit rate = %v, want %v", st.Totals.HitRate, wantRate)
	}
	empty := NewSweepStats(core.StoreStats{})
	if empty.Totals.HitRate != 0 {
		t.Fatalf("empty ledger hit rate = %v, want 0", empty.Totals.HitRate)
	}
}

// TestRunCellsInlineSourcesKeepTheirPrograms: two inline-source cells
// left at the default name are different programs, so each runs on its
// own compile. Sessions keyed on the name alone would hand the second
// cell the first cell's program and baseline.
func TestRunCellsInlineSourcesKeepTheirPrograms(t *testing.T) {
	var cells []Cell
	for _, f := range []string{"biquad.c", "checksum.c"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "kernels", f))
		if err != nil {
			t.Fatal(err)
		}
		cell, err := (&Request{Source: string(src)}).Resolve()
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell)
	}
	if cells[0].Bench.Name != cells[1].Bench.Name {
		t.Fatalf("cells named %q and %q, want one shared default name", cells[0].Bench.Name, cells[1].Bench.Name)
	}
	ctx := context.Background()
	got := make([]*Run, len(cells))
	NewSweep(2).RunCells(ctx, cells, func(i int, r *Run, err error) {
		if err != nil {
			t.Errorf("cell %d: %v", i, err)
		}
		got[i] = r
	})
	if t.Failed() {
		t.FailNow()
	}
	for i, cell := range cells {
		alone, err := NewSweep(1).RunBenchmark(ctx, cell.Bench, cell.Level, cell.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := got[i].Report.Baseline.Cycles, alone.Report.Baseline.Cycles; g != w {
			t.Errorf("cell %d baseline = %d cycles in the sweep, %d alone", i, g, w)
		}
	}
	if got[0].Report.Baseline.Cycles == got[1].Report.Baseline.Cycles {
		t.Errorf("both programs report a %d-cycle baseline", got[0].Report.Baseline.Cycles)
	}
}
