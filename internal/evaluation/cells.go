package evaluation

import (
	"context"
	"errors"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/mcc"
)

// Cell is one item of an ad-hoc sweep: a benchmark (built-in or a
// synthetic one wrapping inline source), an optimization level, and the
// pipeline knobs. Request.Resolve builds one from every surface's input.
type Cell struct {
	Bench *beebs.Benchmark
	Level mcc.OptLevel
	Opts  core.Options
}

// RunCells runs every cell across the sweep's bounded, panic-isolated
// worker pool and delivers each outcome through done. Unlike the figure
// drivers — where the lowest-indexed ordinary failure stops dispatch —
// cells are independent requests: every one is attempted, a failing or
// panicking cell forfeits only its own result, and its error reaches
// done instead of the other cells.
//
// done is called exactly once per cell. Calls for completed cells come
// from worker goroutines, possibly concurrently (callers synchronize or
// funnel into a channel); cells the pool never dispatched — the context
// was cancelled first — receive their cancellation error sequentially
// after the pool has drained. When done is invoked, the cell's result is
// fully built, so publishing it (e.g. streaming the row) is safe.
func (sw *Sweep) RunCells(ctx context.Context, cells []Cell, done func(i int, r *Run, err error)) {
	delivered := make([]bool, len(cells))
	err := sw.forEach(ctx, len(cells), func(i int) error {
		r, rerr := sw.RunBenchmark(ctx, cells[i].Bench, cells[i].Level, cells[i].Opts)
		delivered[i] = true
		done(i, r, rerr)
		return nil
	})
	// Cells the pool never completed still owe a callback: ones skipped
	// by cancellation, and ones whose worker panicked before the job
	// could deliver (the pool converted that to an *errs.PanicError).
	perItem := make(map[int]error)
	var se *errs.SweepError
	if errors.As(err, &se) {
		for _, it := range se.Items {
			perItem[it.Index] = it.Err
		}
	}
	for i := range cells {
		if delivered[i] {
			continue
		}
		e := perItem[i]
		if e == nil {
			e = ctx.Err()
		}
		if e == nil {
			e = context.Canceled
		}
		done(i, nil, e)
	}
}
