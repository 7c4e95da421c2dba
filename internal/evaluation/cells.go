package evaluation

import (
	"context"

	"repro/internal/beebs"
	"repro/internal/core"
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

// RunCells runs every cell across the sweep's bounded worker pool and
// delivers each outcome through done. Unlike the figure drivers — where
// the lowest-indexed ordinary failure stops dispatch — cells are
// independent requests: every one is attempted, and each job runs its
// cell through RunBenchmark under its own panic isolation, so a failing
// or panicking cell forfeits only its own result and its error reaches
// done instead of the other cells.
//
// done is called exactly once per cell. Calls for dispatched cells come
// from worker goroutines, possibly concurrently (callers synchronize or
// funnel into a channel); cells the pool never dispatched — the context
// was cancelled first — receive the cancellation error sequentially
// after the pool has drained. When done is invoked, the cell's result is
// fully built, so publishing it (e.g. streaming the row) is safe.
func (sw *Sweep) RunCells(ctx context.Context, cells []Cell, done func(i int, r *Run, err error)) {
	dispatched := make([]bool, len(cells))
	// Every job delivers its own outcome and returns nil, so the pool's
	// aggregate error holds nothing done has not seen, or will see below:
	// the cancellation that stopped dispatch.
	_ = sw.forEach(ctx, len(cells), func(i int) error {
		dispatched[i] = true
		var r *Run
		err := Isolated(func() (err error) {
			r, err = sw.RunBenchmark(ctx, cells[i].Bench, cells[i].Level, cells[i].Opts)
			return err
		})
		done(i, r, err)
		return nil
	})
	for i := range cells {
		if !dispatched[i] {
			done(i, nil, ctx.Err())
		}
	}
}
