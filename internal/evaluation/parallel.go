package evaluation

import (
	"context"
	"errors"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/mcc"
)

// Sweep carries the cross-run machinery shared by the experiment
// drivers: the worker-pool width and a store of core.Session pipelines,
// one per program × level, so every experiment run through one Sweep
// shares compiles, baseline simulations, CFGs, frequency estimates and
// models instead of redoing them per configuration. The zero value (or
// NewSweep(1)) runs serially.
//
// There is deliberately no package-global worker count: parallelism is
// a property of the Sweep a caller owns, so tests and the CLIs never
// mutate shared state to configure it.
type Sweep struct {
	// Workers bounds the worker pool used by the sweep drivers
	// (Figure5, RunAggregate, TopSavers, Figure1). 0 or 1 runs
	// serially. Every sweep writes results into index-addressed slots,
	// so the output ordering — and the numbers — are identical at any
	// worker count.
	Workers int

	// Prune lets BestConfig skip simulating candidates whose static
	// lower energy bound already exceeds the incumbent's simulated
	// energy. Off by default; the bound is admissible, so enabling it
	// never changes which configuration wins — only how many cells are
	// simulated (see SessionStats.PruneChecked/PruneSkipped).
	Prune bool

	// Store holds the sweep's sessions, content-addressed on
	// core.SessionKey(source, level): two cells share a session exactly
	// when they compile the same program at the same level. The daemon
	// (internal/service) sets its cross-request store so sweep requests
	// and single-shot requests hit one shared memo; left nil, the sweep
	// builds its own on first use, unbounded, so it never evicts.
	Store *core.Store

	// ColdSolve disables warm-started solves: the sweep's sessions are
	// built without core.SessionConfig.WarmSolve, so every constraint
	// point is solved from scratch. The placements and every emitted
	// number are identical either way (warm starts only change solver
	// effort); the flag exists so tests and `tradeoff -cold` can prove
	// that byte-for-byte and so the warm speedup can be benchmarked
	// against a true cold baseline. A session already in a shared Store
	// is returned as it was built; the daemon never mixes the two.
	ColdSolve bool

	// NoFuse builds the sweep's sessions with superblock fusion disabled
	// (core.SessionConfig.NoFuse → sim.Machine.NoFuse): every simulated
	// instruction dispatches as a length-1 descriptor through the same
	// executor. Outputs are byte-identical either way — the differential
	// tests and `beebsbench -nofuse` exist to prove exactly that at the
	// fusion boundaries. As with ColdSolve, a session already in a
	// shared Store may have been built with the other setting; the
	// daemon never mixes the two.
	NoFuse bool

	// Shard restricts the sweep drivers (Figure5, RunAggregate,
	// TopSavers, Figure9) to the cells this shard owns: cell j runs — and
	// appears in the output — iff j % Shard.Count == Shard.Index, with
	// cells enumerated in the driver's fixed order. The zero value runs
	// everything. Fragments produced by complementary shards merge back
	// into the exact unsharded document (MergeShards, `beebsbench
	// -merge`).
	Shard Shard

	mu sync.Mutex // guards the lazy Store
}

// NewSweep returns a Sweep running at most workers jobs concurrently.
func NewSweep(workers int) *Sweep { return &Sweep{Workers: workers} }

// NewSession compiles the benchmark at the given level and wraps the
// program in a fresh staged pipeline with the default board profile and
// memory map. Solves are cold: single-shot callers have no constraint
// sweep to chain warm state across.
func NewSession(b *beebs.Benchmark, level mcc.OptLevel) (*core.Session, error) {
	return newSession(b, level, false, false)
}

// NewWarmSession is NewSession with warm-started solves enabled: solves
// at neighbouring constraint points reuse each other's optima, bounds
// and bases (see core.SessionConfig.WarmSolve). The sweep drivers and
// the daemon build their sessions through it; placements and reported
// numbers match NewSession's exactly.
func NewWarmSession(b *beebs.Benchmark, level mcc.OptLevel) (*core.Session, error) {
	return newSession(b, level, true, false)
}

func newSession(b *beebs.Benchmark, level mcc.OptLevel, warm, noFuse bool) (*core.Session, error) {
	prog, err := mcc.Compile(b.Source, level)
	if err != nil {
		return nil, err
	}
	return core.NewSession(prog, core.SessionConfig{WarmSolve: warm, NoFuse: noFuse})
}

// Session returns the sweep's shared pipeline for one benchmark×level
// cell, compiling it on first use.
func (sw *Sweep) Session(b *beebs.Benchmark, level mcc.OptLevel) (*core.Session, error) {
	return sw.store().GetSession(core.SessionKey(b.Source, level.String()),
		func() (*core.Session, error) { return newSession(b, level, !sw.ColdSolve, sw.NoFuse) })
}

// store returns the sweep's session store, building an unbounded one on
// first use.
func (sw *Sweep) store() *core.Store {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.Store == nil {
		sw.Store = core.NewStore(math.MaxInt)
	}
	return sw.Store
}

// SweepStats reports how much pipeline work a Sweep reused: the session
// (compile) cache, the per-stage counters aggregated over every session
// the sweep touched, and the cumulative totals across both layers. It is
// also the `session_stats` ledger schema shared by `beebsbench -json`
// and the daemon's /statsz, so sweep-local and cross-request reuse read
// the same way.
type SweepStats struct {
	SessionHits   uint64            `json:"session_hits"`
	SessionMisses uint64            `json:"session_misses"`
	Stages        core.SessionStats `json:"stages"`
	// Totals folds the session lookups and every per-stage counter into
	// one cumulative hits/misses/hit-rate line — the number the service
	// ledger and the per-sweep ledger can compare directly.
	Totals core.CacheTotals `json:"totals"`
}

// NewSweepStats assembles the shared ledger from one read of a session
// store. Sweep.Stats and the daemon's /statsz both build their documents
// through it.
func NewSweepStats(st core.StoreStats) SweepStats {
	return SweepStats{
		SessionHits:   st.Cache.Hits,
		SessionMisses: st.Cache.Misses,
		Stages:        st.Stages,
		Totals:        st.Totals(),
	}
}

// Stats snapshots the sweep's reuse counters and the warm-start solver
// ledger of its sessions — the `session_stats` and `solver_stats`
// sections of `beebsbench -json`.
func (sw *Sweep) Stats() (SweepStats, core.SolverStats) {
	st := sw.store().Stats()
	return NewSweepStats(st), st.Solver
}

// Isolated runs fn with the sweep workers' panic isolation: a panic is
// converted into an *errs.PanicError carrying the goroutine's stack, so
// one broken job cannot take down the caller (or the process). The
// daemon's request handlers run every pipeline execution through it —
// the same boundary the sweep pool uses, so a pathological request
// costs one 500, not the server.
func Isolated(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &errs.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// runIsolated is Isolated over one indexed sweep job.
func runIsolated(fn func(i int) error, i int) error {
	return Isolated(func() error { return fn(i) })
}

// forEach runs fn(0..n-1) across a pool of at most sw.Workers goroutines.
// Failures are aggregated into an *errs.SweepError in index order, so
// errors.Is/As reach every per-item error and the same failures report
// identically at any worker count.
//
// Two failure modes are deliberately distinct:
//
//   - An ordinary error stops dispatch: unstarted jobs above the lowest
//     failing index are neither dispatched nor run (in-flight ones
//     finish); jobs below it still run, so the lowest-indexed failure is
//     always the leading one reported.
//   - A panic is isolated: it becomes an *errs.PanicError for that item
//     and every other item still runs — a single pathological cell
//     forfeits only its own result.
//
// Cancelling ctx stops dispatch at the next boundary; undispatched items
// simply never run, and the cancellation is reported for the first item
// that was skipped.
func (sw *Sweep) forEach(ctx context.Context, n int, fn func(i int) error) error {
	w := sw.Workers
	if w > n {
		w = n
	}
	itemErrs := make([]error, n)
	skippedAt := n // first index never dispatched due to cancellation
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				skippedAt = i
				break
			}
			err := runIsolated(fn, i)
			if err == nil {
				continue
			}
			itemErrs[i] = err
			var pe *errs.PanicError
			if !errors.As(err, &pe) {
				break
			}
		}
		return collectSweepError(n, itemErrs, skippedAt, ctx)
	}

	// firstFail is the lowest ordinarily-failing index seen so far
	// (n = none). Only jobs above it are skippable: any lower job could
	// still fail with a lower index and must get its chance to run.
	// Panics do not advance it — they stop nothing.
	var firstFail atomic.Int64
	firstFail.Store(int64(n))
	idx := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if int64(i) > firstFail.Load() {
					continue
				}
				err := runIsolated(fn, i)
				if err == nil {
					continue
				}
				itemErrs[i] = err
				var pe *errs.PanicError
				if errors.As(err, &pe) {
					continue
				}
				for {
					cur := firstFail.Load()
					if int64(i) >= cur || firstFail.CompareAndSwap(cur, int64(i)) {
						break
					}
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		// Dispatch in order; once a failure is known, everything not
		// yet dispatched has a higher index and can be dropped.
		if int64(i) > firstFail.Load() {
			break
		}
		if ctx.Err() != nil {
			skippedAt = i
			break
		}
		idx <- i
	}
	close(idx)
	wg.Wait()
	return collectSweepError(n, itemErrs, skippedAt, ctx)
}

// collectSweepError folds per-item errors (plus a possible cancellation
// cut-off) into one *errs.SweepError in index order, or nil if every
// item succeeded.
func collectSweepError(n int, itemErrs []error, skippedAt int, ctx context.Context) error {
	var items []errs.ItemError
	for i, err := range itemErrs {
		if err != nil {
			items = append(items, errs.ItemError{Index: i, Err: err})
		}
	}
	if skippedAt < n && itemErrs[skippedAt] == nil {
		items = append(items, errs.ItemError{Index: skippedAt, Err: ctx.Err()})
		sort.Slice(items, func(a, b int) bool { return items[a].Index < items[b].Index })
	}
	if len(items) == 0 {
		return nil
	}
	return &errs.SweepError{Total: n, Items: items}
}
