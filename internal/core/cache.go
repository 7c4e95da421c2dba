package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// This file is the session-cache contract the long-running service
// (internal/service) and the sweep drivers (internal/evaluation) share.
// A Session already memoizes every pipeline stage on exactly that
// stage's inputs; what a cross-request cache adds is the outermost key —
// which program the stages belong to. Content-addressing that key (a
// hash of the source text and compile knobs, not a file name or tenant
// id) is what lets identical stage inputs from different requests and
// different tenants land on one shared memo.

// SessionKey content-addresses one compiled pipeline input: a SHA-256
// over the length-prefixed parts (source text, optimization level, and
// any further knobs that reach the compiler). Two requests with the same
// parts — regardless of tenant, file name, or arrival order — get the
// same key and therefore the same Session, whose per-stage memos are
// keyed on exactly the remaining knobs (placement, budgets, tracing).
// The hex form is stable across processes, so it can serve as an
// external cache key or an ETag.
func SessionKey(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SessionCache is a cross-request store of Sessions, content-addressed
// by SessionKey. Implementations must be safe for concurrent use and
// must run build at most once per live key (single-flight), so that two
// concurrent requests with identical stage inputs share one stage
// execution. internal/service.Store is the bounded-LRU implementation;
// evaluation.Sweep delegates its per-benchmark session map to one when
// its Cache field is set, which is how a daemon's sweep endpoint shares
// compiles and baseline runs with its single-shot endpoint.
type SessionCache interface {
	// GetSession returns the session for key, building (and retaining)
	// it on first use. A failed build is not retained: the error is
	// returned to every waiter of that flight, and a later request with
	// the same key retries.
	GetSession(key string, build func() (*Session, error)) (*Session, error)
	// CacheStats snapshots the cache's hit/miss/eviction ledger.
	CacheStats() CacheStats
}

// CacheStats is the session-granular ledger of a SessionCache: how many
// lookups were served from a live entry, how many had to build, and how
// many entries the size bound pushed out.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Entries is the current number of live sessions.
	Entries int `json:"entries"`
}

// CacheTotals collapses a ledger to the one number operators watch: the
// cumulative hit rate across every cache layer (session lookups plus all
// per-stage memos). `beebsbench -json` and the daemon's /statsz both
// emit it, so the sweep ledger and the service ledger share one schema.
type CacheTotals struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// add accumulates one stage's counters; finish derives the rate once
// every layer is in.
func (t *CacheTotals) add(s StageStats) {
	t.Hits += s.Hits
	t.Misses += s.Misses
}

// finish derives the hit rate from the accumulated counters.
func (t *CacheTotals) finish() {
	if n := t.Hits + t.Misses; n > 0 {
		t.HitRate = float64(t.Hits) / float64(n)
	}
}

// Totals sums every stage's hit/miss counters into one cumulative
// ledger line. Callers layering a session cache on top (evaluation.
// SweepStats, the service /statsz) add their session-level counters
// before reading the rate; NewCacheTotals does both at once.
func (st SessionStats) Totals() CacheTotals {
	var t CacheTotals
	for _, s := range []StageStats{
		st.Baseline, st.CFG, st.Freq, st.Model, st.Solve,
		st.Transform, st.OptRun, st.Optimize, st.Bounds,
	} {
		t.add(s)
	}
	if st.Intermit != nil {
		t.add(*st.Intermit)
	}
	t.finish()
	return t
}

// NewCacheTotals folds session-level lookup counters (hits/misses of a
// session cache) together with the per-stage counters of the sessions
// behind them into one cumulative totals line.
func NewCacheTotals(sessionHits, sessionMisses uint64, stages SessionStats) CacheTotals {
	t := stages.Totals()
	t.Hits += sessionHits
	t.Misses += sessionMisses
	t.finish()
	return t
}
