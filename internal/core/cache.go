package core

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
)

// This file is the session cache the long-running service
// (internal/service) and the sweep drivers (internal/evaluation) share.
// A Session already memoizes every pipeline stage on exactly that
// stage's inputs; what the cache adds is the outermost key — which
// program the stages belong to. Content-addressing that key (a
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

// DefaultMaxSessions bounds a Store built with a non-positive size.
// Sessions retain compiled programs, baseline simulations and solved
// placements; ~64 programs is a few hundred MB worst-case on the
// BEEBS-sized inputs the daemon serves, and the LRU keeps the working
// set hot under churn.
const DefaultMaxSessions = 64

// Store is the one session cache: a bounded, least-recently-used map
// from SessionKey content addresses to live Sessions. The daemon
// (internal/service) holds one for its lifetime and hands it to the
// sweeps it runs; an evaluation.Sweep without one builds its own,
// unbounded, so a sweep never evicts.
//
// Builds are single-flight per key: the first caller computes, every
// concurrent identical caller blocks on that computation and shares the
// (immutable) result — the cross-request analogue of the Session's own
// stage memos. A failed build is not retained, so a transiently broken
// request cannot poison the key for later callers.
type Store struct {
	mu      sync.Mutex
	max     int
	entries map[string]*storeEntry
	lru     *list.List // front = most recently used

	// ledger holds the lookup counters and, in Stages and Solver, the
	// counters of evicted sessions (snapshotted at eviction), so the
	// ledger stays cumulative over the store's lifetime rather than
	// resetting when the LRU turns over.
	ledger StoreStats
}

type storeEntry struct {
	key  string
	elem *list.Element
	once sync.Once
	sess *Session
	err  error
	// built is set (under the store lock) once the flight finished
	// successfully; only built entries are eviction candidates, so a
	// key's single-flight guarantee holds even under capacity pressure.
	built bool
}

// NewStore returns a store retaining at most max sessions (<= 0 means
// DefaultMaxSessions).
func NewStore(max int) *Store {
	if max <= 0 {
		max = DefaultMaxSessions
	}
	return &Store{
		max:     max,
		entries: make(map[string]*storeEntry),
		lru:     list.New(),
	}
}

// GetSession returns the session for key, building (and retaining) it
// on first use, at most once per live key. A failed build is returned
// to every waiter of that flight, and a later call with the same key
// retries.
func (s *Store) GetSession(key string, build func() (*Session, error)) (*Session, error) {
	s.mu.Lock()
	e := s.entries[key]
	if e != nil {
		s.ledger.Cache.Hits++
		s.lru.MoveToFront(e.elem)
	} else {
		s.ledger.Cache.Misses++
		e = &storeEntry{key: key}
		e.elem = s.lru.PushFront(e)
		s.entries[key] = e
	}
	s.mu.Unlock()

	e.once.Do(func() {
		e.sess, e.err = build()
		s.mu.Lock()
		defer s.mu.Unlock()
		if e.err != nil {
			// Drop the failed flight: waiters of this flight still see
			// the error, but the next request with this key retries.
			if s.entries[key] == e {
				delete(s.entries, key)
				s.lru.Remove(e.elem)
			}
			return
		}
		e.built = true
		s.evictLocked()
	})
	return e.sess, e.err
}

// evictLocked trims least-recently-used built entries until the store is
// within its bound. In-flight entries are never evicted (that would
// break single-flight); if every entry is mid-build the store briefly
// exceeds its bound and settles as flights land.
func (s *Store) evictLocked() {
	for len(s.entries) > s.max {
		victim := (*storeEntry)(nil)
		for el := s.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*storeEntry); e.built {
				victim = e
				break
			}
		}
		if victim == nil {
			return
		}
		delete(s.entries, victim.key)
		s.lru.Remove(victim.elem)
		s.ledger.Cache.Evictions++
		// Snapshot the evicted session's ledger so the cumulative totals
		// survive the eviction. A request still holding the session
		// finishes fine — sessions are self-contained — but work it does
		// after this snapshot is not re-counted. The warm-state gauge is
		// not carried over: the store no longer holds those states.
		solver := victim.sess.SolverStats()
		solver.WarmStateBytes = 0
		s.ledger.Stages.Add(victim.sess.Stats())
		s.ledger.Solver.Add(solver)
	}
}

// StoreStats is one read of a Store's ledger: the session lookups, and
// the stage and warm-solver counters summed over every session the
// store holds plus those it has evicted.
type StoreStats struct {
	Cache  CacheStats
	Stages SessionStats
	Solver SolverStats
}

func (st *StoreStats) add(sess *Session) {
	st.Stages.Add(sess.Stats())
	st.Solver.Add(sess.SolverStats())
}

// Stats reads the whole ledger in one pass over the store.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	out := s.ledger
	out.Cache.Entries = len(s.entries)
	live := make([]*Session, 0, len(s.entries))
	for _, e := range s.entries {
		if e.built {
			live = append(live, e.sess)
		}
	}
	s.mu.Unlock()
	for _, sess := range live {
		out.add(sess)
	}
	return out
}

// CacheStats is the session-granular ledger of a Store: how many
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
// ledger line; StoreStats.Totals adds the session lookups on top.
func (st SessionStats) Totals() CacheTotals {
	var t CacheTotals
	for _, s := range []StageStats{
		st.Baseline, st.CFG, st.Freq, st.Model, st.Solve,
		st.Transform, st.OptRun, st.Optimize,
	} {
		t.add(s)
	}
	if st.Intermit != nil {
		t.add(*st.Intermit)
	}
	t.finish()
	return t
}

// Totals folds the store's session lookups together with the per-stage
// counters of the sessions behind them into one cumulative totals line.
func (st StoreStats) Totals() CacheTotals {
	t := st.Stages.Totals()
	t.Hits += st.Cache.Hits
	t.Misses += st.Cache.Misses
	t.finish()
	return t
}
