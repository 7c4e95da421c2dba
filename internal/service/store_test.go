package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/evaluation"
	"repro/internal/mcc"
	"repro/internal/sim"
)

// buildSession compiles a real (tiny) benchmark session — store tests
// exercise the same artifact type production uses.
func buildSession(t *testing.T, bench string) func() (*core.Session, error) {
	t.Helper()
	b := beebs.Get(bench)
	if b == nil {
		t.Fatalf("benchmark %q missing", bench)
	}
	return func() (*core.Session, error) { return evaluation.NewSweep(1).Session(b, mcc.O2) }
}

func TestStoreSingleFlight(t *testing.T) {
	s := core.NewStore(8)
	var builds atomic.Int32
	inner := buildSession(t, "crc32")
	build := func() (*core.Session, error) {
		builds.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the race window
		return inner()
	}

	const callers = 16
	sessions := make([]*core.Session, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := s.GetSession("k", build)
			if err != nil {
				t.Errorf("GetSession: %v", err)
				return
			}
			sessions[i] = sess
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times for one key, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if sessions[i] != sessions[0] {
			t.Fatalf("caller %d got a different session instance", i)
		}
	}
	cs := s.Stats().Cache
	if cs.Misses != 1 || cs.Hits != callers-1 || cs.Entries != 1 {
		t.Fatalf("ledger = %+v, want 1 miss, %d hits, 1 entry", cs, callers-1)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := core.NewStore(2)
	get := func(key string) {
		t.Helper()
		if _, err := s.GetSession(key, buildSession(t, "crc32")); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("a") // refresh a: b is now the LRU victim
	get("c") // evicts b
	cs := s.Stats().Cache
	if cs.Entries != 2 || cs.Evictions != 1 {
		t.Fatalf("ledger = %+v, want 2 entries and 1 eviction", cs)
	}
	// b must rebuild (a fresh miss), a must still hit.
	before := cs
	get("a")
	get("b")
	cs = s.Stats().Cache
	if cs.Hits != before.Hits+1 {
		t.Fatalf("a should have hit: %+v", cs)
	}
	if cs.Misses != before.Misses+1 {
		t.Fatalf("b should have rebuilt after eviction: %+v", cs)
	}
	if cs.Evictions != 2 {
		t.Fatalf("rebuilding b should have evicted the next victim: %+v", cs)
	}
}

// TestStoreEvictionKeepsCumulativeStats: evicting a session must fold
// its stage counters into the retained ledger, not lose them.
func TestStoreEvictionKeepsCumulativeStats(t *testing.T) {
	s := core.NewStore(1)
	sess, err := s.GetSession("a", buildSession(t, "crc32"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Baseline(t.Context()); err != nil {
		t.Fatal(err)
	}
	work := sess.Stats()
	if work.Baseline.Misses == 0 {
		t.Fatal("baseline run did not register in the session ledger")
	}
	if _, err := s.GetSession("b", buildSession(t, "sha")); err != nil { // evicts a
		t.Fatal(err)
	}
	agg := s.Stats().Stages
	if agg.Baseline.Misses < work.Baseline.Misses {
		t.Fatalf("evicted session's stage counters vanished: agg=%+v work=%+v", agg, work)
	}
}

// TestStoreStageStatsIdempotentWithIntermit: once an evicted session
// that replayed a power trace sits in the retained ledger, reading the
// cumulative stats must not fold the live sessions into it — two reads
// with no work in between agree.
func TestStoreStageStatsIdempotentWithIntermit(t *testing.T) {
	s := core.NewStore(1)
	traced := func(key, bench string) {
		t.Helper()
		sess, err := s.GetSession(key, buildSession(t, bench))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Optimize(t.Context(), core.Options{PowerTrace: sim.ProfileSteady}); err != nil {
			t.Fatal(err)
		}
	}
	traced("a", "crc32")
	traced("b", "crc32") // evicts a, whose ledger has an intermit stage
	// Compare values, not pointers: a shared Intermit would make two
	// snapshots agree while both drift.
	read := func() core.StageStats {
		t.Helper()
		st := s.Stats().Stages
		if st.Intermit == nil {
			t.Fatalf("intermit stage missing from the cumulative ledger: %+v", st)
		}
		return *st.Intermit
	}
	first := read()
	second := read()
	if first != second {
		t.Fatalf("Stats drifted between reads: intermit %+v then %+v", first, second)
	}
	if first.Misses < 2 {
		t.Fatalf("intermit misses = %d, want a replay from each session", first.Misses)
	}
}

func TestStoreFailedBuildNotRetained(t *testing.T) {
	s := core.NewStore(4)
	boom := errors.New("boom")
	var builds int
	_, err := s.GetSession("k", func() (*core.Session, error) {
		builds++
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if cs := s.Stats().Cache; cs.Entries != 0 {
		t.Fatalf("failed build was retained: %+v", cs)
	}
	// A later identical request retries the build instead of replaying
	// the stale failure.
	sess, err := s.GetSession("k", func() (*core.Session, error) {
		builds++
		return buildSession(t, "crc32")()
	})
	if err != nil || sess == nil {
		t.Fatalf("retry failed: %v", err)
	}
	if builds != 2 {
		t.Fatalf("builds = %d, want 2 (fail, then retry)", builds)
	}
}

// TestStoreNeverEvictsInFlight pins the single-flight guarantee under
// capacity pressure: an entry mid-build is not an eviction candidate,
// so a concurrent identical request can never start a second build.
func TestStoreNeverEvictsInFlight(t *testing.T) {
	s := core.NewStore(1)
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.GetSession("slow", func() (*core.Session, error) {
			close(started)
			<-release
			return buildSession(t, "crc32")()
		})
	}()
	<-started
	// Overflow the store while the build is in flight.
	for i := 0; i < 3; i++ {
		if _, err := s.GetSession(fmt.Sprintf("k%d", i), buildSession(t, "crc32")); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	wg.Wait()
	// The slow entry must have survived to completion: a lookup now hits.
	before := s.Stats().Cache
	if _, err := s.GetSession("slow", func() (*core.Session, error) {
		t.Error("in-flight entry was evicted: build ran twice")
		return buildSession(t, "crc32")()
	}); err != nil {
		t.Fatal(err)
	}
	if cs := s.Stats().Cache; cs.Hits != before.Hits+1 {
		t.Fatalf("slow key did not hit after overflow: %+v", cs)
	}
}
