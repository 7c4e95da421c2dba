package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/beebs"
	"repro/internal/mcc"
)

// TestWarmSessionHeapPerPoint runs optimizes of int_matmult O2 at 2000
// distinct Rspare values, shuffled over [0.4, 1) of the derived budget as
// a daemon's writes spread them, through one warm session. What a point
// keeps is its own model view, solve, analysis and report: the
// transformed program and image are per placement, and the warm registry
// keeps a few donors per family. Before both were bounded the session
// grew by about 108 KB per point (211 MB over 2000 points, on 65
// placements); the ceiling is 4 MB for the placements plus 6 KB a point.
func TestWarmSessionHeapPerPoint(t *testing.T) {
	n := 2000
	if raceEnabled {
		n = 200
	}
	prog, err := mcc.Compile(beebs.Get("int_matmult").Source, mcc.O2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(prog, SessionConfig{WarmSolve: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Optimize(ctx, Options{}); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	placements := map[string]bool{}
	for _, k := range rand.New(rand.NewSource(1)).Perm(n) {
		rep, err := s.Optimize(ctx, Options{Rspare: float64(1 + k)})
		if err != nil {
			t.Fatal(err)
		}
		placements[canonicalPlacement(rep.Placement.InRAM)] = true
	}
	growth := liveHeap() - before
	runtime.KeepAlive(s)
	t.Logf("%d points on %d placements: live heap +%.1f MB (%.1f KB per point)",
		n, len(placements), float64(growth)/(1<<20), float64(growth)/1024/float64(n))
	if ceiling := int64(4<<20 + 6<<10*n); growth > ceiling {
		t.Errorf("live heap grew %d bytes over %d points, want at most %d", growth, n, ceiling)
	}
	if st := s.Stats().Transform; st.Misses != uint64(n+1) {
		t.Errorf("transform ledger %+v, want one miss per budget (%d)", st, n+1)
	}
	heldStates(t, s)
}

// liveHeap is the heap still reachable after full collections: the
// second one empties what sync.Pools kept through the first.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
