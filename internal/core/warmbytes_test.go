package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/beebs"
	"repro/internal/lp"
	"repro/internal/mcc"
)

// TestWarmRegistryHoldsDenseStates runs 200 optimizes of int_matmult O2
// at distinct Rspare values through one warm session, as a daemon's
// writes do. Every answer must equal a cold session's, and the warm
// registry must hold whole dense end states, at most warmDonors per
// family, with warm_state_bytes the bytes of its distinct states.
func TestWarmRegistryHoldsDenseStates(t *testing.T) {
	prog, err := mcc.Compile(beebs.Get("int_matmult").Source, mcc.O2)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewSession(prog, SessionConfig{WarmSolve: true})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewSession(prog, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Rspare 201…400 in a seeded shuffle, so some solves tighten a donor
	// with the same optimum: warm proofs, which pass the donor's state
	// through and register it a second time.
	for _, k := range rand.New(rand.NewSource(1)).Perm(200) {
		rspare := float64(201 + k)
		w, err := warm.Optimize(ctx, Options{Rspare: rspare})
		if err != nil {
			t.Fatal(err)
		}
		// The cold side solves the same key and stops there: the
		// transform and simulation read nothing but the placement.
		key, err := cold.resolve(ctx, Options{Rspare: rspare})
		if err != nil {
			t.Fatal(err)
		}
		c, err := cold.solve(ctx, key.solve)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(w.Placement.InRAM, c.InRAM) || w.Placement.Outcome != c.Outcome || !c.Proven {
			t.Fatalf("rspare %v: warm placement %v (%+v), cold %v (%+v, proven %v)",
				rspare, w.Placement.InRAM, w.Placement.Outcome, c.InRAM, c.Outcome, c.Proven)
		}
		if w.Placement.Warm != nil && w.Placement.Warm.State != nil {
			t.Fatalf("rspare %v: the memoized result still holds the state the registry took over", rspare)
		}
	}

	held, dense := heldStates(t, warm)
	stats := warm.SolverStats()
	got := stats.WarmStateBytes
	t.Logf("%d distinct states held, %d warm proofs: warm_state_bytes %d, tableau cells %d bytes",
		len(held), stats.WarmProofs, got, dense)
	if len(held) == 0 || stats.WarmProofs == 0 {
		t.Fatalf("%d states held and %d warm proofs, want both", len(held), stats.WarmProofs)
	}
	for st := range held {
		if st.Bytes() < 8*st.Cells() {
			t.Errorf("registry holds a state of %d bytes, fewer than its %d tableau cells take", st.Bytes(), st.Cells())
		}
	}
}

// heldStates checks the warm registry's invariants — at most warmDonors
// points per family, and a byte gauge equal to the bytes of the distinct
// states the points hold — and returns those states with the bytes of
// their tableau cells.
func heldStates(t *testing.T, s *Session) (map[*lp.State]bool, int) {
	t.Helper()
	held, bytes, dense := map[*lp.State]bool{}, 0, 0
	s.warmIdx.mu.Lock()
	defer s.warmIdx.mu.Unlock()
	for fam, pts := range s.warmIdx.idx {
		if len(pts) > warmDonors {
			t.Errorf("family %+v holds %d points, want at most %d", fam, len(pts), warmDonors)
		}
		for _, pt := range pts {
			if st := pt.warm.State; st != nil && !held[st] {
				held[st] = true
				bytes += st.Bytes()
				dense += 8 * st.Cells()
			}
		}
	}
	if s.warmIdx.bytes != bytes {
		t.Errorf("warm_state_bytes %d, but the registry's distinct states hold %d", s.warmIdx.bytes, bytes)
	}
	return held, dense
}

// TestWarmRegistryEvictsUnderConcurrentSolves runs distinct-Rspare
// optimizes of int_matmult O2 from four goroutines through one warm
// session, so donors are evicted while other solves may be copying
// them. Every answer must still equal a cold session's, and the registry
// must end within its bound with a gauge that matches what it holds.
func TestWarmRegistryEvictsUnderConcurrentSolves(t *testing.T) {
	prog, err := mcc.Compile(beebs.Get("int_matmult").Source, mcc.O2)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewSession(prog, SessionConfig{WarmSolve: true})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewSession(prog, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const workers, each = 4, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < each; k++ {
				rspare := float64(40 + 37*(w+workers*k))
				got, err := warm.Optimize(ctx, Options{Rspare: rspare})
				if err != nil {
					t.Error(err)
					return
				}
				want, err := cold.Optimize(ctx, Options{Rspare: rspare})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got.Placement.InRAM, want.Placement.InRAM) || got.Placement.Outcome != want.Placement.Outcome {
					t.Errorf("rspare %v: warm placement %v, cold %v", rspare, got.Placement.InRAM, want.Placement.InRAM)
				}
			}
		}()
	}
	wg.Wait()
	if st := warm.SolverStats(); st.WarmHits == 0 {
		t.Errorf("no solve ran warm: %+v", st)
	}
	heldStates(t, warm)
}
