package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/beebs"
	"repro/internal/lp"
	"repro/internal/mcc"
)

// TestWarmRegistryHoldsPackedStates runs 200 optimizes of int_matmult O2
// at distinct Rspare values through one warm session, as a daemon's
// writes do. Every answer must equal a cold session's, and the warm
// registry must hold its end states packed: warm_state_bytes, the bytes
// of its distinct states, under 35% of their dense m·(total+1)·8 bytes.
func TestWarmRegistryHoldsPackedStates(t *testing.T) {
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
	}

	held, dense := 0, 0
	seen := map[*lp.State]bool{}
	warm.warmIdx.mu.Lock()
	for _, pts := range warm.warmIdx.idx {
		for _, pt := range pts {
			if st := pt.warm.State; st != nil && !seen[st] {
				seen[st] = true
				held += st.Bytes()
				dense += 8 * st.Cells()
			}
		}
	}
	warm.warmIdx.mu.Unlock()
	stats := warm.SolverStats()
	got := stats.WarmStateBytes
	t.Logf("%d distinct states registered, %d warm proofs: warm_state_bytes %d, dense tableaus %d (%.1f%%)",
		len(seen), stats.WarmProofs, got, dense, 100*float64(got)/float64(dense))
	if len(seen) < 20 || stats.WarmProofs == 0 {
		t.Fatalf("%d distinct states and %d warm proofs, want both", len(seen), stats.WarmProofs)
	}
	if got != uint64(held) {
		t.Errorf("warm_state_bytes %d, but the registry's distinct states hold %d", got, held)
	}
	if got == 0 || float64(got) >= 0.35*float64(dense) {
		t.Errorf("warm_state_bytes %d, want under 35%% of the %d dense bytes", got, dense)
	}
}
