package evaluation

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/mcc"
)

// TestFigure6WarmColdByteIdentity runs the full 24-point trade-off sweep
// (the exact constraint arrays `cmd/tradeoff` uses) once warm-started
// and once cold, and requires the emitted Figure 6 documents to be
// byte-identical — warm starts buy solver effort, never a different
// answer. The warm sweep must also actually have consumed warm state,
// or the identity proves nothing.
func TestFigure6WarmColdByteIdentity(t *testing.T) {
	ramSweep := []float64{0, 16, 32, 64, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 4096}
	xSweep := []float64{1.0, 1.01, 1.02, 1.05, 1.1, 1.15, 1.2, 1.3, 1.5, 2.0}

	run := func(cold bool) ([]byte, core.SolverStats) {
		t.Helper()
		sw := NewSweep(1)
		sw.ColdSolve = cold
		data, err := sw.Figure6(context.Background(), "int_matmult", mcc.O2, 8, ramSweep, xSweep)
		if err != nil {
			t.Fatalf("cold=%v: %v", cold, err)
		}
		if len(data.RAMPath) != len(ramSweep) || len(data.TimePath) != len(xSweep) {
			t.Fatalf("cold=%v: %d+%d path points, want %d+%d",
				cold, len(data.RAMPath), len(data.TimePath), len(ramSweep), len(xSweep))
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(NewFigure6JSON(data, mcc.O2.String(), true)); err != nil {
			t.Fatal(err)
		}
		_, solver := sw.Stats()
		return buf.Bytes(), solver
	}

	warmDoc, warmStats := run(false)
	coldDoc, coldStats := run(true)

	if !bytes.Equal(warmDoc, coldDoc) {
		t.Errorf("warm and cold sweeps emitted different documents:\nwarm %s\ncold %s", warmDoc, coldDoc)
	}
	if warmStats.WarmHits == 0 {
		t.Errorf("warm sweep consumed no warm state: %+v", warmStats)
	}
	if coldStats != (core.SolverStats{}) {
		t.Errorf("cold sweep has a warm ledger: %+v", coldStats)
	}

	// Both sweeps emit paths sorted in the caller's constraint order
	// even though the solves run loosest-first.
	var doc Figure6JSON
	if err := json.Unmarshal(warmDoc, &doc); err != nil {
		t.Fatal(err)
	}
	for i, p := range doc.RAMPath {
		if p.Constraint != ramSweep[i] {
			t.Fatalf("ram_path[%d] constraint %v, want %v", i, p.Constraint, ramSweep[i])
		}
	}
	for i, p := range doc.TimePath {
		if p.Constraint != xSweep[i] {
			t.Fatalf("time_path[%d] constraint %v, want %v", i, p.Constraint, xSweep[i])
		}
	}
}
