package evaluation

import (
	"context"
	"repro/internal/core"
	"testing"

	"repro/internal/beebs"
	"repro/internal/mcc"
)

// TestConstrainedTable exercises the pipeline under realistic RAM
// pressure (320-byte code budget, 35% slowdown cap) — the configuration
// EXPERIMENTS.md reports alongside the unconstrained sweep, and the one
// whose magnitudes sit closest to the paper's measurements.
func TestConstrainedTable(t *testing.T) {
	for _, b := range beebs.All() {
		r, err := NewSweep(1).RunBenchmark(context.Background(), b, mcc.O2, core.Options{Rspare: 320, Xlimit: 1.35})
		if err != nil {
			t.Fatal(err)
		}
		rep := r.Report
		t.Logf("%-15s energy %+6.1f%%  time %+6.1f%%  power %+6.1f%%  ram %dB",
			b.Name, 100*rep.EnergyChange, 100*rep.TimeChange, 100*rep.PowerChange,
			rep.Optimized.RAMCodeBytes)
	}
}
