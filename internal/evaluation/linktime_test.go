package evaluation

import (
	"context"
	"repro/internal/core"
	"testing"

	"repro/internal/beebs"
	"repro/internal/mcc"
)

// TestLinkTimeExtension validates the paper's §8 future work: with the
// optimization moved to link time ("allowing it to have a full view of
// the program"), the soft-float library becomes placeable and the
// library-bound benchmarks — which barely improved in Figure 5 — gain
// most of what the integer benchmarks get.
func TestLinkTimeExtension(t *testing.T) {
	for _, name := range []string{"cubic", "float_matmult"} {
		b := beebs.Get(name)
		compilerOnly, err := NewSweep(1).RunBenchmark(context.Background(), b, mcc.O2, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		linkTime, err := NewSweep(1).RunBenchmark(context.Background(), b, mcc.O2, core.Options{LinkTime: true})
		if err != nil {
			t.Fatal(err)
		}
		co := -compilerOnly.Report.EnergyChange
		lt := -linkTime.Report.EnergyChange
		t.Logf("%s: compiler-only saving %.1f%%, link-time saving %.1f%%",
			name, 100*co, 100*lt)
		if lt <= co {
			t.Errorf("%s: link-time saving %.1f%% did not beat compiler-only %.1f%%",
				name, 100*lt, 100*co)
		}
		if lt < 0.20 {
			t.Errorf("%s: link-time saving %.1f%% should approach the integer benchmarks'",
				name, 100*lt)
		}
		// Library blocks must actually have moved.
		movedLib := false
		for _, lbl := range linkTime.Report.MovedLabels() {
			blk := linkTime.Report.Optimized0.BlockByLabel(lbl)
			if blk != nil && blk.Func.Library {
				movedLib = true
				break
			}
		}
		if !movedLib {
			t.Errorf("%s: link-time mode moved no library blocks", name)
		}
	}
}

// TestLinkTimeIntegerUnchanged: integer benchmarks have no library code,
// so link-time mode must behave identically.
func TestLinkTimeIntegerUnchanged(t *testing.T) {
	b := beebs.Get("crc32")
	normal, err := NewSweep(1).RunBenchmark(context.Background(), b, mcc.O2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lt, err := NewSweep(1).RunBenchmark(context.Background(), b, mcc.O2, core.Options{LinkTime: true})
	if err != nil {
		t.Fatal(err)
	}
	if normal.Report.Optimized.EnergyMJ != lt.Report.Optimized.EnergyMJ {
		t.Errorf("link-time changed a library-free benchmark: %v vs %v",
			normal.Report.Optimized.EnergyMJ, lt.Report.Optimized.EnergyMJ)
	}
}
