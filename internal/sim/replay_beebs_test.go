package sim_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/mcc"
	"repro/internal/power"
	"repro/internal/sim"
)

// TestFastForwardMatchesTracedReplayBEEBS is the replay fast-forward's
// oracle over every BEEBS benchmark at the paper levels and every
// harvest profile: the pipeline's replays of the baseline and the
// optimized image (fast-forwarded, on pooled machines) must equal an
// observer-attached replay on a fresh machine, which simulates every
// re-executed instruction, on every report field.
func TestFastForwardMatchesTracedReplayBEEBS(t *testing.T) {
	ctx := context.Background()
	var replayed, skipped uint64
	for _, b := range beebs.All() {
		for _, level := range []mcc.OptLevel{mcc.O2, mcc.Os} {
			prog, err := mcc.Compile(b.Source, level)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := core.NewSession(prog, core.SessionConfig{})
			if err != nil {
				t.Fatal(err)
			}
			base, err := layout.New(prog, layout.DefaultConfig(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, profile := range sim.HarvestProfiles() {
				rep, err := sess.Optimize(ctx, core.Options{PowerTrace: profile})
				if err != nil {
					t.Fatalf("%s %s %s: %v", b.Name, level, profile, err)
				}
				ic := rep.Intermittent
				trace, err := sim.ParsePowerTrace([]byte(ic.Spec))
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range []struct {
					img  *layout.Image
					want *sim.IntermittentReport
				}{{base, ic.Baseline}, {rep.Image, ic.Optimized}} {
					m := sim.New(r.img, power.STM32F100())
					m.Attach(&summingObserver{})
					got, err := m.RunIntermittent(ctx, sim.IntermittentConfig{Trace: trace, CheckpointCycles: ic.CheckpointCycles})
					if err != nil {
						t.Fatalf("%s %s %s: %v", b.Name, level, profile, err)
					}
					if !reflect.DeepEqual(got, r.want) {
						t.Fatalf("%s %s %s: fast-forwarded replay differs from the simulated one:\nfast-forward: %+v\nsimulated:    %+v",
							b.Name, level, profile, r.want, got)
					}
					replayed += got.ReplayedInstrs
					fast := sim.New(r.img, power.STM32F100())
					if _, err := fast.RunIntermittent(ctx, sim.IntermittentConfig{Trace: trace, CheckpointCycles: ic.CheckpointCycles}); err != nil {
						t.Fatal(err)
					}
					skipped += fast.FastForwarded()
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no replayed instruction was fast-forwarded")
	}
	t.Logf("fast-forwarded %d of %d replayed instructions", skipped, replayed)
}
