package core_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/layout"
	"repro/internal/mcc"
	"repro/internal/sim"
)

// Optimize runs the baseline run beside the solve → transform →
// optimized-run chain, and the two replays beside each other. The tests
// below pin what that must not change: the ledger a call sequence leaves,
// and which side's error a failing configuration reports.

const besideRepeats = 20

// The hit/miss ledger of a call sequence is the same in every fresh
// session, however the two sides of each Optimize interleave, and equals
// a serial run's: where both sides reach one memo entry, the baseline
// side records the miss and the optimized side the hit.
func TestConcurrentSidesKeepLedgerDeterministic(t *testing.T) {
	adv := sim.ProfileAdversarial
	type runLedger struct {
		simRuns                    uint64
		baseline, optRun, intermit core.StageStats
	}
	seqs := []struct {
		name string
		opts []core.Options
		// solveFirst runs Verify before each Optimize, so the
		// optimized side finds solve and transform memoized and reaches
		// its run while the baseline side is still starting.
		solveFirst bool
		want       runLedger
	}{
		{"plain", []core.Options{{}, {UseProfile: true}}, false,
			runLedger{2, core.StageStats{Hits: 2, Misses: 1}, core.StageStats{Hits: 1, Misses: 1}, core.StageStats{}}},
		// The profiled estimate reads the traced baseline run.
		{"traced-profiled", []core.Options{{Trace: true, UseProfile: true}, {Trace: true}}, false,
			runLedger{2, core.StageStats{Hits: 2, Misses: 1}, core.StageStats{Hits: 1, Misses: 1}, core.StageStats{}}},
		{"adversarial", []core.Options{{PowerTrace: adv}}, false,
			runLedger{4, core.StageStats{Hits: 1, Misses: 1}, core.StageStats{Misses: 1}, core.StageStats{Misses: 2}}},
		// The aware solve keeps everything in flash (checked by
		// TestAwareEmptyPlacementReusesBaselineRuns).
		{"aware-empty", []core.Options{{}, {PowerTrace: adv}, {PowerTrace: adv, CkptAware: true}}, false,
			runLedger{4, core.StageStats{Hits: 4, Misses: 1}, core.StageStats{Hits: 2, Misses: 1}, core.StageStats{Hits: 2, Misses: 2}}},
		// Options.Rspare 0 derives the budget, so the smallest literal
		// budget stands in for none: nothing fits, the placement is empty,
		// and the optimized run and replay are the baseline's. The second
		// Verify resolves the trace, hence the third baseline
		// hit.
		{"no-budget", []core.Options{{Rspare: 1}, {Rspare: 1, PowerTrace: adv}}, true,
			runLedger{2, core.StageStats{Hits: 3, Misses: 1}, core.StageStats{Hits: 2}, core.StageStats{Hits: 1, Misses: 1}}},
	}
	for _, seq := range seqs {
		t.Run(seq.name, func(t *testing.T) {
			var first core.SessionStats
			var firstSolver core.SolverStats
			for i := 0; i < besideRepeats; i++ {
				s := sessionForTest(t, "crc32", mcc.O2)
				for _, o := range seq.opts {
					if seq.solveFirst {
						if _, _, err := s.Verify(context.Background(), o); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := s.Optimize(context.Background(), o); err != nil {
						t.Fatal(err)
					}
				}
				st, sst := s.Stats(), s.SolverStats()
				if i == 0 {
					first, firstSolver = st, sst
					continue
				}
				if !sameLedger(st, first) || sst != firstSolver {
					t.Fatalf("session %d ledger %+v / %+v, session 0 %+v / %+v", i, st, sst, first, firstSolver)
				}
			}
			got := runLedger{first.SimRuns, first.Baseline, first.OptRun, intermitStats(first)}
			if got != seq.want {
				t.Errorf("sim runs, baseline, opt_run, intermit = %+v, want %+v", got, seq.want)
			}
		})
	}
}

// sameLedger compares two snapshots by value (Intermit is a pointer).
func sameLedger(a, b core.SessionStats) bool {
	ia, ib := intermitStats(a), intermitStats(b)
	a.Intermit, b.Intermit = nil, nil
	return a == b && ia == ib
}

// When both replays fault, the error is the baseline replay's, as in a
// serial run that never starts the optimized replay. Unlike a serial run,
// the optimized replay has run too and stays in the ledger: both replays
// are misses and neither completed.
func TestBothReplaysFaultReportsBaseline(t *testing.T) {
	ctx := context.Background()
	opts := core.Options{PowerTrace: sim.ProfileAdversarial}
	s := sessionForTest(t, "crc32", mcc.O2)
	rep, err := s.Optimize(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MovedLabels()) == 0 {
		t.Fatal("precondition: the placement is empty, so the two replays are one")
	}
	plain := max(rep.Baseline.Instructions, rep.Optimized.Instructions)
	replay := min(rep.Intermittent.Baseline.Stats.Instructions, rep.Intermittent.Optimized.Stats.Instructions)
	if replay < plain+2 {
		t.Fatalf("precondition: replays (%d instrs) do not outrun the plain runs (%d)", replay, plain)
	}
	opts.MaxInstrs = plain + (replay-plain)/2

	// Each replay's own error, straight from the simulator.
	tr, err := sim.ResolveTrace(opts.PowerTrace, rep.Baseline.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	replayErr := func(img *layout.Image) string {
		m := sim.New(img, s.Profile())
		m.MaxInstrs = opts.MaxInstrs
		_, err := m.RunIntermittent(ctx, sim.IntermittentConfig{Trace: tr, CheckpointCycles: sim.DefaultCheckpointCycles})
		if err == nil {
			t.Fatal("precondition: the replay did not fault")
		}
		return errs.Wrap(errs.StageIntermittent, err).Error()
	}
	baseImg, err := layout.New(s.Program(), s.LayoutConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, optWant := replayErr(baseImg), replayErr(rep.Image)
	if want == optWant {
		t.Fatalf("precondition: both replays fail alike (%s)", want)
	}

	for i := 0; i < besideRepeats; i++ {
		s := sessionForTest(t, "crc32", mcc.O2)
		_, err := s.Optimize(ctx, opts)
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: error %v, want the baseline replay's %q", i, err, want)
		}
		st := s.Stats()
		if got, wantIM := intermitStats(st), (core.StageStats{Misses: 2}); got != wantIM || st.SimRuns != 2 {
			t.Fatalf("run %d: intermit %+v, sim runs %d; want %+v and the 2 plain runs", i, got, st.SimRuns, wantIM)
		}
	}
}

// When the baseline and the optimized run both fault, the error carries
// the baseline's stage. The ledger a failed call leaves is the same in
// every fresh session: the optimized side is not cancelled by the
// baseline's failure, so its solve, transform and run are recorded too,
// which a serial run that stops at the baseline would not record.
func TestBothRunsFaultReportsBaseline(t *testing.T) {
	ctx := context.Background()
	rep, err := sessionForTest(t, "crc32", mcc.O2).Optimize(ctx, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MovedLabels()) == 0 {
		t.Fatal("precondition: the placement is empty, so the two runs are one")
	}
	var first core.SessionStats
	for i := 0; i < besideRepeats; i++ {
		s := sessionForTest(t, "crc32", mcc.O2)
		_, err := s.Optimize(ctx, core.Options{MaxInstrs: 1})
		var e *errs.Error
		if !errors.As(err, &e) || e.Stage != errs.StageBaseline {
			t.Fatalf("run %d: error %v, want stage %s", i, err, errs.StageBaseline)
		}
		st := s.Stats()
		if i == 0 {
			first = st
			miss := core.StageStats{Misses: 1}
			if st.Baseline != miss || st.Solve != miss || st.Transform != miss || st.OptRun != miss || st.SimRuns != 0 {
				t.Fatalf("baseline %+v, solve %+v, transform %+v, opt_run %+v, sim runs %d; want one miss each and no completed run",
					st.Baseline, st.Solve, st.Transform, st.OptRun, st.SimRuns)
			}
			continue
		}
		if !sameLedger(st, first) {
			t.Fatalf("run %d ledger %+v, run 0 %+v", i, st, first)
		}
	}
}

// A cancelled context stops both sides; each side's memo entry is
// evicted, so a retry with a live context succeeds.
func TestCancelledSidesRetry(t *testing.T) {
	live := context.Background()
	cancelled, cancel := context.WithCancel(live)
	cancel()
	s := sessionForTest(t, "crc32", mcc.O2)
	plain, err := s.Optimize(live, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.MovedLabels()) == 0 {
		t.Fatal("precondition: the placement is empty, so the two sides share one run")
	}

	cases := []struct {
		name string
		opts core.Options
		// started counts the memo misses of the two sides' stages.
		started func(core.SessionStats) uint64
	}{
		// Solve and transform are memoized; a new instruction limit makes
		// both runs new.
		{"runs", core.Options{MaxInstrs: 1 << 30},
			func(st core.SessionStats) uint64 { return st.Baseline.Misses + st.OptRun.Misses }},
		// The runs are memoized; both replays are new.
		{"replays", core.Options{PowerTrace: sim.ProfileAdversarial},
			func(st core.SessionStats) uint64 { return intermitStats(st).Misses }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := s.Stats()
			if _, err := s.Optimize(cancelled, tc.opts); !errs.IsCancellation(err) {
				t.Fatalf("cancelled Optimize: %v, want a cancellation", err)
			}
			after := s.Stats()
			if d := after.SimRuns - before.SimRuns; d != 0 {
				t.Errorf("cancelled Optimize completed %d simulations", d)
			}
			if d := tc.started(after) - tc.started(before); d != 2 {
				t.Errorf("cancelled Optimize started %d simulations, want both sides", d)
			}
			rep, err := s.Optimize(live, tc.opts)
			if err != nil {
				t.Fatalf("retry: %v", err)
			}
			if d := s.Stats().SimRuns - after.SimRuns; d != 2 {
				t.Errorf("retry simulated %d times, want both sides again", d)
			}
			if rep.Ke != plain.Ke || rep.Kt != plain.Kt {
				t.Errorf("retry Ke/Kt %v/%v, want %v/%v", rep.Ke, rep.Kt, plain.Ke, plain.Kt)
			}
		})
	}
}
