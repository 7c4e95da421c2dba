package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/mcc"
	"repro/internal/sim"
)

// stageDelta is the change in one stage's hit/miss counters.
func stageDelta(after, before core.StageStats) core.StageStats {
	return core.StageStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
}

func intermitStats(st core.SessionStats) core.StageStats {
	if st.Intermit == nil {
		return core.StageStats{}
	}
	return *st.Intermit
}

// A checkpoint-aware solve that keeps everything in flash executes the
// baseline image: its optimized run and its optimized replay are the
// baseline's, so the aware Optimize simulates nothing new.
func TestAwareEmptyPlacementReusesBaselineRuns(t *testing.T) {
	s := sessionForTest(t, "crc32", mcc.O2)
	ctx := context.Background()
	if _, err := s.Optimize(ctx, core.Options{}); err != nil {
		t.Fatal(err)
	}
	obl, err := s.Optimize(ctx, core.Options{PowerTrace: sim.ProfileAdversarial})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	aware, err := s.Optimize(ctx, core.Options{PowerTrace: sim.ProfileAdversarial, CkptAware: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(aware.MovedLabels()); n != 0 {
		t.Fatalf("precondition: the aware solve moved %d blocks, want the empty placement", n)
	}
	after := s.Stats()
	if d := after.SimRuns - before.SimRuns; d != 0 {
		t.Errorf("aware Optimize simulated %d times, want 0", d)
	}
	if d := stageDelta(after.OptRun, before.OptRun); d != (core.StageStats{Hits: 1}) {
		t.Errorf("opt_run delta %+v, want one hit", d)
	}
	// Two replay lookups, both hits: the baseline replay every
	// configuration shares, and the optimized replay that lands on it.
	if d := stageDelta(intermitStats(after), intermitStats(before)); d != (core.StageStats{Hits: 2}) {
		t.Errorf("intermit delta %+v, want two hits", d)
	}
	ic := aware.Intermittent
	if ic.Optimized != obl.Intermittent.Baseline || ic.Baseline != obl.Intermittent.Baseline {
		t.Error("aware replays are not the shared baseline replay")
	}
	if aware.Optimized.Stats != aware.Baseline.Stats {
		t.Error("aware optimized run is not the shared baseline run")
	}
	// The configuration's own artifacts stay its own.
	if aware.Image == nil || aware.Transform == nil || aware.Analysis == nil {
		t.Fatal("aware report lost its image, transform or analysis")
	}
}

// Two configurations that differ only in Rspare and reach the same
// placement simulate once (run, replay and bracket shared) but run the
// static analysis once per budget.
func TestRspareOnlyVariantsSimulateOnce(t *testing.T) {
	s := sessionForTest(t, "crc32", mcc.O2)
	ctx := context.Background()
	a := core.Options{PowerTrace: sim.ProfileAdversarial, Rspare: 4096}
	b := a
	b.Rspare = 8192
	ra, err := s.Optimize(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StaticBounds(ctx, a); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	rb, err := s.Optimize(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StaticBounds(ctx, b); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if !reflect.DeepEqual(ra.MovedLabels(), rb.MovedLabels()) || len(ra.MovedLabels()) == 0 {
		t.Fatalf("precondition: placements %v and %v differ or are empty", ra.MovedLabels(), rb.MovedLabels())
	}
	if d := after.SimRuns - before.SimRuns; d != 0 {
		t.Errorf("second budget simulated %d times, want 0", d)
	}
	if d := stageDelta(after.OptRun, before.OptRun); d.Misses != 0 {
		t.Errorf("opt_run delta %+v, want no misses", d)
	}
	if d := stageDelta(intermitStats(after), intermitStats(before)); d.Misses != 0 {
		t.Errorf("intermit delta %+v, want no misses", d)
	}
	if d := stageDelta(after.Bounds, before.Bounds); d.Misses != 0 {
		t.Errorf("bounds delta %+v, want no misses", d)
	}
	if d := stageDelta(after.Transform, before.Transform); d.Misses != 1 {
		t.Errorf("transform delta %+v, want one miss (the analysis at the new budget)", d)
	}
	if ra.Analysis == rb.Analysis {
		t.Error("both budgets share one analysis")
	}
	if ra.Optimized.Stats != rb.Optimized.Stats || ra.Intermittent.Optimized != rb.Intermittent.Optimized {
		t.Error("the budgets did not share the optimized run and replay")
	}
}

// Every run and replay a report carries equals a fresh machine's on the
// report's own image: image-keyed sharing never hands a configuration
// the outcome of a different image.
func TestReportsMatchFreshMachines(t *testing.T) {
	ctx := context.Background()
	for _, bench := range []string{"crc32", "cubic", "float_matmult", "int_matmult"} {
		for _, level := range []mcc.OptLevel{mcc.O2, mcc.Os} {
			s := sessionForTest(t, bench, level)
			baseImg, err := layout.New(s.Program(), s.LayoutConfig(), nil)
			if err != nil {
				t.Fatal(err)
			}
			// Plain, a tighter budget (a second, smaller placement) and
			// checkpoint-aware (the empty placement) under adversarial
			// outages.
			for _, opts := range []core.Options{{}, {Rspare: 128}, {PowerTrace: sim.ProfileAdversarial, CkptAware: true}} {
				rep, err := s.Optimize(ctx, opts)
				if err != nil {
					t.Fatal(err)
				}
				name := bench + "/" + level.String()
				if opts.CkptAware {
					name += "/aware"
				} else if opts.Rspare != 0 {
					name += "/rspare128"
				}
				checkFreshRun(t, name+" baseline", s, baseImg, rep.Baseline)
				checkFreshRun(t, name+" optimized", s, rep.Image, rep.Optimized)
				if ic := rep.Intermittent; ic != nil {
					checkFreshReplay(t, name+" baseline replay", s, baseImg, ic, ic.Baseline)
					checkFreshReplay(t, name+" optimized replay", s, rep.Image, ic, ic.Optimized)
				}
			}
		}
	}
}

func checkFreshRun(t *testing.T, name string, s *core.Session, img *layout.Image, got core.RunMetrics) {
	t.Helper()
	m := sim.New(img, s.Profile())
	st, err := m.Run()
	if err != nil {
		t.Fatalf("%s: fresh run: %v", name, err)
	}
	want := core.RunMetrics{
		EnergyMJ:     st.EnergyMJ(),
		TimeS:        m.TimeSeconds(st),
		PowerMW:      m.AveragePowerMW(st),
		Cycles:       st.Cycles,
		Instructions: st.Instructions,
		RAMCodeBytes: img.RAMCodeBytes,
		Stats:        st,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: report metrics differ from a fresh machine's:\n got %+v\nwant %+v", name, got, want)
	}
}

func checkFreshReplay(t *testing.T, name string, s *core.Session, img *layout.Image, ic *core.IntermittentComparison, got *sim.IntermittentReport) {
	t.Helper()
	tr, err := sim.ParsePowerTrace([]byte(ic.Spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Outages) != ic.Outages {
		t.Errorf("%s: comparison counts %d outages, schedule has %d", name, ic.Outages, len(tr.Outages))
	}
	want, err := sim.New(img, s.Profile()).RunIntermittent(context.Background(),
		sim.IntermittentConfig{Trace: tr, CheckpointCycles: ic.CheckpointCycles})
	if err != nil {
		t.Fatalf("%s: fresh replay: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: replay differs from a fresh machine's", name)
	}
}

// The replay stage is in the ledger as `intermit`: absent until a power
// trace touches it (always-powered documents keep their schema), then
// summed by Add and counted by Totals like every other stage.
func TestIntermitLedger(t *testing.T) {
	s := sessionForTest(t, "crc32", mcc.O2)
	ctx := context.Background()
	if _, err := s.Optimize(ctx, core.Options{}); err != nil {
		t.Fatal(err)
	}
	plain := s.Stats()
	if plain.Intermit != nil {
		t.Fatalf("always-powered session ledgers intermit %+v", *plain.Intermit)
	}
	if data, err := json.Marshal(plain); err != nil || bytes.Contains(data, []byte(`"intermit"`)) {
		t.Fatalf("always-powered ledger JSON carries intermit (err %v): %s", err, data)
	}
	for _, aware := range []bool{false, true} {
		if _, err := s.Optimize(ctx, core.Options{PowerTrace: sim.ProfileAdversarial, CkptAware: aware}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Intermit == nil || st.Intermit.Misses == 0 || st.Intermit.Hits == 0 {
		t.Fatalf("intermit ledger %+v, want hits and misses", st.Intermit)
	}
	var sum core.SessionStats
	sum.Add(plain)
	sum.Add(st)
	sum.Add(st)
	if *sum.Intermit != (core.StageStats{Hits: 2 * st.Intermit.Hits, Misses: 2 * st.Intermit.Misses}) {
		t.Errorf("Add summed intermit to %+v from 2 × %+v", *sum.Intermit, *st.Intermit)
	}
	withoutIntermit := st
	withoutIntermit.Intermit = nil
	if got, want := st.Totals().Hits, withoutIntermit.Totals().Hits+st.Intermit.Hits; got != want {
		t.Errorf("Totals hits = %d, want %d", got, want)
	}
	if got, want := st.Totals().Misses, withoutIntermit.Totals().Misses+st.Intermit.Misses; got != want {
		t.Errorf("Totals misses = %d, want %d", got, want)
	}
}
