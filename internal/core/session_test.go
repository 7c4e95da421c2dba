package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/mcc"
	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/sim"
)

func sessionForTest(t testing.TB, bench string, level mcc.OptLevel) *core.Session {
	t.Helper()
	b := beebs.Get(bench)
	if b == nil {
		t.Fatalf("benchmark %q missing", bench)
	}
	prog, err := mcc.Compile(b.Source, level)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSession(prog, core.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sessionConfigs are deliberately overlapping: several share the model,
// several share only the baseline, two are identical. Concurrent solves
// over them exercise every stage's sharing path.
var sessionConfigs = []core.Options{
	{},
	{}, // identical to the first: must resolve to the same Report
	{UseProfile: true},
	{Xlimit: 1.05},
	{Xlimit: 1.5},
	{Solver: core.SolverGreedy},
	{Solver: core.SolverFunction},
	{Rspare: 256},
	{LinkTime: true},
}

// TestSessionConcurrentSolves runs overlapping configurations of one
// Session concurrently (twice each) and asserts every result is
// byte-identical to a serial fresh-session reference. Under -race this
// is the "two solves from one Session don't share mutable state" check:
// any cross-configuration mutation of a shared artifact either trips the
// race detector or diverges from the reference fingerprints.
func TestSessionConcurrentSolves(t *testing.T) {
	const bench, level = "int_matmult", mcc.O2

	// Serial references, one pristine session each.
	want := make([][]byte, len(sessionConfigs))
	for i, opts := range sessionConfigs {
		rep, err := sessionForTest(t, bench, level).Optimize(context.Background(), opts)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		want[i] = fingerprintJSON(t, bench, level, rep)
	}

	s := sessionForTest(t, bench, level)
	reports := make([]*core.Report, 2*len(sessionConfigs))
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for i := range sessionConfigs {
			wg.Add(1)
			go func(slot, cfg int) {
				defer wg.Done()
				rep, err := s.Optimize(context.Background(), sessionConfigs[cfg])
				if err != nil {
					t.Errorf("config %d: %v", cfg, err)
					return
				}
				reports[slot] = rep
			}(round*len(sessionConfigs)+i, i)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for slot, rep := range reports {
		cfg := slot % len(sessionConfigs)
		if got := fingerprintJSON(t, bench, level, rep); !bytes.Equal(got, want[cfg]) {
			t.Errorf("config %d via shared session diverges from fresh-session reference:\n got %s\nwant %s",
				cfg, got, want[cfg])
		}
	}

	// Identical configurations must share one memoized Report...
	if reports[0] != reports[1] {
		t.Error("two identical configurations built two Reports from one session")
	}
	// ...and the counters must show it: 9 distinct configs (two of the
	// ten are identical), each requested twice.
	st := s.Stats()
	if distinct := uint64(len(sessionConfigs) - 1); st.Optimize.Misses != distinct {
		t.Errorf("optimize misses = %d, want %d", st.Optimize.Misses, distinct)
	}
	if st.Baseline.Misses != 1 {
		t.Errorf("baseline simulated %d times across all configurations, want 1", st.Baseline.Misses)
	}
	if st.Totals().Hits == 0 {
		t.Error("shared session reported zero stage reuses")
	}
}

func fingerprintJSON(t testing.TB, bench string, level mcc.OptLevel, rep *core.Report) []byte {
	t.Helper()
	data, err := json.Marshal(fingerprint(bench, level.String(), rep))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSessionStageSharing pins which stages a profiled run shares with a
// static run of the same session: the baseline simulation and CFG are
// reused, the frequency estimate and model are not.
func TestSessionStageSharing(t *testing.T) {
	s := sessionForTest(t, "crc32", mcc.O2)
	if _, err := s.Optimize(context.Background(), core.Options{}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Baseline.Misses != 1 || st.Freq.Misses != 1 || st.Model.Misses != 1 {
		t.Fatalf("static run: baseline/freq/model misses = %d/%d/%d, want 1/1/1",
			st.Baseline.Misses, st.Freq.Misses, st.Model.Misses)
	}

	if _, err := s.Optimize(context.Background(), core.Options{UseProfile: true}); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Baseline.Misses != 1 {
		t.Errorf("profiled run re-simulated the baseline (%d misses)", st.Baseline.Misses)
	}
	if st.Baseline.Hits == 0 {
		t.Error("profiled run did not reuse the baseline")
	}
	if st.Freq.Misses != 2 || st.Model.Misses != 2 {
		t.Errorf("freq/model misses = %d/%d, want 2/2 (profiled needs its own)",
			st.Freq.Misses, st.Model.Misses)
	}
	if st.SimRuns != 2 {
		// Shared baseline + ONE optimized run: crc32's static and profiled
		// solves pick the same placement, so the optimized simulation is
		// also shared via the opt-run memo.
		t.Errorf("sim runs = %d, want 2", st.SimRuns)
	}
	if st.OptRun.Hits == 0 {
		t.Error("same-placement profiled run did not reuse the optimized simulation")
	}
	if st.CyclesSimulated == 0 {
		t.Error("cycles simulated not counted")
	}
}

// TestSessionTracedBaselineServesUntraced: a traced baseline measurement
// satisfies later untraced requests (the observer is passive), so Trace
// then no-Trace costs one baseline simulation, not two.
func TestSessionTracedBaselineServesUntraced(t *testing.T) {
	s := sessionForTest(t, "crc32", mcc.O2)
	if _, err := s.Optimize(context.Background(), core.Options{Trace: true}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Optimize(context.Background(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaselineTrace != nil {
		t.Error("untraced request returned a traced report")
	}
	if st := s.Stats(); st.Baseline.Misses != 1 {
		t.Errorf("baseline simulated %d times for traced+untraced, want 1", st.Baseline.Misses)
	}
}

// TestSessionMachineReuseMatchesFresh: sessions run their simulations on
// machines from one process-wide pool, retargeted across images and
// profiles via SetImage. Every such run must be statistically
// indistinguishable from a machine allocated fresh for that image and
// profile — Stats down to the float bits and the per-block profile.
func TestSessionMachineReuseMatchesFresh(t *testing.T) {
	s := sessionForTest(t, "crc32", mcc.O2)
	// A second session under another board profile picks up the machines
	// the first one parked.
	prof := *s.Profile()
	prof.FetchPower[power.Flash][isa.ClassLoad] *= 1.25
	s2, err := core.NewSession(s.Program(), core.SessionConfig{Profile: &prof})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*core.Session{s, s2} {
		rep, err := s.Optimize(context.Background(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		base, err := s.Measure(context.Background(), nil, false, 0)
		if err != nil {
			t.Fatal(err)
		}

		check := func(name string, img *layout.Image, got *sim.Stats) {
			t.Helper()
			fresh := sim.New(img, s.Profile())
			want, err := fresh.Run()
			if err != nil {
				t.Fatalf("%s fresh run: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: pooled-machine stats diverge from fresh machine:\n got %+v\nwant %+v",
					name, got, want)
			}
		}
		check("baseline", base.Image, base.Stats)
		check("optimized", rep.Image, rep.Optimized.Stats)
	}
}

// TestModelPointsShareOneFamily: the constraint points of one model
// family are views of one build — they share its blocks — while the
// model ledger still counts one build per point, and a point with an
// invalid bound fails at the model stage without disturbing the family.
func TestModelPointsShareOneFamily(t *testing.T) {
	s := sessionForTest(t, "crc32", mcc.O2)
	ctx := context.Background()
	points := []core.ModelSpec{
		{Rspare: 0, Xlimit: 1.0},
		{Rspare: 512, Xlimit: 1.2},
		{Rspare: 512, Xlimit: 1e9},
	}
	var first *model.Model
	for _, spec := range points {
		m, err := s.Model(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if m.Params.Rspare != spec.Rspare || m.Params.Xlimit != spec.Xlimit {
			t.Errorf("point %+v: model bounds %v/%v", spec, m.Params.Rspare, m.Params.Xlimit)
		}
		if first == nil {
			first = m
		} else if &m.Blocks[0] != &first.Blocks[0] {
			t.Errorf("point %+v rebuilt the family's blocks", spec)
		}
	}
	var se *errs.Error
	if _, err := s.Model(ctx, core.ModelSpec{Rspare: 16, Xlimit: 0.5}); !errors.As(err, &se) || se.Stage != errs.StageModel {
		t.Errorf("Xlimit 0.5: err %v, want a model-stage error", err)
	}
	if m, err := s.Model(ctx, points[1]); err != nil || &m.Blocks[0] != &first.Blocks[0] {
		t.Errorf("repeated point after a failed one: %v", err)
	}
	if st := s.Stats(); st.Model.Misses != 4 || st.Model.Hits != 1 {
		t.Errorf("model ledger %+v, want 4 misses (one per point) and 1 hit", st.Model)
	}
}
