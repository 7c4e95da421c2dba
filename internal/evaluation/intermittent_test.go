package evaluation

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"repro/internal/core"
	"testing"

	"repro/internal/beebs"
	"repro/internal/casestudy"
	"repro/internal/mcc"
	"repro/internal/sim"
)

// The intermittent sweep's shape: every benchmark × level × profile cell
// present in enumeration order, each carrying both replayed placements,
// with positive work rates and a positive checkpoint term on the aware
// solve.
func TestIntermittentSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full intermittent sweep in -short mode")
	}
	levels := []mcc.OptLevel{mcc.O2}
	profiles := []string{sim.ProfileSteady, sim.ProfileBursty}
	sw := NewSweep(2)
	rows, err := sw.Intermittent(context.Background(), levels, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(beebs.All()) * len(levels) * len(profiles); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	k := 0
	for _, b := range beebs.All() {
		for _, p := range profiles {
			r := rows[k]
			k++
			if r.Bench != b.Name || r.Profile != p {
				t.Fatalf("row %d is %s/%s, want %s/%s (enumeration order)", k-1, r.Bench, r.Profile, b.Name, p)
			}
			if r.Incomplete {
				t.Fatalf("row %s/%s incomplete", r.Bench, r.Profile)
			}
			if r.Outages == 0 || r.CheckpointCycles == 0 {
				t.Fatalf("row %s/%s: empty schedule: %+v", r.Bench, r.Profile, r)
			}
			if r.Baseline.WorkPerMJ() <= 0 || r.Oblivious.WorkPerMJ() <= 0 || r.Aware.WorkPerMJ() <= 0 {
				t.Fatalf("row %s/%s: non-positive work rate", r.Bench, r.Profile)
			}
			if r.CkptNJPerByte <= 0 {
				t.Fatalf("row %s/%s: aware solve lost its checkpoint term", r.Bench, r.Profile)
			}
		}
	}

	// The rows convert into valid case-study scenarios and summarize.
	sc := Scenarios(rows[:len(profiles)], intermitClockHz())
	sum, err := casestudy.SummarizeIntermittent(sc)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Profiles != len(profiles) {
		t.Fatalf("summary covers %d profiles, want %d", sum.Profiles, len(profiles))
	}

	// JSON conversion carries the numbers through.
	js := NewIntermittentRowsJSON(rows)
	if js[0].BaselineWorkPerMJ != rows[0].Baseline.WorkPerMJ() {
		t.Fatalf("JSON row diverges from sweep row")
	}
}

// TestNoFuseDifferentialIntermittent extends the differential property
// test to trace-driven replays: random benchmark × level × profile cells
// run fused and one instruction at a time under the same injected power
// trace must produce identical reports — the intermittent comparison
// deeply equal (replay counts, checkpoint energy, wall cycles) and the
// emitted RunJSON byte-for-byte.
func TestNoFuseDifferentialIntermittent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	benches := beebs.All()
	levels := []mcc.OptLevel{mcc.O1, mcc.O2, mcc.Os}
	profiles := sim.HarvestProfiles()

	fused := NewSweep(1)
	slot := NewSweep(1)
	slot.NoFuse = true

	const cells = 4
	for i := 0; i < cells; i++ {
		b := benches[rng.Intn(len(benches))]
		level := levels[rng.Intn(len(levels))]
		profile := profiles[rng.Intn(len(profiles))]
		opts := core.Options{PowerTrace: profile, CkptAware: i%2 == 0}
		name := b.Name + " " + level.String() + " " + profile

		fr, fErr := fused.RunBenchmark(context.Background(), b, level, opts)
		sr, sErr := slot.RunBenchmark(context.Background(), b, level, opts)
		if (fErr == nil) != (sErr == nil) {
			t.Fatalf("%s: error divergence: fused=%v slot=%v", name, fErr, sErr)
		}
		if fErr != nil {
			if fErr.Error() != sErr.Error() {
				t.Errorf("%s: error mismatch:\nfused: %v\nslot:  %v", name, fErr, sErr)
			}
			continue
		}

		fic, sic := fr.Report.Intermittent, sr.Report.Intermittent
		if fic == nil || sic == nil {
			t.Fatalf("%s: missing intermittent comparison (fused %v, slot %v)", name, fic, sic)
		}
		if !reflect.DeepEqual(fic, sic) {
			t.Errorf("%s: intermittent comparison diverges:\nfused: %+v\nslot:  %+v", name, fic, sic)
		}
		fj, err := json.Marshal(NewRunJSON(fr))
		if err != nil {
			t.Fatal(err)
		}
		sj, err := json.Marshal(NewRunJSON(sr))
		if err != nil {
			t.Fatal(err)
		}
		if string(fj) != string(sj) {
			t.Errorf("%s: RunJSON diverges:\nfused: %s\nslot:  %s", name, fj, sj)
		}
	}
}
