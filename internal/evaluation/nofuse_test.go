package evaluation

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"repro/internal/core"
	"testing"

	"repro/internal/beebs"
	"repro/internal/mcc"
)

// TestNoFuseDifferentialRandomCells is the pipeline-level differential
// property test for the superblock engine: random benchmark × level ×
// rspare cells run through a fused sweep and a length-1-dispatch sweep
// (the beebsbench -nofuse knob) must produce identical reports — the
// simulated stats bit-for-bit (EnergyNJ is a float accumulation, so this
// checks the fused engine's in-order charging, not just totals) and the
// emitted RunJSON byte-for-byte. The seed is fixed so the sampled cells
// are stable across runs; internal/sim's fuzz target covers the
// instruction-level space, this covers the whole pipeline including
// placement-driven RAM layouts.
func TestNoFuseDifferentialRandomCells(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	benches := beebs.All()
	levels := []mcc.OptLevel{mcc.O0, mcc.O1, mcc.O2, mcc.Os}
	rspares := []float64{0, 64, 256, 1024}

	fused := NewSweep(1)
	slot := NewSweep(1)
	slot.NoFuse = true

	const cells = 6
	for i := 0; i < cells; i++ {
		b := benches[rng.Intn(len(benches))]
		level := levels[rng.Intn(len(levels))]
		rspare := rspares[rng.Intn(len(rspares))]
		opts := core.Options{Rspare: rspare}

		fr, fErr := fused.RunBenchmark(context.Background(), b, level, opts)
		sr, sErr := slot.RunBenchmark(context.Background(), b, level, opts)
		name := b.Name + " " + level.String()
		if (fErr == nil) != (sErr == nil) {
			t.Fatalf("%s rspare=%v: error divergence: fused=%v slot=%v", name, rspare, fErr, sErr)
		}
		if fErr != nil {
			if fErr.Error() != sErr.Error() {
				t.Errorf("%s rspare=%v: error mismatch:\nfused: %v\nslot:  %v", name, rspare, fErr, sErr)
			}
			continue
		}

		frep, srep := fr.Report, sr.Report
		if !reflect.DeepEqual(frep.Baseline.Stats, srep.Baseline.Stats) {
			t.Errorf("%s rspare=%v: baseline stats diverge:\nfused: %+v\nslot:  %+v",
				name, rspare, frep.Baseline.Stats, srep.Baseline.Stats)
		}
		if !reflect.DeepEqual(frep.Optimized.Stats, srep.Optimized.Stats) {
			t.Errorf("%s rspare=%v: optimized stats diverge:\nfused: %+v\nslot:  %+v",
				name, rspare, frep.Optimized.Stats, srep.Optimized.Stats)
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
			t.Errorf("%s rspare=%v: RunJSON diverges:\nfused: %s\nslot:  %s", name, rspare, fj, sj)
		}
	}
}
