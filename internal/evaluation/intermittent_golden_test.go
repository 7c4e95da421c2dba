package evaluation

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"repro/internal/core"
	"testing"

	"repro/internal/beebs"
	"repro/internal/mcc"
	"repro/internal/sim"
)

var updateIntermittent = flag.Bool("update-intermittent", false, "rewrite testdata/intermittent.golden from the current pipeline")

const intermittentGolden = "testdata/intermittent.golden"

// intermittentLines hashes every cell of the harvested-power sweep
// (`beebsbench -intermittent` at O2 and Os, every harvest profile): one
// SHA-256 per (benchmark, level, profile) over the cell's row JSON
// followed by the run documents of its plain (always-powered),
// checkpoint-oblivious and checkpoint-aware configurations.
func intermittentLines(t *testing.T) []string {
	t.Helper()
	ctx := context.Background()
	levels := []mcc.OptLevel{mcc.O2, mcc.Os}
	sw := NewSweep(1)
	rows, err := sw.Intermittent(ctx, levels, sim.HarvestProfiles())
	if err != nil {
		t.Fatal(err)
	}
	js := NewIntermittentRowsJSON(rows)
	lines := make([]string, len(rows))
	for i, r := range rows {
		h := sha256.New()
		enc := json.NewEncoder(h)
		if err := enc.Encode(js[i]); err != nil {
			t.Fatal(err)
		}
		b := beebs.Get(r.Bench)
		for _, opts := range []core.Options{{}, {PowerTrace: r.Profile}, {PowerTrace: r.Profile, CkptAware: true}} {
			run, err := sw.RunBenchmark(ctx, b, r.Level, opts)
			if err != nil {
				t.Fatalf("%s/%v/%s: %v", r.Bench, r.Level, r.Profile, err)
			}
			if err := enc.Encode(NewRunJSON(run)); err != nil {
				t.Fatal(err)
			}
		}
		lines[i] = fmt.Sprintf("%s %v %s %x", r.Bench, r.Level, r.Profile, h.Sum(nil))
	}
	return lines
}

// TestIntermittentGolden pins every harvested-power cell: work that
// changes how the replays are scheduled or shared must leave each line
// unchanged. A deliberate change to the replay semantics regenerates the
// file with -update-intermittent and says why.
func TestIntermittentGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the full intermittent sweep")
	}
	got := intermittentLines(t)
	want, ok := goldenLines(t, intermittentGolden, "-update-intermittent", *updateIntermittent, got)
	if !ok {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("golden has %d lines, sweep produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("intermittent cell changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
