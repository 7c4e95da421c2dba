package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"testing"

	"repro/internal/beebs"
	"repro/internal/evaluation"
	"repro/internal/mcc"
)

var updateBounds = flag.Bool("update-bounds", false, "rewrite testdata/bounds.golden from the current analysis")

const boundsGolden = "testdata/bounds.golden"

// TestBoundsGolden pins `flashram bounds -all -json` byte for byte: every
// bracket and simulated number of both images of the ten BEEBS
// benchmarks at O2 and Os. A deliberate change to the bounds analysis or
// the pipeline regenerates the file with -update-bounds and says why.
func TestBoundsGolden(t *testing.T) {
	sw := evaluation.NewSweep(1)
	var rows []boundsRow
	for _, b := range beebs.All() {
		for _, lv := range []mcc.OptLevel{mcc.O2, mcc.Os} {
			row, err := boundsCell(context.Background(), sw, b, lv)
			if err != nil {
				t.Fatalf("%s %v: %v", b.Name, lv, err)
			}
			rows = append(rows, *row)
		}
	}
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, boundsGolden, got.Bytes(), *updateBounds, "-update-bounds")
}
