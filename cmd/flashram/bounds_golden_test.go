package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/beebs"
	"repro/internal/mcc"
)

var updateBounds = flag.Bool("update-bounds", false, "rewrite testdata/bounds.golden from the current analysis")

const boundsGolden = "testdata/bounds.golden"

// TestBoundsGolden pins `flashram bounds -all -json` byte for byte: every
// bracket and simulated number of both images of the ten BEEBS
// benchmarks at O2 and Os. A deliberate change to the bounds analysis or
// the pipeline regenerates the file with -update-bounds and says why.
func TestBoundsGolden(t *testing.T) {
	var rows []boundsRow
	for _, b := range beebs.All() {
		for _, lv := range []mcc.OptLevel{mcc.O2, mcc.Os} {
			row, err := boundsCell(context.Background(), b, lv)
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
	if *updateBounds {
		if err := os.WriteFile(boundsGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(boundsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-bounds to create it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("line %d changed:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	t.Fatalf("%d lines, golden has %d", len(g), len(w))
}
