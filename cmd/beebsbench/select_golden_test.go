package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/evaluation"
)

var updateSelection = flag.Bool("update-selection", false, "rewrite testdata/selection.golden from the current pipeline")

const selectionGolden = "testdata/selection.golden"

// TestSelectionGolden pins the -select section: one JSON line per
// benchmark, the document runSelect builds for `beebsbench -select
// -json` (winner, its energy and every candidate's row). A deliberate
// change to the candidates or the pipeline regenerates the file with
// -update-selection and says why.
func TestSelectionGolden(t *testing.T) {
	var doc document
	if err := runSelect(context.Background(), evaluation.NewSweep(1), true, &doc); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, best := range doc.Selection {
		line, err := json.Marshal(best)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(line)
		got.WriteByte('\n')
	}
	if *updateSelection {
		if err := os.WriteFile(selectionGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(selectionGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-selection to create it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Errorf("line %d changed:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Errorf("%d lines, golden has %d", len(g), len(w))
	}
}
