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

var (
	updateSelection  = flag.Bool("update-selection", false, "rewrite testdata/selection.golden from the current pipeline")
	updateEvaluation = flag.Bool("update-evaluation", false, "rewrite testdata/evaluation.golden from the current pipeline")
)

const (
	selectionGolden  = "testdata/selection.golden"
	evaluationGolden = "testdata/evaluation.golden"
)

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
	checkGolden(t, selectionGolden, got.Bytes(), *updateSelection, "-update-selection")
}

// TestEvaluationGolden pins the whole `beebsbench -all -json -noledger`
// document: Figure 5, the §6 aggregate, the savers, the case study,
// Figure 9, the harvested-power sweep and the selection, byte for byte.
// A deliberate change to any number regenerates the file with
// -update-evaluation and names what moved and why.
func TestEvaluationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation")
	}
	all := sections{fig5: true, aggregate: true, savers: true, study: true, fig9: true, intermit: true, sel: true}
	doc := runSections(context.Background(), evaluation.NewSweep(1), all, true, 3)
	var got bytes.Buffer
	if err := writeDocument(&got, doc); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, evaluationGolden, got.Bytes(), *updateEvaluation, "-update-evaluation")
}

// checkGolden compares got with the golden file at path line by line,
// or rewrites the file when update is set.
func checkGolden(t *testing.T, path string, got []byte, update bool, updateFlag string) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with %s to create it)", err, updateFlag)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Errorf("line %d changed:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Errorf("%d lines, golden has %d", len(g), len(w))
	}
}
