package evaluation

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/mcc"
)

var updateFigure6 = flag.Bool("update-figure6", false, "rewrite testdata/figure6.golden from the current solver")

const figure6Golden = "testdata/figure6.golden"

// The constraint sweeps cmd/tradeoff traces.
var (
	figure6RAMSweep = []float64{0, 16, 32, 64, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 4096}
	figure6XSweep   = []float64{1.0, 1.01, 1.02, 1.05, 1.1, 1.15, 1.2, 1.3, 1.5, 2.0}
)

// figure6Lines hashes the Figure 6 document (`tradeoff -json -points`
// bytes, k = 8) of every BEEBS benchmark at O2 and Os: one SHA-256 per
// (benchmark, level).
func figure6Lines(t *testing.T, cold bool) []string {
	t.Helper()
	var lines []string
	for _, b := range beebs.All() {
		for _, level := range []mcc.OptLevel{mcc.O2, mcc.Os} {
			sw := NewSweep(1)
			sw.ColdSolve = cold
			data, err := sw.Figure6(context.Background(), b.Name, level, 8, figure6RAMSweep, figure6XSweep)
			if err != nil {
				t.Fatalf("%s/%v cold=%v: %v", b.Name, level, cold, err)
			}
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(NewFigure6JSON(data, level.String(), true)); err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%s %v %x", b.Name, level, sha256.Sum256(buf.Bytes())))
		}
	}
	return lines
}

// TestFigure6Golden pins every Figure 6 document, warm-started and cold:
// solver speedups must leave each line unchanged. A deliberate change to
// the model or the solver's answers regenerates the file with
// -update-figure6 and says why.
func TestFigure6Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("20 full trade-off sweeps, twice")
	}
	warm := figure6Lines(t, false)
	want, ok := goldenLines(t, figure6Golden, "-update-figure6", *updateFigure6, warm)
	if !ok {
		return
	}
	for pass, got := range map[string][]string{"warm": warm, "cold": figure6Lines(t, true)} {
		if len(got) != len(want) {
			t.Fatalf("%s: golden has %d lines, sweep produced %d", pass, len(want), len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: Figure 6 document changed:\n got  %s\n want %s", pass, got[i], want[i])
			}
		}
	}
}

// goldenLines returns the lines of a golden file, or with update set
// rewrites it from got and reports false. A missing file names the flag
// that creates it.
func goldenLines(t *testing.T, path, flag string, update bool, got []string) ([]string, bool) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return nil, false
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with %s to create it)", err, flag)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	return want, true
}

var updateNodes = flag.Bool("update-nodes", false, "rewrite testdata/nodes.golden from the current solver")

const nodesGolden = "testdata/nodes.golden"

// figure6Nodes runs the Figure 6 sweep (k = 8) of every BEEBS benchmark
// at O2 and Os, then reads each path point's branch-and-bound node count
// back through its session's memoized core.Session.Solve: one line per
// (benchmark, level, path), counts in the sweep's order.
func figure6Nodes(t *testing.T, cold bool) []string {
	t.Helper()
	mode := "warm"
	if cold {
		mode = "cold"
	}
	var lines []string
	for _, b := range beebs.All() {
		for _, level := range []mcc.OptLevel{mcc.O2, mcc.Os} {
			sw := NewSweep(1)
			sw.ColdSolve = cold
			if _, err := sw.Figure6(context.Background(), b.Name, level, 8, figure6RAMSweep, figure6XSweep); err != nil {
				t.Fatalf("%s/%v cold=%v: %v", b.Name, level, cold, err)
			}
			sess, err := sw.Session(b, level)
			if err != nil {
				t.Fatal(err)
			}
			spare, err := sess.SpareRAM()
			if err != nil {
				t.Fatal(err)
			}
			nodes := func(path string, sweep []float64, spec func(v float64) core.ModelSpec) {
				counts := make([]int, len(sweep))
				for i, v := range sweep {
					res, err := sess.Solve(context.Background(), core.SolveSpec{ModelSpec: spec(v), Solver: core.SolverILP})
					if err != nil {
						t.Fatalf("%s/%v %s %v: %v", b.Name, level, path, v, err)
					}
					counts[i] = res.Nodes
				}
				lines = append(lines, fmt.Sprintf("%s %v %s %s %v", b.Name, level, mode, path, counts))
			}
			nodes("ram", figure6RAMSweep, func(rs float64) core.ModelSpec {
				return core.ModelSpec{Rspare: rs, Xlimit: 1e9, MaxCandidates: 8}
			})
			nodes("time", figure6XSweep, func(xl float64) core.ModelSpec {
				return core.ModelSpec{Rspare: spare, Xlimit: xl, MaxCandidates: 8}
			})
		}
	}
	return lines
}

// TestNodesGolden pins the branch-and-bound node count of every Figure 6
// path point, warm-started and cold: a solver speedup that claims to
// leave the search tree alone must leave each line unchanged.
func TestNodesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("20 full trade-off sweeps, twice")
	}
	got := append(figure6Nodes(t, false), figure6Nodes(t, true)...)
	want, ok := goldenLines(t, nodesGolden, "-update-nodes", *updateNodes, got)
	if !ok {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("golden has %d lines, sweeps produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("node counts changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
