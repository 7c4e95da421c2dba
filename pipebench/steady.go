package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// deterministic metrics must read bit-identical on every run: each run
// visits the same set of cells whatever its seed.
func deterministic(metric string) bool { return strings.HasSuffix(metric, "_ratio_geomean") }

// steadiness runs each selected workload `runs` times untraced, with seeds
// seed, seed+1, ..., each in a child process, and (when runs > 1) twice
// traced with the first seed. For every end-to-end metric it prints the median, the
// quartiles and (Q3−Q1)/median against the bound in BENCHMARK.json. It
// fails when any operation failed, a spread other than setup_s exceeds its
// bound, a deterministic metric moves at all, or placement.bb_nodes
// differs between the traced runs of a single-client workload.
func steadiness(ctx context.Context, name string, seed int64, seconds, runs int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("steadiness mode reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var selected []string
	for _, w := range workloads {
		if name == "all" || name == w.name {
			selected = append(selected, w.name)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}

	summary := result{Correct: true, Metrics: map[string]metricValue{}}
	var problems []string
	for _, wl := range selected {
		var results []*result
		for r := 0; r < runs; r++ {
			res, err := child(ctx, self, wl, seed+int64(r), seconds, 0)
			if err != nil {
				return err
			}
			fmt.Printf("%s seed %d: %d ops, %d failed\n", wl, seed+int64(r), res.Attempted, res.Failed)
			results = append(results, res)
		}
		fmt.Printf("\n%s: %d runs, seeds %d..%d\n", wl, runs, seed, seed+int64(runs)-1)
		fmt.Printf("  %-26s %12s %12s %12s %9s %7s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, m := range spec.EndToEnd {
			vals := make([]float64, 0, len(results))
			for _, res := range results {
				v, ok := res.Metrics[m.Name]
				if !ok {
					return fmt.Errorf("%s: run printed no %s", wl, m.Name)
				}
				vals = append(vals, v.Value)
			}
			med := median(vals)
			q1, q3 := quartiles(vals)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			verdict := ""
			switch {
			case deterministic(m.Name) && !allEqual(vals):
				verdict = "MOVED"
				problems = append(problems, fmt.Sprintf("%s %s is deterministic but moved: %v", wl, m.Name, vals))
			case m.Name != "setup_s" && spread > m.Bound:
				verdict = "TOO WIDE"
				problems = append(problems, fmt.Sprintf("%s %s spread %.4f exceeds bound %.4f", wl, m.Name, spread, m.Bound))
			case spread > m.Bound/3:
				verdict = "(above bound/3)"
			}
			fmt.Printf("  %-26s %12.6g %12.6g %12.6g %9.4f %7.3f %s %s\n", m.Name, med, q1, q3, spread, m.Bound, m.Unit, verdict)
			summary.Metrics[wl+"/"+m.Name] = metricValue{Value: med, Unit: m.Unit}
		}
		for _, res := range results {
			summary.Attempted += res.Attempted
			summary.Failed += res.Failed
			if !res.Correct || res.Failed > 0 {
				problems = append(problems, fmt.Sprintf("%s: a run had %d failed ops", wl, res.Failed))
			}
		}

		if runs < 2 {
			continue
		}
		var nodes []float64
		for r := 0; r < 2; r++ {
			res, err := child(ctx, self, wl, seed, seconds, 1)
			if err != nil {
				return err
			}
			nodes = append(nodes, res.Metrics["placement.bb_nodes"].Value)
			summary.Attempted += res.Attempted
			summary.Failed += res.Failed
		}
		fmt.Printf("  traced twice with seed %d: placement.bb_nodes %v\n\n", seed, nodes)
		if lookupClients(wl) == 1 && !allEqual(nodes) {
			problems = append(problems, fmt.Sprintf("%s placement.bb_nodes differs between traced runs: %v", wl, nodes))
		}
	}
	for _, p := range problems {
		fmt.Println("FAIL:", p)
	}
	summary.Correct = len(problems) == 0
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(problems) > 0 {
		return fmt.Errorf("%d steadiness problem(s)", len(problems))
	}
	return nil
}

func lookupClients(name string) int { return lookup(name)(1, 1).clients() }

// child runs one workload in a child process and parses its last line.
func child(ctx context.Context, self, wl string, seed int64, seconds, traced int) (*result, error) {
	cmd := exec.CommandContext(ctx, self, "--workload", wl, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(out.Bytes())
		return nil, fmt.Errorf("%s seed %d: %w", wl, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line: %w", wl, seed, err)
	}
	if traced == 1 {
		os.Stdout.Write(out.Bytes())
	}
	return &res, nil
}

// quartiles matches Python's statistics.quantiles(values, n=4), whose
// default method is "exclusive".
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func allEqual(v []float64) bool {
	for _, x := range v {
		if x != v[0] {
			return false
		}
	}
	return true
}
