package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// experimentsDoc is the prose write-up whose headline tables quote the
// evaluation golden.
const experimentsDoc = "../../EXPERIMENTS.md"

// tableAfter returns the cells of the first Markdown table that follows
// the first line of doc starting with marker, header and separator rows
// dropped, every cell trimmed of spaces and bold markers.
func tableAfter(t *testing.T, doc, marker string) [][]string {
	t.Helper()
	lines := strings.Split(doc, "\n")
	i := 0
	for i < len(lines) && !strings.HasPrefix(lines[i], marker) {
		i++
	}
	if i == len(lines) {
		t.Fatalf("%s: no line starts with %q", experimentsDoc, marker)
	}
	for i < len(lines) && !strings.HasPrefix(lines[i], "|") {
		i++
	}
	var rows [][]string
	for i += 2; i < len(lines) && strings.HasPrefix(lines[i], "|"); i++ {
		var row []string
		for _, c := range strings.Split(strings.Trim(lines[i], "|"), "|") {
			row = append(row, strings.Trim(c, " *"))
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		t.Fatalf("%s: no table after %q", experimentsDoc, marker)
	}
	return rows
}

// printed renders a fraction as the documents print a percentage: one
// decimal, a sign on changes, and the typographic minus.
func printed(frac float64, signed bool) string {
	format := "%.1f"
	if signed {
		format = "%+.1f"
	}
	return strings.Replace(fmt.Sprintf(format, 100*frac), "-", "−", 1)
}

// TestExperimentsQuoteTheGolden: EXPERIMENTS.md's Figure 5 unconstrained
// table and its §6 aggregate table print exactly what the evaluation
// golden holds, at their 0.1% precision — every O2 row of Figure 5 and
// every measured aggregate, so the write-up cannot drift from the
// numbers the pipeline pins.
func TestExperimentsQuoteTheGolden(t *testing.T) {
	raw, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	var golden struct {
		Fig5 []struct {
			Bench        string  `json:"bench"`
			Level        string  `json:"level"`
			EnergyChange float64 `json:"energy_change"`
			TimeChange   float64 `json:"time_change"`
			PowerChange  float64 `json:"power_change"`
		} `json:"fig5"`
		Aggregate struct {
			MeanEnergyChange float64 `json:"mean_energy_change"`
			MeanPowerChange  float64 `json:"mean_power_change"`
			MeanTimeChange   float64 `json:"mean_time_change"`
			MaxEnergySaving  float64 `json:"max_energy_saving"`
			MaxEnergyBench   string  `json:"max_energy_bench"`
			MaxPowerSaving   float64 `json:"max_power_saving"`
			MaxPowerBench    string  `json:"max_power_bench"`
		} `json:"aggregate"`
	}
	raw, err = os.ReadFile(evaluationGolden)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}

	rows := map[string][]string{}
	for _, row := range tableAfter(t, doc, "Unconstrained configuration") {
		rows[row[0]] = row
	}
	o2 := 0
	for _, r := range golden.Fig5 {
		if r.Level != "O2" {
			continue
		}
		o2++
		row, ok := rows[r.Bench]
		if !ok {
			t.Errorf("Figure 5 table has no %s row", r.Bench)
			continue
		}
		want := []string{r.Bench, printed(r.EnergyChange, true), printed(r.TimeChange, true), printed(r.PowerChange, true)}
		for c := 1; c < len(want); c++ {
			if row[c] != want[c] {
				t.Errorf("Figure 5 %s column %d prints %s, the golden %s", r.Bench, c+1, row[c], want[c])
			}
		}
	}
	if o2 == 0 || len(rows) != o2 {
		t.Errorf("Figure 5 table has %d rows, the golden %d O2 cells", len(rows), o2)
	}

	agg := golden.Aggregate
	want := map[string]string{
		"mean energy change": printed(agg.MeanEnergyChange, true) + "%",
		"mean power change":  printed(agg.MeanPowerChange, true) + "%",
		"mean time change":   printed(agg.MeanTimeChange, true) + "%",
		"max energy saving":  printed(agg.MaxEnergySaving, false) + "% (" + agg.MaxEnergyBench + ")",
		"max power saving":   printed(agg.MaxPowerSaving, false) + "% (" + agg.MaxPowerBench + ")",
	}
	for _, row := range tableAfter(t, doc, "## §6 aggregate") {
		w, ok := want[row[0]]
		if !ok {
			t.Errorf("§6 aggregate table has an unexpected row %q", row[0])
			continue
		}
		if got := row[len(row)-1]; got != w {
			t.Errorf("§6 aggregate %s prints %s, the golden %s", row[0], got, w)
		}
		delete(want, row[0])
	}
	for q := range want {
		t.Errorf("§6 aggregate table has no %q row", q)
	}
}
