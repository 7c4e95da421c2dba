package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis/bounds"
	"repro/internal/beebs"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/evaluation"
	"repro/internal/mcc"
)

// runBounds implements the `flashram bounds` subcommand: for each
// benchmark × level cell it computes the static energy/cycle brackets of
// both the all-flash baseline and the optimized placement, simulates
// both, and verifies the analysis' defining invariant
//
//	lower ≤ simulated ≤ upper
//
// on every cell. Exits 1 on any bracket violation, or when fewer than
// -minfinite cells produce finite (non-⊤) brackets.
func runBounds(args []string) {
	fs := flag.NewFlagSet("bounds", flag.ExitOnError)
	var (
		benchName = fs.String("bench", "", "built-in BEEBS benchmark name")
		all       = fs.Bool("all", false, "bracket every built-in benchmark")
		level     = fs.String("O", "", "optimization level (default: both O2 and Os)")
		minFinite = fs.Int("minfinite", 0, "fail unless at least this many cells have finite brackets")
		jsonOut   = fs.Bool("json", false, "emit the bracket table as JSON")
		timeout   = fs.Duration("timeout", 0, "overall wall-clock budget (0 = none); SIGINT also cancels")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: flashram bounds [-bench name | -all] [flags]

Computes whole-program static energy/cycle brackets (lower and upper
bounds, no simulation needed) for the baseline and the optimized
placement of each benchmark, then simulates both and checks
lower <= simulated <= upper. Prints one row per cell with the bracket
tightness (upper / simulated); ⊤ marks a cell whose bounds analysis
could not bound some loop or call.`)
		fs.PrintDefaults()
	}
	fs.Parse(args)

	levels := []mcc.OptLevel{mcc.O2, mcc.Os}
	if *level != "" {
		lv, err := mcc.ParseOptLevel(*level)
		if err != nil {
			fatal(err)
		}
		levels = []mcc.OptLevel{lv}
	}

	var benches []*beebs.Benchmark
	switch {
	case *all:
		benches = beebs.All()
	case *benchName != "":
		b := beebs.Get(*benchName)
		if b == nil {
			fatal(fmt.Errorf("unknown benchmark %q (use flashram -list)", *benchName))
		}
		benches = []*beebs.Benchmark{b}
	default:
		fs.Usage()
		os.Exit(2)
	}

	ctx, stop := cliutil.Context(*timeout)
	defer stop()

	var rows []boundsRow
	violations := 0
	finite := 0
	for _, b := range benches {
		for _, lv := range levels {
			row, err := boundsCell(ctx, b, lv)
			if err != nil {
				fatal(fmt.Errorf("%s %v: %w", b.Name, lv, err))
			}
			rows = append(rows, *row)
			violations += len(row.Violations)
			if row.Baseline.Bounded && row.Optimized.Bounded {
				finite++
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("%-15s %-3s %-9s %12s %12s %12s %9s  %s\n",
			"bench", "O", "image", "lower", "simulated", "upper", "hi/sim", "loops")
		for _, r := range rows {
			printBracket(r.Bench, r.Level, "baseline", r.Baseline)
			printBracket(r.Bench, r.Level, "optimized", r.Optimized)
			for _, v := range r.Violations {
				fmt.Printf("%-15s %-3s BRACKET VIOLATION: %s\n", r.Bench, r.Level, v)
			}
		}
		fmt.Printf("finite brackets: %d/%d cells\n", finite, len(rows))
	}

	if violations > 0 {
		fmt.Fprintf(os.Stderr, "flashram bounds: %d bracket violation(s)\n", violations)
		os.Exit(1)
	}
	if finite < *minFinite {
		fmt.Fprintf(os.Stderr, "flashram bounds: only %d/%d cells have finite brackets, want >= %d\n",
			finite, len(rows), *minFinite)
		os.Exit(1)
	}
}

// bracketJSON is one image's bound-versus-simulation comparison in the
// shared CLI schema.
type bracketJSON struct {
	LowerCycles   float64 `json:"lower_cycles"`
	SimCycles     uint64  `json:"sim_cycles"`
	UpperCycles   float64 `json:"upper_cycles,omitempty"`
	LowerEnergyNJ float64 `json:"lower_energy_nj"`
	SimEnergyNJ   float64 `json:"sim_energy_nj"`
	UpperEnergyNJ float64 `json:"upper_energy_nj,omitempty"`
	Bounded       bool    `json:"bounded"`
	Reason        string  `json:"reason,omitempty"`
	Tightness     float64 `json:"tightness,omitempty"` // upper / simulated cycles
	LoopsInferred int     `json:"loops_inferred"`
	LoopsTotal    int     `json:"loops_total"`
}

type boundsRow struct {
	Bench      string      `json:"bench"`
	Level      string      `json:"level"`
	Baseline   bracketJSON `json:"baseline"`
	Optimized  bracketJSON `json:"optimized"`
	Violations []string    `json:"violations,omitempty"`
}

// boundsCell brackets and simulates both images of one benchmark × level
// cell through a shared session, collecting any bracket violations
// instead of failing fast.
func boundsCell(ctx context.Context, b *beebs.Benchmark, lv mcc.OptLevel) (*boundsRow, error) {
	sess, err := evaluation.NewSession(b, lv)
	if err != nil {
		return nil, err
	}
	prog := sess.Program()
	row := &boundsRow{Bench: b.Name, Level: lv.String()}
	graphs, err := sess.Graphs()
	if err != nil {
		return nil, err
	}

	baseM, err := sess.Baseline(ctx)
	if err != nil {
		return nil, err
	}
	baseBr, err := bounds.Compute(prog, graphs, baseM.Image, sess.Profile())
	if err != nil {
		return nil, err
	}
	row.Baseline = newBracketJSON(baseBr, baseM.Stats.Cycles, baseM.Stats.EnergyNJ)
	if err := baseBr.Check(baseM.Stats.Cycles, baseM.Stats.EnergyNJ); err != nil {
		row.Violations = append(row.Violations, fmt.Sprintf("baseline: %v", err))
	}

	rep, err := sess.Optimize(ctx, core.Options{})
	if err != nil {
		return nil, err
	}
	optBr, err := bounds.Compute(prog, graphs, rep.Image, sess.Profile())
	if err != nil {
		return nil, err
	}
	row.Optimized = newBracketJSON(optBr, rep.Optimized.Stats.Cycles, rep.Optimized.Stats.EnergyNJ)
	if err := optBr.Check(rep.Optimized.Stats.Cycles, rep.Optimized.Stats.EnergyNJ); err != nil {
		row.Violations = append(row.Violations, fmt.Sprintf("optimized: %v", err))
	}
	return row, nil
}

func newBracketJSON(br *bounds.Result, cycles uint64, energyNJ float64) bracketJSON {
	j := bracketJSON{
		LowerCycles:   br.Whole.LoCycles,
		SimCycles:     cycles,
		LowerEnergyNJ: br.Whole.LoEnergyNJ,
		SimEnergyNJ:   energyNJ,
		Bounded:       br.Whole.Bounded,
		Reason:        br.Whole.Reason,
		LoopsInferred: br.LoopsInferred,
		LoopsTotal:    br.LoopsTotal,
	}
	if br.Whole.Bounded {
		j.UpperCycles = br.Whole.HiCycles
		j.UpperEnergyNJ = br.Whole.HiEnergyNJ
		if cycles > 0 {
			j.Tightness = br.Whole.HiCycles / float64(cycles)
		}
	}
	return j
}

func printBracket(bench, level, image string, b bracketJSON) {
	upper, tight := "⊤", "-"
	if b.Bounded {
		upper = fmt.Sprintf("%12.0f", b.UpperCycles)
		tight = fmt.Sprintf("%9.2f", b.Tightness)
	}
	fmt.Printf("%-15s %-3s %-9s %12.0f %12d %12s %9s  %d/%d\n",
		bench, level, image, b.LowerCycles, b.SimCycles, upper, tight,
		b.LoopsInferred, b.LoopsTotal)
}
