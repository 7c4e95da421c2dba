package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/evaluation"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/trace"
)

// profileDoc is the `flashram profile -json` document. The run and
// attribution sections reuse the shared schema (internal/evaluation and
// internal/trace JSON types) so beebsbench/tradeoff consumers parse the
// same field names.
type profileDoc struct {
	Bench     string                 `json:"bench"`
	Level     string                 `json:"level"`
	Solver    string                 `json:"solver"`
	Run       evaluation.RunJSON     `json:"run"`
	Baseline  trace.ProfileJSON      `json:"baseline_profile"`
	Optimized trace.ProfileJSON      `json:"optimized_profile"`
	Savers    []evaluation.SaverJSON `json:"savers"`
	ModelDiff trace.DiffJSON         `json:"model_diff"`
}

// runProfile implements the `flashram profile` subcommand: run the full
// pipeline with the energy-attribution tracer attached, then report where
// the cycles and nanojoules went — per block, function, memory and class —
// plus the before/after attribution diff and the model-vs-measured
// comparison of §6.
func runProfile(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	knobs := addRequestFlags(fs)
	var (
		top     = fs.Int("top", 10, "rows per table (<= 0 shows everything)")
		outlier = fs.Float64("outlier", 0.5, "relative model-vs-measured disagreement that flags a block")
		asJSON  = fs.Bool("json", false, "emit one machine-readable JSON document")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: flashram profile [-bench name | -src file] [flags]

Runs the placement pipeline with the cycle-level energy-attribution tracer
attached to both simulations and reports the hot blocks, the per-memory and
per-class splits, which blocks produced the energy saving, and where the
ILP cost model disagrees with the measured attribution.`)
		fs.PrintDefaults()
	}
	fs.Parse(args)

	cell, err := knobs.resolve()
	if err != nil {
		fatal(err)
	}
	// The traced run goes through flashram's own cell runner, so the
	// -profile frequency estimate shares the baseline simulation with the
	// report itself.
	ctx, stop := cliutil.Context(knobs.timeout)
	defer stop()
	cell.Opts.Trace = true
	run, err := evaluation.NewSweep(1).RunBenchmark(ctx, cell.Bench, cell.Level, cell.Opts)
	if err != nil {
		fatal(err)
	}
	rep := run.Report

	diff := trace.ModelDiff(rep.OptimizedTrace, rep.Model, rep.Placement.InRAM,
		trace.DiffOptions{OutlierRelErr: *outlier})
	savers := rep.BlockSavings(*top)

	if *asJSON {
		doc := profileDoc{
			Bench:     run.Bench,
			Level:     run.Level.String(),
			Solver:    solverName(cell.Opts.Solver),
			Run:       evaluation.NewRunJSON(run),
			Baseline:  rep.BaselineTrace.JSON(*top),
			Optimized: rep.OptimizedTrace.JSON(*top),
			ModelDiff: diff.JSON(*top),
		}
		for _, s := range savers {
			doc.Savers = append(doc.Savers, evaluation.NewSaverJSON(s))
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatal(err)
		}
		return
	}

	printSummary(run, cell.Opts.Solver)

	printHotBlocks("baseline", rep.BaselineTrace, *top)
	printHotBlocks("optimized", rep.OptimizedTrace, *top)
	printMemAndClass(rep.OptimizedTrace)
	printSavers(rep, savers)
	printDiff(diff, *top)
}

func printHotBlocks(which string, p *trace.Profile, top int) {
	fmt.Printf("\nhot blocks (%s run), by attributed energy:\n", which)
	fmt.Printf("  %-22s %-14s %-5s %9s %10s %7s %11s %6s\n",
		"block", "func", "mem", "entries", "cycles", "stalls", "energy(uJ)", "share")
	for _, b := range p.TopBlocks(top) {
		mem := power.Flash
		if b.InRAM {
			mem = power.RAM
		}
		share := 0.0
		if p.TotalEnergyNJ > 0 {
			share = b.EnergyNJ / p.TotalEnergyNJ
		}
		fmt.Printf("  %-22s %-14s %-5s %9d %10d %7d %11.2f %5.1f%%\n",
			b.Label, b.Func, mem, b.Entries, b.Cycles, b.StallCycles,
			b.EnergyNJ/1e3, 100*share)
	}
}

func printMemAndClass(p *trace.Profile) {
	fmt.Println("\nattribution by fetch memory and instruction class (optimized run):")
	for _, mem := range []power.Memory{power.Flash, power.RAM} {
		fmt.Printf("  %-6s %12d cycles %12.2f uJ (%5.1f%% of energy)\n",
			mem, p.ByMem[mem].Cycles, p.ByMem[mem].EnergyNJ/1e3, 100*p.MemShare(mem))
	}
	for i, c := range p.ByClass {
		if c.Instructions == 0 {
			continue
		}
		share := 0.0
		if p.TotalEnergyNJ > 0 {
			share = c.EnergyNJ / p.TotalEnergyNJ
		}
		fmt.Printf("  %-6s %12d cycles %12.2f uJ (%5.1f%% of energy)\n",
			isa.Class(i), c.Cycles, c.EnergyNJ/1e3, 100*share)
	}
}

func printSavers(rep *core.Report, savers []core.BlockSaving) {
	fmt.Println("\nwhere the saving came from (baseline → optimized attribution diff):")
	fmt.Printf("  %-22s %-14s %-5s %11s %11s %11s\n",
		"block", "func", "mem", "base(uJ)", "opt(uJ)", "saved(uJ)")
	for _, s := range savers {
		mem := "flash"
		if s.InRAM {
			mem = "ram"
		}
		fmt.Printf("  %-22s %-14s %-5s %11.2f %11.2f %+11.2f\n",
			s.Label, s.Func, mem, s.BaselineNJ/1e3, s.OptimizedNJ/1e3, s.SavedNJ/1e3)
	}
}

func printDiff(d *trace.Diff, top int) {
	fmt.Printf("\nmodel vs measured energy shares (optimized run): %d outlier block(s)\n", d.Outliers)
	fmt.Printf("  %-22s %-14s %-5s %9s %9s %9s %9s %7s\n",
		"block", "func", "mem", "meas", "pred", "Fmeas", "Fpred", "relerr")
	n := 0
	for _, b := range d.Blocks {
		if n >= top && top > 0 {
			break
		}
		flag := " "
		if b.Outlier {
			flag = "!"
		}
		mem := "flash"
		if b.InRAM {
			mem = "ram"
		}
		fmt.Printf("%s %-22s %-14s %-5s %8.1f%% %8.1f%% %9.0f %9.0f %6.0f%%\n",
			flag, b.Label, b.Func, mem, 100*b.MeasuredShare, 100*b.PredictedShare,
			b.MeasuredF, b.PredictedF, 100*b.RelErr)
		n++
	}
	if d.Outliers > 0 {
		fmt.Println("  (! = model off by more than the -outlier threshold on a significant block —")
		fmt.Println("   §6: usually the static frequency estimate missing data-dependent behaviour)")
	}
}
