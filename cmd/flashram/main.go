// Command flashram is the one-shot driver for the flash→RAM placement
// optimization: it compiles a program (a built-in BEEBS benchmark or an
// mcc source file), runs the paper's pipeline, and reports baseline
// versus optimized energy, time and power on the simulated board.
//
// Usage:
//
//	flashram -bench int_matmult -O O2
//	flashram -src kernel.c -O Os -xlimit 1.1 -rspare 1024
//	flashram -bench crc32 -powertrace steady -ckptaware   # harvested-power replay
//	flashram -fig1
//	flashram analyze -all            # static-analysis lint, no simulation
//	flashram analyze -bench crc32 -v
//	flashram analyze -all -bounds -json  # machine-readable diagnostics
//	flashram bounds -all             # static energy brackets vs simulation
//	flashram profile -bench sha -O Os -top 5
//	flashram profile -bench crc32 -json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/beebs"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/evaluation"
	"repro/internal/placement"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "analyze" {
		runAnalyze(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "profile" {
		runProfile(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "bounds" {
		runBounds(os.Args[2:])
		return
	}
	knobs := addRequestFlags(flag.CommandLine)
	var (
		dump   = flag.Bool("dump", false, "dump the optimized assembly")
		emit   = flag.String("emit", "", "write the encoded machine-code image to <prefix>.flash.bin and <prefix>.ram.bin")
		disasm = flag.Bool("disasm", false, "disassemble the optimized image (encoded bytes + assembly)")
		asJSON = flag.Bool("json", false, "emit the run as one JSON document (the schema shared with beebsbench/tradeoff and the flashramd service)")
		fig1   = flag.Bool("fig1", false, "print the Figure 1 instruction-power table and exit")
		list   = flag.Bool("list", false, "list built-in benchmarks and exit")
	)
	flag.Parse()

	if *list {
		for _, b := range beebs.All() {
			kind := "integer"
			if b.UsesFloat {
				kind = "soft-float"
			}
			fmt.Printf("%-15s %s\n", b.Name, kind)
		}
		return
	}
	ctx, stop := cliutil.Context(knobs.timeout)
	defer stop()

	if *fig1 {
		rows, err := evaluation.NewSweep(1).Figure1(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Figure 1: average power per instruction class (mW)")
		fmt.Printf("%-12s %-7s %8s\n", "class", "memory", "power")
		for _, r := range rows {
			fmt.Printf("%-12s %-7s %8.2f\n", r.Label, r.Mem, r.PowerMW)
		}
		return
	}

	cell, err := knobs.resolve()
	if err != nil {
		fatal(err)
	}
	// The cell runs through the daemon's own runner, so a pipeline
	// failure reads as /v1/optimize reports it. With -profile the
	// frequency estimate reuses the baseline run the report measures
	// anyway, so the program is simulated twice (baseline + optimized),
	// not three times.
	run, err := evaluation.NewSweep(1).RunBenchmark(ctx, cell.Bench, cell.Level, cell.Opts)
	if err != nil {
		fatal(err)
	}
	rep := run.Report

	if *asJSON {
		// The one encoder the flashramd service answers through, so
		// `flashram -json` and a /v1/optimize response for the same
		// request are the same bytes.
		doc, err := evaluation.EncodeRun(run)
		if err != nil {
			fatal(err)
		}
		if _, err := os.Stdout.Write(doc); err != nil {
			fatal(err)
		}
		return
	}

	printSummary(run, cell.Opts.Solver)
	fmt.Printf("  placement: %d blocks (%d bytes RAM code), solver nodes %d, proven %v\n",
		len(rep.MovedLabels()), rep.Optimized.RAMCodeBytes, rep.Placement.Nodes, rep.Placement.Proven)
	if rep.Strategy != "" && rep.Strategy != placement.StrategyILPOptimal &&
		rep.Strategy != placement.StrategyWarmILPOptimal {
		fmt.Printf("  strategy : %s (%s)\n", rep.Strategy, rep.StrategyReason)
	}
	fmt.Printf("  moved    : %v\n", rep.MovedLabels())
	if ic := rep.Intermittent; ic != nil {
		j := evaluation.NewIntermittentJSON(ic)
		mode := "checkpoint-oblivious"
		if ic.CkptAware {
			mode = fmt.Sprintf("checkpoint-aware (%.3f nJ/byte)", ic.CkptNJPerByte)
		}
		fmt.Printf("  intermittent: %d outages, checkpoint every %d cycles, %s placement\n",
			ic.Outages, ic.CheckpointCycles, mode)
		fmt.Printf("    baseline : %.0f useful instr/mJ, %.3f ms to completion (%d replayed)\n",
			j.Baseline.WorkPerMJ, j.Baseline.WallMS, j.Baseline.ReplayedInstructions)
		fmt.Printf("    optimized: %.0f useful instr/mJ, %.3f ms to completion (%d replayed)\n",
			j.Optimized.WorkPerMJ, j.Optimized.WallMS, j.Optimized.ReplayedInstructions)
		fmt.Printf("    work per delivered mJ: %+.1f%%\n", 100*j.WorkChange)
	}
	if *dump {
		fmt.Println("---- optimized program ----")
		fmt.Print(rep.Optimized0.String())
	}
	if *disasm {
		lines, err := encode.Disassemble(rep.Image)
		if err != nil {
			fatal(err)
		}
		fmt.Println("---- disassembly ----")
		for _, l := range lines {
			fmt.Println(l)
		}
	}
	if *emit != "" {
		flash, ram, err := encode.Image(rep.Image)
		if err != nil {
			fatal(err)
		}
		flashFile := *emit + ".flash.bin"
		ramFile := *emit + ".ram.bin"
		if err := os.WriteFile(flashFile, flash, 0o644); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(ramFile, ram, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("  emitted  : %s (%d bytes), %s (%d bytes of .ramcode, copied at boot)\n",
			flashFile, len(flash), ramFile, len(ram))
	}
}

// solverName labels a run's solver, naming the default the pipeline
// picks for an empty one.
func solverName(s core.Solver) string {
	if s == "" {
		return string(core.SolverILP)
	}
	return string(s)
}

// printSummary prints the header and the baseline/optimized/change lines
// every flashram run mode opens its text report with.
func printSummary(run *evaluation.Run, solver core.Solver) {
	rep := run.Report
	fmt.Printf("%s at %v (%s solver)\n", run.Bench, run.Level, solverName(solver))
	fmt.Printf("  baseline : %.4f mJ, %.3f ms, %.2f mW (%d cycles)\n",
		rep.Baseline.EnergyMJ, 1e3*rep.Baseline.TimeS, rep.Baseline.PowerMW, rep.Baseline.Cycles)
	fmt.Printf("  optimized: %.4f mJ, %.3f ms, %.2f mW (%d cycles)\n",
		rep.Optimized.EnergyMJ, 1e3*rep.Optimized.TimeS, rep.Optimized.PowerMW, rep.Optimized.Cycles)
	fmt.Printf("  change   : energy %+.1f%%, time %+.1f%%, power %+.1f%%\n",
		100*rep.EnergyChange, 100*rep.TimeChange, 100*rep.PowerChange)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flashram:", err)
	os.Exit(1)
}
