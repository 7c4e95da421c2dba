// Trade-off space: explore the Figure 6 energy/time/RAM space for a
// benchmark, comparing all four placement solvers (ILP, greedy,
// function-level, and exhaustive over the 12 hottest blocks) on the same
// model — showing why the ILP's clustering beats the greedy knapsack.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/beebs"
	"repro/internal/cfg"
	"repro/internal/freq"
	"repro/internal/layout"
	"repro/internal/mcc"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/transform"
)

func main() {
	bench := beebs.Get("dijkstra")
	prog, err := mcc.Compile(bench.Source, mcc.O2)
	if err != nil {
		log.Fatal(err)
	}
	graphs, err := cfg.BuildAll(prog)
	if err != nil {
		log.Fatal(err)
	}
	est := freq.Static(prog, graphs)
	ef, er := power.STM32F100().Coefficients()

	// One family: the blocks, edges and ILP lowering are extracted once,
	// and each RAM budget is a view of it that differs only in Rspare.
	family, err := model.Build(prog, graphs, est, model.Params{
		EFlash: ef, ERAM: er, Rspare: 0, Xlimit: 1.5,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("dijkstra at O2: solver comparison across RAM budgets")
	fmt.Printf("%-8s %-12s %14s %12s %10s %8s\n",
		"budget", "solver", "energy (uJ)", "cycles", "RAM used", "blocks")
	var headline *placement.Result
	for _, rspare := range []float64{128, 512, 2048} {
		m, err := family.WithBounds(rspare, 1.5)
		if err != nil {
			log.Fatal(err)
		}
		ilpRes, err := placement.SolveILP(context.Background(), m, placement.Budget{})
		if err != nil {
			log.Fatal(err)
		}
		exRes, err := placement.SolveExhaustive(m, 12)
		if err != nil {
			log.Fatal(err)
		}
		results := []*placement.Result{
			ilpRes,
			placement.SolveGreedy(m),
			placement.SolveFunctionLevel(m, prog),
			exRes,
		}
		for _, r := range results {
			fmt.Printf("%-8.0f %-12s %14.2f %12.0f %10.0f %8d\n",
				rspare, r.Method, r.Outcome.EnergyNJ/1e3, r.Outcome.Cycles,
				r.Outcome.RAMBytes, len(r.InRAM))
		}
		if rspare == 2048 {
			headline = ilpRes
		}
	}

	// Verify the headline placement (the ILP at 2 KiB) actually
	// transforms and lays out: the chosen blocks move to RAM and every
	// flash↔RAM edge is instrumented.
	fmt.Printf("\nILP at 2 KiB: %d blocks chosen; model predicts %.2f uJ (baseline %.2f uJ)\n",
		len(headline.InRAM), headline.Outcome.EnergyNJ/1e3, family.BaseEnergyNJ/1e3)
	opt := prog.Clone()
	trep, err := transform.Apply(opt, headline.InRAM)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := layout.New(opt, layout.DefaultConfig(), headline.InRAM); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transformed layout OK: %d blocks moved, %d instrumented; run `flashram -bench dijkstra` for measured numbers\n",
		len(trep.Moved), len(trep.Instrumented))
}
