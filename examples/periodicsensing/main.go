// Periodic sensing: the paper's §7 case study as a battery-life planning
// tool. The device wakes every T seconds, runs a compute kernel (here the
// BEEBS FDCT), then sleeps at 3.5 mW. The example measures ke and kt on
// the simulated board, then answers: for my duty cycle, how much battery
// life does the optimization buy?
package main

import (
	"context"
	"fmt"
	"log"
	"repro/internal/core"

	"repro/internal/beebs"
	"repro/internal/casestudy"
	"repro/internal/evaluation"
	"repro/internal/mcc"
)

func main() {
	fmt.Println("Measuring the FDCT active region on the simulated board...")
	run, err := evaluation.NewSweep(1).RunBenchmark(context.Background(), beebs.Get("fdct"), mcc.O2, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sc := evaluation.Scenario(run)
	fmt.Printf("  E0 = %.4f mJ, TA = %.3f ms, ke = %.3f, kt = %.3f, PS = %.1f mW\n\n",
		sc.E0, 1e3*sc.TA, sc.Ke, sc.Kt, sc.PS)

	fmt.Printf("Energy saved per wake-up (Eq. 12): Es = %.4f mJ — independent of T\n\n",
		sc.EnergySaved())

	fmt.Println("Duty-cycle sweep (Figure 9):")
	fmt.Printf("  %-8s %-12s %-12s %-12s %s\n", "T/TA", "baseline", "optimized", "energy", "battery life")
	for _, p := range sc.Sweep([]float64{1, 2, 4, 8, 16}) {
		fmt.Printf("  %-8.0f %9.4f mJ %9.4f mJ %10.1f%% %+10.1f%%\n",
			p.Multiple, sc.BaselineEnergy(p.T), sc.OptimizedEnergy(p.T),
			p.EnergyPercent, 100*p.LifeExtension)
	}

	fmt.Println()
	fmt.Println("The unintuitive §7 result, isolated: even with ke = 1 (no active-")
	fmt.Println("region energy saving at all), a slower-but-lower-power active region")
	fmt.Println("still cuts total energy, because it displaces sleep time:")
	hyp := sc
	hyp.Ke = 1.0
	fmt.Printf("  ke=1.000, kt=%.3f: Es = %.4f mJ per period\n", hyp.Kt, hyp.EnergySaved())

	u, o := casestudy.Figure8()
	fmt.Printf("\nFigure 8 illustration: %.0f µJ → %.0f µJ per period\n", u, o)
}
