// Command beebsbench regenerates the paper's BEEBS evaluation:
//
//	beebsbench -fig5        Figure 5 (per-benchmark % change at O2 and Os,
//	                        with the actual-frequency dots)
//	beebsbench -aggregate   the §6 averages over O0..Os
//	beebsbench -savers      the blocks behind each benchmark's saving
//	beebsbench -casestudy   the §7 periodic-sensing numbers for fdct
//	beebsbench -fig9        Figure 9 (energy % versus period T)
//
// All selected sections run through one evaluation.Sweep, so each
// benchmark × level cell is compiled and baseline-simulated once no
// matter how many experiments revisit it. -workers N runs the benchmark
// × level sweeps across N goroutines (the output is deterministic at any
// worker count); -json emits the selected sections as one
// machine-readable document — including the session_stats reuse counters
// — using the schema shared with `flashram profile -json` and
// `tradeoff -json`.
//
// `-nofuse` dispatches every simulated instruction as a length-1
// descriptor (identical output, no superblock fusion — the
// differential-testing knob for the fusion boundaries).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/beebs"
	"repro/internal/casestudy"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/evaluation"
	"repro/internal/mcc"
	"repro/internal/power"
	"repro/internal/sim"
)

// document is the `beebsbench -json` output: one optional section per
// selected experiment, plus the sweep's pipeline-reuse counters (all the
// sections run through one evaluation.Sweep, so e.g. -all pays for each
// benchmark×level compile and baseline simulation once).
//
// Field order is the emission order; changing it changes every golden
// byte downstream.
type document struct {
	Fig5      []evaluation.Figure5RowJSON    `json:"fig5,omitempty"`
	Aggregate *evaluation.AggregateJSON      `json:"aggregate,omitempty"`
	Savers    []evaluation.SaversRowJSON     `json:"savers,omitempty"`
	CaseStudy *evaluation.ScenarioJSON       `json:"casestudy,omitempty"`
	Fig9      []evaluation.Figure9SeriesJSON `json:"fig9,omitempty"`
	Selection []evaluation.BestJSON          `json:"selection,omitempty"`
	// Intermittent is the harvested-power sweep (DESIGN.md §6l): each
	// benchmark × level replayed under each harvest profile, checkpoint-
	// oblivious and checkpoint-aware.
	Intermittent []evaluation.IntermittentRowJSON `json:"intermittent,omitempty"`

	// The ledgers describe the producing process, not the experiment:
	// they differ per run, so `-noledger` omits them to make documents
	// byte-comparable.
	SessionStats *evaluation.SweepStats `json:"session_stats,omitempty"`
	SolverStats  *core.SolverStats      `json:"solver_stats,omitempty"`
	WallMS       float64                `json:"wall_ms,omitempty"`
	Workers      int                    `json:"workers,omitempty"`

	// Status is "incomplete" when any selected section was cut short —
	// by -timeout, an interrupt, or a failing cell — in which case
	// Errors lists what went wrong and the affected section rows carry
	// incomplete markers. Absent on a clean run.
	Status string   `json:"status,omitempty"`
	Errors []string `json:"errors,omitempty"`
}

func main() {
	var (
		fig5      = flag.Bool("fig5", false, "regenerate Figure 5")
		aggregate = flag.Bool("aggregate", false, "regenerate the §6 aggregate numbers")
		savers    = flag.Bool("savers", false, "report which blocks produced each benchmark's energy saving (O2, Os)")
		study     = flag.Bool("casestudy", false, "regenerate the §7 case study")
		fig9      = flag.Bool("fig9", false, "regenerate Figure 9")
		intermit  = flag.Bool("intermittent", false, "harvested-power sweep: replay every benchmark under each harvest profile, checkpoint-oblivious and checkpoint-aware")
		sel       = flag.Bool("select", false, "pick the best configuration per benchmark (static vs profiled vs all-flash)")
		all       = flag.Bool("all", false, "run everything")
		workers   = flag.Int("workers", 1, "benchmark sweep worker goroutines")
		top       = flag.Int("top", 3, "blocks per run in the -savers report")
		asJSON    = flag.Bool("json", false, "emit the selected sections as one JSON document")
		noledger  = flag.Bool("noledger", false, "omit the process ledgers (session_stats, solver_stats, wall_ms, workers) so documents are byte-comparable across runs")
		noFuse    = flag.Bool("nofuse", false, "dispatch every simulated instruction on its own instead of in fused superblocks (identical output; differential-testing knob)")
		timeout   = flag.Duration("timeout", 0, "overall wall-clock budget (0 = none); on expiry — or SIGINT — the sweep stops and the partial document is still emitted")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the sweep to `file`")
		memProf   = flag.String("memprofile", "", "write a heap profile to `file` on exit")
	)
	flag.Parse()
	if !(*fig5 || *aggregate || *savers || *study || *fig9 || *intermit || *sel || *all) {
		flag.Usage()
		os.Exit(2)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	sw := evaluation.NewSweep(*workers)
	sw.NoFuse = *noFuse
	ctx, stop := cliutil.Context(*timeout)
	defer stop()

	start := time.Now()
	var doc document
	doc.Workers = *workers
	// Each selected section runs to whatever extent the context allows;
	// a failed or interrupted section contributes its partial rows and
	// an entry in doc.Errors rather than aborting the document.
	step := func(name string, f func() error) {
		if err := f(); err != nil {
			doc.Errors = append(doc.Errors, fmt.Sprintf("%s: %v", name, err))
		}
	}
	if *fig5 || *all {
		step("fig5", func() error { return runFig5(ctx, sw, *asJSON, &doc) })
	}
	if *aggregate || *all {
		step("aggregate", func() error { return runAggregate(ctx, sw, *asJSON, &doc) })
	}
	if *savers || *all {
		step("savers", func() error { return runSavers(ctx, sw, *asJSON, *top, &doc) })
	}
	if *study || *all {
		step("casestudy", func() error { return runCaseStudy(ctx, sw, *asJSON, &doc) })
	}
	if *fig9 || *all {
		step("fig9", func() error { return runFig9(ctx, sw, *asJSON, &doc) })
	}
	if *intermit || *all {
		step("intermittent", func() error { return runIntermittent(ctx, sw, *asJSON, &doc) })
	}
	if *sel || *all {
		step("select", func() error { return runSelect(ctx, sw, *asJSON, &doc) })
	}
	doc.WallMS = float64(time.Since(start).Microseconds()) / 1e3
	st, solver := sw.Stats()
	if *noledger {
		doc.WallMS, doc.Workers = 0, 0
	} else {
		doc.SessionStats = &st
		doc.SolverStats = &solver
	}
	if len(doc.Errors) > 0 {
		doc.Status = "incomplete"
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("wall clock: %.0f ms with %d worker(s); %d compiles, %d stage reuses, %d simulator runs\n",
			float64(time.Since(start).Microseconds())/1e3, *workers,
			st.SessionMisses, st.Stages.Totals().Hits, st.Stages.SimRuns)
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // material allocations only, not garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	if len(doc.Errors) > 0 {
		for _, e := range doc.Errors {
			fmt.Fprintln(os.Stderr, "beebsbench:", e)
		}
		os.Exit(1)
	}
}

func runFig5(ctx context.Context, sw *evaluation.Sweep, asJSON bool, doc *document) error {
	rows, err := sw.Figure5(ctx, []mcc.OptLevel{mcc.O2, mcc.Os})
	if asJSON {
		doc.Fig5 = evaluation.NewFigure5JSON(rows)
		return err
	}
	fmt.Println("== Figure 5: % change per benchmark (energy, time), O2 and Os ==")
	fmt.Println("   dots: the same run with actual (profiled) block frequencies")
	fmt.Printf("%-15s %-4s %9s %9s %9s | %9s %9s\n",
		"benchmark", "lvl", "energy%", "time%", "power%", "E%(freq)", "T%(freq)")
	for _, r := range rows {
		if r.Incomplete {
			fmt.Printf("%-15s %-4v (incomplete)\n", r.Bench, r.Level)
			continue
		}
		fmt.Printf("%-15s %-4v %+8.1f%% %+8.1f%% %+8.1f%% | %+8.1f%% %+8.1f%%\n",
			r.Bench, r.Level, 100*r.EnergyChange, 100*r.TimeChange, 100*r.PowerChange,
			100*r.ProfEnergyChange, 100*r.ProfTimeChange)
	}
	fmt.Println()
	return err
}

func runAggregate(ctx context.Context, sw *evaluation.Sweep, asJSON bool, doc *document) error {
	agg, err := sw.RunAggregate(ctx, []mcc.OptLevel{mcc.O0, mcc.O1, mcc.O2, mcc.O3, mcc.Os})
	if agg == nil {
		return err
	}
	if asJSON {
		j := evaluation.NewAggregateJSON(agg)
		doc.Aggregate = &j
		return err
	}
	fmt.Println("== §6 aggregate over O0, O1, O2, O3, Os ==")
	fmt.Printf("runs: %d (10 benchmarks x 5 levels)\n", len(agg.Runs))
	if agg.IncompleteRuns > 0 {
		fmt.Printf("incomplete: %d cells failed or were cut off; means cover the completed runs only\n", agg.IncompleteRuns)
	}
	fmt.Printf("mean energy change: %+.1f%%   (paper: -7.7%%)\n", 100*agg.MeanEnergyChange)
	fmt.Printf("mean power  change: %+.1f%%   (paper: -21.9%%)\n", 100*agg.MeanPowerChange)
	fmt.Printf("mean time   change: %+.1f%%   (paper: +19.5%%)\n", 100*agg.MeanTimeChange)
	fmt.Printf("max energy saving : %.1f%% on %s  (paper: 22%% on int_matmult O2)\n",
		100*agg.MaxEnergySaving, agg.MaxEnergyBench)
	fmt.Printf("max power  saving : %.1f%% on %s  (paper: 41%% on fdct O2)\n",
		100*agg.MaxPowerSaving, agg.MaxPowerBench)
	fmt.Println()
	return err
}

func runSavers(ctx context.Context, sw *evaluation.Sweep, asJSON bool, top int, doc *document) error {
	rows, err := sw.TopSavers(ctx, []mcc.OptLevel{mcc.O2, mcc.Os}, top)
	if asJSON {
		doc.Savers = evaluation.NewSaversJSON(rows)
		return err
	}
	fmt.Println("== blocks behind each benchmark's energy saving (attribution diff) ==")
	for _, r := range rows {
		if r.Incomplete {
			fmt.Printf("%-15s %-4v (incomplete)\n", r.Bench, r.Level)
			continue
		}
		fmt.Printf("%-15s %-4v total %+0.1f%%:", r.Bench, r.Level, 100*r.Report.EnergyChange)
		for _, s := range r.Savers {
			fmt.Printf("  %s %+0.2fuJ", s.Label, s.SavedNJ/1e3)
		}
		fmt.Println()
	}
	fmt.Println()
	return err
}

func runCaseStudy(ctx context.Context, sw *evaluation.Sweep, asJSON bool, doc *document) error {
	r, err := sw.RunBenchmark(ctx, beebs.Get("fdct"), mcc.O2, core.Options{})
	if err != nil {
		return err
	}
	sc := evaluation.Scenario(r)
	if asJSON {
		j := evaluation.NewScenarioJSON(sc)
		doc.CaseStudy = &j
		return nil
	}
	fmt.Println("== §7 case study: periodic sensing with the fdct active region ==")
	fmt.Printf("measured: E0 = %.4f mJ, TA = %.4f ms, ke = %.3f, kt = %.3f, PS = %.1f mW\n",
		sc.E0, 1e3*sc.TA, sc.Ke, sc.Kt, sc.PS)
	fmt.Printf("paper   : E0 = 16.9 mJ,  TA = 1180 ms,  ke = 0.825, kt = 1.33,  PS = 3.5 mW\n")
	fmt.Printf("energy saved per period Es = %.4f mJ (period independent; paper: 4.32 mJ with its values)\n",
		sc.EnergySaved())

	paper := casestudy.PaperScenario()
	fmt.Printf("with the paper's printed values our model gives Es = %.2f mJ (paper: 4.32)\n",
		paper.EnergySaved())

	mult := []float64{1, 2, 3, 4, 6, 8, 12, 16}
	saving, life := sc.BestSaving(mult)
	fmt.Printf("best saving over T sweep: %.1f%%; battery life extension %.1f%% (paper: up to 25%% / 32%%)\n",
		saving, 100*life)

	u, o := casestudy.Figure8()
	fmt.Printf("Figure 8 illustration: %.0f uJ -> %.0f uJ (paper: 60 -> 55)\n", u, o)
	fmt.Println()
	return nil
}

func runFig9(ctx context.Context, sw *evaluation.Sweep, asJSON bool, doc *document) error {
	mult := []float64{1, 2, 3, 4, 6, 8, 12, 16}
	series, err := sw.Figure9(ctx, mcc.O2, mult)
	if asJSON {
		doc.Fig9 = evaluation.NewFigure9JSON(series)
		return err
	}
	fmt.Println("== Figure 9: energy consumption (%) vs period T ==")
	fmt.Printf("%-8s", "T/TA")
	for _, s := range series {
		fmt.Printf(" %14s", s.Bench)
	}
	fmt.Println()
	for i, m := range mult {
		fmt.Printf("%-8.0f", m)
		for _, s := range series {
			fmt.Printf(" %13.1f%%", s.Points[i].EnergyPercent)
		}
		fmt.Println()
	}
	fmt.Println()
	return err
}

// runIntermittent runs the harvested-power sweep (DESIGN.md §6l): every
// benchmark at O2 and Os replayed under each harvest profile, with the
// optimized image placed both checkpoint-oblivious and checkpoint-aware.
func runIntermittent(ctx context.Context, sw *evaluation.Sweep, asJSON bool, doc *document) error {
	levels := []mcc.OptLevel{mcc.O2, mcc.Os}
	rows, err := sw.Intermittent(ctx, levels, sim.HarvestProfiles())
	if asJSON {
		doc.Intermittent = evaluation.NewIntermittentRowsJSON(rows)
		return err
	}
	fmt.Println("== harvested power: useful instructions per delivered mJ, by profile ==")
	fmt.Printf("%-15s %-4s %-12s %8s %12s %9s %9s %10s\n",
		"benchmark", "lvl", "profile", "outages", "base i/mJ", "obliv%", "aware%", "time%")
	js := evaluation.NewIntermittentRowsJSON(rows)
	for _, r := range js {
		if r.Incomplete {
			fmt.Printf("%-15s %-4s %-12s (incomplete)\n", r.Bench, r.Level, r.Profile)
			continue
		}
		fmt.Printf("%-15s %-4s %-12s %8d %12.0f %+8.1f%% %+8.1f%% %+9.1f%%\n",
			r.Bench, r.Level, r.Profile, r.Outages, r.BaselineWorkPerMJ,
			100*r.ObliviousWorkChange, 100*r.AwareWorkChange,
			100*(r.AwareTimeMS/r.BaselineTimeMS-1))
	}
	// Fold each benchmark × level's profiles into the §7-style summary.
	perCell := make(map[string][]evaluation.IntermittentRow)
	var order []string
	for _, r := range rows {
		if r.Incomplete {
			continue
		}
		key := r.Bench + " " + r.Level.String()
		if _, ok := perCell[key]; !ok {
			order = append(order, key)
		}
		perCell[key] = append(perCell[key], r)
	}
	fmt.Println("-- per-cell summary across profiles (aware placement) --")
	for _, key := range order {
		sum, serr := casestudy.SummarizeIntermittent(evaluation.Scenarios(perCell[key], power.STM32F100().ClockHz))
		if serr != nil {
			continue
		}
		fmt.Printf("%-20s mean work %+6.1f%%, best %s %+6.1f%%, worst %s %+6.1f%%\n",
			key, 100*sum.MeanWorkChange, sum.Best.Profile, 100*sum.Best.WorkChange(),
			sum.Worst.Profile, 100*sum.Worst.WorkChange())
	}
	fmt.Println()
	return err
}

// runSelect picks the lowest-energy configuration per benchmark at O2
// among the static estimate, the profiled-frequency variant, and the
// all-flash ablation (Rspare 1 byte — nothing placeable). The
// all-flash candidate keeps the empty placement, whose image is the
// baseline's, so its runs are memo hits in the benchmark's session.
func runSelect(ctx context.Context, sw *evaluation.Sweep, asJSON bool, doc *document) error {
	cands := []evaluation.Candidate{
		{Name: "static", Opts: core.Options{}},
		{Name: "profiled", Opts: core.Options{UseProfile: true}},
		{Name: "all-flash", Opts: core.Options{Rspare: 1}},
	}
	var firstErr error
	if !asJSON {
		fmt.Println("== best configuration per benchmark (O2) ==")
	}
	for _, b := range beebs.All() {
		best, err := sw.BestConfig(ctx, b, mcc.O2, cands)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if asJSON {
			doc.Selection = append(doc.Selection, evaluation.NewBestJSON(best))
			continue
		}
		fmt.Printf("%-15s %-9s %8.1f uJ (%+.1f%%)\n", best.Bench, best.Winner,
			best.Report.Optimized.Stats.EnergyNJ/1e3, 100*best.Report.EnergyChange)
	}
	if !asJSON {
		fmt.Println()
	}
	return firstErr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "beebsbench:", err)
	os.Exit(1)
}
