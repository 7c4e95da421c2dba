// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation as Go benchmarks. Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the paper's headline quantities via
// b.ReportMetric (negative percentages are savings), so the shape of the
// paper's results is visible straight from the bench output:
//
//	BenchmarkFigure5/int_matmult/O2   ... energy%=-41.9 time%=+14.5
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/beebs"
	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/evaluation"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/mcc"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"

	"repro/internal/cfg"
	"repro/internal/freq"
)

// BenchmarkFigure1 regenerates the per-instruction-class power table and
// reports the flash/RAM power ratio that motivates the whole paper.
func BenchmarkFigure1(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := evaluation.NewSweep(1).Figure1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var flash, ram float64
		var nf, nr int
		for _, r := range rows {
			if r.Label == "flash load" {
				continue
			}
			if r.Mem == power.Flash {
				flash += r.PowerMW
				nf++
			} else {
				ram += r.PowerMW
				nr++
			}
		}
		ratio = (flash / float64(nf)) / (ram / float64(nr))
	}
	b.ReportMetric(ratio, "flash/ram-power-ratio")
}

// BenchmarkFigure5 runs the full pipeline per benchmark at O2 (the
// headline column of Figure 5) and reports the percentage changes.
func BenchmarkFigure5(b *testing.B) {
	for _, bench := range beebs.All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			b.ReportAllocs()
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				r, err := evaluation.NewSweep(1).RunBenchmark(context.Background(), bench, mcc.O2, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				rep = r.Report
			}
			b.ReportMetric(100*rep.EnergyChange, "energy-%")
			b.ReportMetric(100*rep.TimeChange, "time-%")
			b.ReportMetric(100*rep.PowerChange, "power-%")
		})
	}
}

// BenchmarkFigure5Frequency is the "w/Frequency" variant (profiled
// frequencies) for the paper's two highlighted benchmarks.
func BenchmarkFigure5Frequency(b *testing.B) {
	for _, name := range []string{"int_matmult", "fdct"} {
		bench := beebs.Get(name)
		b.Run(name, func(b *testing.B) {
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				r, err := evaluation.NewSweep(1).RunBenchmark(context.Background(), bench, mcc.O2, core.Options{UseProfile: true})
				if err != nil {
					b.Fatal(err)
				}
				rep = r.Report
			}
			b.ReportMetric(100*rep.EnergyChange, "energy-%")
			b.ReportMetric(100*rep.TimeChange, "time-%")
		})
	}
}

// BenchmarkAggregate regenerates the §6 averages over all ten benchmarks
// at all five optimization levels (paper: −7.7% energy, −21.9% power,
// +19.5% time).
func BenchmarkAggregate(b *testing.B) {
	var agg *evaluation.Aggregate
	for i := 0; i < b.N; i++ {
		var err error
		agg, err = evaluation.NewSweep(1).RunAggregate(context.Background(), []mcc.OptLevel{mcc.O0, mcc.O1, mcc.O2, mcc.O3, mcc.Os})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*agg.MeanEnergyChange, "mean-energy-%")
	b.ReportMetric(100*agg.MeanPowerChange, "mean-power-%")
	b.ReportMetric(100*agg.MeanTimeChange, "mean-time-%")
	b.ReportMetric(100*agg.MaxEnergySaving, "max-energy-saving-%")
	b.ReportMetric(100*agg.MaxPowerSaving, "max-power-saving-%")
}

// BenchmarkFigure6 enumerates the placement clouds for the two Figure 6
// subjects and sweeps both constraints.
func BenchmarkFigure6(b *testing.B) {
	for _, name := range []string{"int_matmult", "fdct"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var data *evaluation.Figure6Data
			for i := 0; i < b.N; i++ {
				var err error
				data, err = evaluation.NewSweep(1).Figure6(context.Background(), name, mcc.O2, 8,
					[]float64{0, 64, 128, 256, 512, 1024, 2048},
					[]float64{1.0, 1.05, 1.1, 1.2, 1.5, 2.0})
				if err != nil {
					b.Fatal(err)
				}
			}
			best := data.RAMPath[len(data.RAMPath)-1]
			b.ReportMetric(float64(len(data.Points)), "cloud-points")
			b.ReportMetric(100*(1-best.EnergyNJ/data.BaseEnergyNJ), "unconstrained-saving-%")
		})
	}
}

// BenchmarkCaseStudy regenerates the §7 numbers: ke/kt measured on the
// simulated fdct, Es per period, best saving and battery-life extension
// (paper: Es=4.32 mJ with its measured values; up to 25% / 32%).
func BenchmarkCaseStudy(b *testing.B) {
	b.ReportAllocs()
	var sc casestudy.Scenario
	for i := 0; i < b.N; i++ {
		r, err := evaluation.NewSweep(1).RunBenchmark(context.Background(), beebs.Get("fdct"), mcc.O2, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sc = evaluation.Scenario(r)
	}
	saving, life := sc.BestSaving([]float64{1, 2, 3, 4, 6, 8, 12, 16})
	b.ReportMetric(sc.Ke, "ke")
	b.ReportMetric(sc.Kt, "kt")
	b.ReportMetric(sc.EnergySaved(), "Es-mJ")
	b.ReportMetric(saving, "best-saving-%")
	b.ReportMetric(100*life, "battery-life-+%")
}

// BenchmarkFigure9 sweeps the sensing period for the paper's three curves.
func BenchmarkFigure9(b *testing.B) {
	var series []evaluation.Figure9Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = evaluation.NewSweep(1).Figure9(context.Background(), mcc.O2, []float64{1, 2, 3, 4, 6, 8, 12, 16})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		b.ReportMetric(s.Points[0].EnergyPercent, s.Bench+"-energy-%-at-min-T")
	}
}

// BenchmarkAblationSolvers compares the ILP against the greedy and
// function-level baselines on measured (simulated) energy — the design
// choice §4 argues for.
func BenchmarkAblationSolvers(b *testing.B) {
	for _, solver := range []core.Solver{core.SolverILP, core.SolverGreedy, core.SolverFunction} {
		solver := solver
		b.Run(string(solver), func(b *testing.B) {
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				r, err := evaluation.NewSweep(1).RunBenchmark(context.Background(), beebs.Get("dijkstra"), mcc.O2,
					core.Options{Solver: solver, Rspare: 512})
				if err != nil {
					b.Fatal(err)
				}
				rep = r.Report
			}
			b.ReportMetric(100*rep.EnergyChange, "energy-%")
		})
	}
}

// BenchmarkAblationFrequency quantifies §6's static-vs-profiled claim.
func BenchmarkAblationFrequency(b *testing.B) {
	for _, useProf := range []bool{false, true} {
		name := "static"
		if useProf {
			name = "profiled"
		}
		useProf := useProf
		b.Run(name, func(b *testing.B) {
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				r, err := evaluation.NewSweep(1).RunBenchmark(context.Background(), beebs.Get("sha"), mcc.O2,
					core.Options{UseProfile: useProf})
				if err != nil {
					b.Fatal(err)
				}
				rep = r.Report
			}
			b.ReportMetric(100*rep.EnergyChange, "energy-%")
		})
	}
}

// BenchmarkAblationXlimit sweeps the developer's time-factor knob.
func BenchmarkAblationXlimit(b *testing.B) {
	for _, xl := range []float64{1.05, 1.1, 1.25, 1.5, 2.0} {
		xl := xl
		b.Run(fmtF(xl), func(b *testing.B) {
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				r, err := evaluation.NewSweep(1).RunBenchmark(context.Background(), beebs.Get("int_matmult"), mcc.O2,
					core.Options{Xlimit: xl})
				if err != nil {
					b.Fatal(err)
				}
				rep = r.Report
			}
			b.ReportMetric(100*rep.EnergyChange, "energy-%")
			b.ReportMetric(100*rep.TimeChange, "time-%")
		})
	}
}

func fmtF(x float64) string {
	return "Xlimit-" + string('0'+byte(int(x))) + "." +
		string('0'+byte(int(x*10)%10)) + string('0'+byte(int(x*100)%10))
}

// BenchmarkLinkTimeExtension quantifies the paper's §8 future work: with
// link-time visibility the library-bound benchmarks recover the savings
// Figure 5 shows them missing.
func BenchmarkLinkTimeExtension(b *testing.B) {
	for _, name := range []string{"cubic", "float_matmult"} {
		bench := beebs.Get(name)
		for _, lt := range []bool{false, true} {
			label := name + "/compiler-only"
			if lt {
				label = name + "/link-time"
			}
			lt := lt
			b.Run(label, func(b *testing.B) {
				var rep *core.Report
				for i := 0; i < b.N; i++ {
					r, err := evaluation.NewSweep(1).RunBenchmark(context.Background(), bench, mcc.O2,
						core.Options{LinkTime: lt})
					if err != nil {
						b.Fatal(err)
					}
					rep = r.Report
				}
				b.ReportMetric(100*rep.EnergyChange, "energy-%")
			})
		}
	}
}

// intMatmultModel builds the int_matmult O2 placement model under the
// given RAM budget, time limit and branching-variable cap.
func intMatmultModel(b *testing.B, rspare, xlimit float64, maxCandidates int) *model.Model {
	return intMatmultModelAt(b, mcc.O2, rspare, xlimit, maxCandidates)
}

// intMatmultModelAt is intMatmultModel at another optimization level.
func intMatmultModelAt(b *testing.B, level mcc.OptLevel, rspare, xlimit float64, maxCandidates int) *model.Model {
	prog, err := mcc.Compile(beebs.Get("int_matmult").Source, level)
	if err != nil {
		b.Fatal(err)
	}
	graphs, err := cfg.BuildAll(prog)
	if err != nil {
		b.Fatal(err)
	}
	est := freq.Static(prog, graphs)
	ef, er := power.STM32F100().Coefficients()
	m, err := model.Build(prog, graphs, est, model.Params{
		EFlash: ef, ERAM: er, Rspare: rspare, Xlimit: xlimit, MaxCandidates: maxCandidates,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// solveILP times cold placement.SolveILP calls on m and reports the
// branch-and-bound node count of the solve.
func solveILP(b *testing.B, m *model.Model) {
	b.ReportAllocs()
	b.ResetTimer()
	var nodes int
	for i := 0; i < b.N; i++ {
		res, err := placement.SolveILP(context.Background(), m, placement.Budget{})
		if err != nil {
			b.Fatal(err)
		}
		nodes = res.Nodes
	}
	b.ReportMetric(float64(nodes), "bb-nodes")
}

// BenchmarkILPSolve isolates the solver cost on the int_matmult model.
func BenchmarkILPSolve(b *testing.B) {
	solveILP(b, intMatmultModel(b, 1024, 1.2, 0))
}

// BenchmarkBranchAndBound times a cold solve that branches: int_matmult
// O2 with k = 8 branching variables under a 32-byte RAM budget, one of
// the tight Figure 6 points, whose search takes 11 nodes. Its cost is
// per-node work (node problems, resumes, certificates) more than root
// pivots, which BenchmarkILPSolve's single-node solve measures.
func BenchmarkBranchAndBound(b *testing.B) {
	solveILP(b, intMatmultModel(b, 32, 1e9, 8))
}

// BenchmarkRunawayNodes times a cold solve of the cell whose branch and
// bound used to run away, int_matmult O0 under Rspare 512 and Xlimit
// 1.2: branching on the most fractional binary found no proof under the
// default 100000-node budget. The solve must now end proven, and it
// reports its node count (bb-nodes) and the bytes one dense end state of
// the cell holds (B/state, lp.State.Bytes of the root relaxation's): every
// open node parks its parent's end state, so the search's memory grows
// in that unit.
func BenchmarkRunawayNodes(b *testing.B) {
	m := intMatmultModelAt(b, mcc.O0, 512, 1.2, 0)
	prob, _ := m.BuildILP()
	root, err := prob.Solve(context.Background())
	if err != nil || root.State == nil {
		b.Fatalf("root relaxation: %v, %v", root, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var nodes int
	for i := 0; i < b.N; i++ {
		res, err := placement.SolveILP(context.Background(), m, placement.Budget{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Proven {
			b.Fatalf("unproven after %d nodes", res.Nodes)
		}
		nodes = res.Nodes
	}
	b.ReportMetric(float64(nodes), "bb-nodes")
	b.ReportMetric(float64(root.State.Bytes()), "B/state")
}

// BenchmarkSimThroughput measures the simulator's sustained instruction
// throughput (reported in MIPS of host time) on a real workload: the
// compiled int_matmult kernel, the paper's headline benchmark. This is
// the engine-level number behind every sweep benchmark below — one
// Figure 5 cell simulates this program twice — and the regression gate
// for the predecoded execution engine (see EXPERIMENTS.md and
// BENCH_sim.json for the measured trajectory).
func BenchmarkSimThroughput(b *testing.B) {
	prog, err := mcc.Compile(beebs.Get("int_matmult").Source, mcc.O2)
	if err != nil {
		b.Fatal(err)
	}
	img, err := layout.New(prog, layout.DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	m := sim.New(img, power.STM32F100())
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m.Reset()
		st, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		instrs += st.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "MIPS")
}

// BenchmarkSimThroughputNoFuse is BenchmarkSimThroughput with superblock
// fusion disabled (sim.Machine.NoFuse, the beebsbench -nofuse knob): every
// instruction dispatches as a length-1 descriptor through the same uop
// executor. The ratio between the two is the fused engine's same-host
// speedup recorded in BENCH_sim.json.
func BenchmarkSimThroughputNoFuse(b *testing.B) {
	prog, err := mcc.Compile(beebs.Get("int_matmult").Source, mcc.O2)
	if err != nil {
		b.Fatal(err)
	}
	img, err := layout.New(prog, layout.DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	m := sim.New(img, power.STM32F100())
	m.NoFuse = true
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m.Reset()
		st, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		instrs += st.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "MIPS")
}

// BenchmarkSimThroughputCancellable is BenchmarkSimThroughput with a live
// cancellable context threaded through RunContext: the delta between the
// two is the price of the cooperative cancellation poll (one nil test and
// mask per instruction, one channel poll per 4096). BENCH_sim.json records
// the measured cost; TestSimCancellationOverhead gates it below 2%.
func BenchmarkSimThroughputCancellable(b *testing.B) {
	prog, err := mcc.Compile(beebs.Get("int_matmult").Source, mcc.O2)
	if err != nil {
		b.Fatal(err)
	}
	img, err := layout.New(prog, layout.DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	m := sim.New(img, power.STM32F100())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m.Reset()
		st, err := m.RunContext(ctx)
		if err != nil {
			b.Fatal(err)
		}
		instrs += st.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "MIPS")
}

// TestSimCancellationOverhead compares the plain Run fast path against
// RunContext with a live (never-fired) cancellable context on the
// BenchmarkSimThroughput workload and fails if the cancellation poll
// costs more than 2% of throughput. Best-of-N wall-clock trials filter
// scheduler noise; when even the plain path won't measure stably the
// comparison is meaningless and the test skips.
func TestSimCancellationOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	prog, err := mcc.Compile(beebs.Get("int_matmult").Source, mcc.O2)
	if err != nil {
		t.Fatal(err)
	}
	img, err := layout.New(prog, layout.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(img, power.STM32F100())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const trials = 5
	best := func(run func() error) (time.Duration, error) {
		bestD := time.Duration(1<<63 - 1)
		var worst time.Duration
		for i := 0; i < trials; i++ {
			m.Reset()
			start := time.Now()
			if err := run(); err != nil {
				return 0, err
			}
			d := time.Since(start)
			if d < bestD {
				bestD = d
			}
			if d > worst {
				worst = d
			}
		}
		// Spread between best and worst trials gauges host noise.
		if float64(worst-bestD)/float64(bestD) > 0.05 {
			t.Skipf("host too noisy for a 2%% comparison: best %v worst %v", bestD, worst)
		}
		return bestD, nil
	}

	plain, err := best(func() error { _, e := m.Run(); return e })
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := best(func() error { _, e := m.RunContext(ctx); return e })
	if err != nil {
		t.Fatal(err)
	}
	overhead := float64(withCtx-plain) / float64(plain)
	t.Logf("plain %v, cancellable %v, overhead %.2f%%", plain, withCtx, overhead*100)
	if overhead > 0.02 {
		t.Errorf("cancellation poll costs %.2f%% throughput, budget is 2%%", overhead*100)
	}
}

// BenchmarkSimulator measures raw simulation speed on the Figure 2
// program (instructions per second of host time).
func BenchmarkSimulator(b *testing.B) {
	img, err := layout.New(ir.Figure2Program(), layout.DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	m := sim.New(img, power.STM32F100())
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m.Reset()
		st, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		instrs += st.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkSimulatorTraced is BenchmarkSimulator with the energy
// attribution collector attached; comparing the two quantifies the
// observer hook's overhead (the nil-hook path above is the baseline that
// must not regress).
func BenchmarkSimulatorTraced(b *testing.B) {
	img, err := layout.New(ir.Figure2Program(), layout.DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	m := sim.New(img, power.STM32F100())
	m.Attach(trace.NewCollector())
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m.Reset()
		st, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		instrs += st.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkCompiler measures mcc compile speed:
//
//   - "rijndael" compiles the largest benchmark at O2 (integer only);
//   - "paper-cells" compiles all 20 Figure 5 cells (10 BEEBS × O2/Os) per
//     op, so the two float benchmarks' soft-float runtime is timed too.
func BenchmarkCompiler(b *testing.B) {
	b.Run("rijndael", func(b *testing.B) {
		src := beebs.Get("rijndael").Source
		for i := 0; i < b.N; i++ {
			if _, err := mcc.Compile(src, mcc.O2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("paper-cells", func(b *testing.B) {
		benches := beebs.All()
		for i := 0; i < b.N; i++ {
			for _, bench := range benches {
				for _, level := range []mcc.OptLevel{mcc.O2, mcc.Os} {
					if _, err := mcc.Compile(bench.Source, level); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}

// BenchmarkFigure5Sweep measures the whole Figure 5 sweep (10 benchmarks
// × O2/Os × static+profiled) end to end:
//
//   - "shared" is the shipped path: one evaluation.Sweep, so each cell
//     compiles and baseline-simulates once and the profiled variant reuses
//     the static variant's session artifacts.
//   - "fresh" rebuilds a session per configuration — the cost profile of
//     the pre-Session monolithic core.Optimize, kept here so the win is
//     measurable in a single run.
func BenchmarkFigure5Sweep(b *testing.B) {
	levels := []mcc.OptLevel{mcc.O2, mcc.Os}
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := evaluation.NewSweep(1).Figure5(context.Background(), levels); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, bench := range beebs.All() {
				for _, level := range levels {
					// Package-level RunBenchmark uses a private one-shot
					// Sweep: nothing is shared between the two calls.
					if _, err := evaluation.NewSweep(1).RunBenchmark(context.Background(), bench, level, core.Options{}); err != nil {
						b.Fatal(err)
					}
					if _, err := evaluation.NewSweep(1).RunBenchmark(context.Background(), bench, level, core.Options{UseProfile: true}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}

// BenchmarkTradeoffSweep measures the Figure 6 trade-off generation (the
// `tradeoff` CLI's workload: 2^8 cloud plus 24 constrained ILP solves).
// "shared" runs all solve points out of one warm-solving session (the
// sweep default); "shared-cold" is the same sweep with warm starts off
// (`tradeoff -cold`); "per-point" pays a fresh session (compile, CFG,
// frequency estimate) per solve point, the cost of sweeping without
// cross-point artifact reuse. "paths-warm" vs "paths-cold" isolate the
// 24 constrained solves themselves — session setup, cloud enumeration
// and model assembly are excluded — so the pair reads as the
// warm-started solver chain against from-scratch solves of the exact
// same points.
func BenchmarkTradeoffSweep(b *testing.B) {
	ramSweep := []float64{0, 16, 32, 64, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 4096}
	xSweep := []float64{1.0, 1.01, 1.02, 1.05, 1.1, 1.15, 1.2, 1.3, 1.5, 2.0}
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := evaluation.NewSweep(1).Figure6(context.Background(), "int_matmult", mcc.O2, 8, ramSweep, xSweep); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sw := evaluation.NewSweep(1)
			sw.ColdSolve = true
			if _, err := sw.Figure6(context.Background(), "int_matmult", mcc.O2, 8, ramSweep, xSweep); err != nil {
				b.Fatal(err)
			}
		}
	})
	paths := func(b *testing.B, warm bool) {
		b.ReportAllocs()
		bench := beebs.Get("int_matmult")
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sess, err := (&evaluation.Sweep{ColdSolve: !warm}).Session(bench, mcc.O2)
			if err != nil {
				b.Fatal(err)
			}
			spare, err := sess.SpareRAM()
			if err != nil {
				b.Fatal(err)
			}
			specs := make([]core.ModelSpec, 0, len(ramSweep)+len(xSweep))
			// Loosest constraint first, exactly like Figure6's paths.
			for j := len(ramSweep) - 1; j >= 0; j-- {
				specs = append(specs, core.ModelSpec{Rspare: ramSweep[j], Xlimit: 1e9, MaxCandidates: 8})
			}
			for j := len(xSweep) - 1; j >= 0; j-- {
				specs = append(specs, core.ModelSpec{Rspare: spare, Xlimit: xSweep[j], MaxCandidates: 8})
			}
			for _, spec := range specs {
				if _, err := sess.Model(context.Background(), spec); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			for _, spec := range specs {
				if _, err := sess.Solve(context.Background(), core.SolveSpec{ModelSpec: spec, Solver: core.SolverILP}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("paths-warm", func(b *testing.B) { paths(b, true) })
	b.Run("paths-cold", func(b *testing.B) { paths(b, false) })
	b.Run("per-point", func(b *testing.B) {
		b.ReportAllocs()
		bench := beebs.Get("int_matmult")
		solve := func(rspare, xlimit float64) {
			sess, err := (&evaluation.Sweep{ColdSolve: true}).Session(bench, mcc.O2)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Solve(context.Background(), core.SolveSpec{
				ModelSpec: core.ModelSpec{Rspare: rspare, Xlimit: xlimit, MaxCandidates: 8},
				Solver:    core.SolverILP,
			}); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < b.N; i++ {
			sess, err := (&evaluation.Sweep{ColdSolve: true}).Session(bench, mcc.O2)
			if err != nil {
				b.Fatal(err)
			}
			spare, err := sess.SpareRAM()
			if err != nil {
				b.Fatal(err)
			}
			mFree, err := sess.Model(context.Background(), core.ModelSpec{Rspare: spare, Xlimit: 1e9, MaxCandidates: 8})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := placement.Enumerate(mFree, 8); err != nil {
				b.Fatal(err)
			}
			for _, rs := range ramSweep {
				solve(rs, 1e9)
			}
			for _, xl := range xSweep {
				solve(spare, xl)
			}
		}
	})
}

// BenchmarkServiceMix measures the daemon's request path: an in-process
// service over loopback, its store filled with service.DefaultMix, then
// two closed-loop clients sharing b.N requests drawn in rounds of 200
// like pipebench's daemon-warm: 169 full-document reads, 30
// If-None-Match revalidations and one write with an Rspare no request
// has used, which runs the model → solve → transform → simulate tail.
// Every read must answer the fill's bytes; ns/op is per request.
func BenchmarkServiceMix(b *testing.B) {
	const clients = 2
	mix := service.DefaultMix()
	// Writes go to the mix's plain cells (bench × level), each with a new
	// Rspare in [0.4, 1) of the cell's derived budget: below 0.4 single
	// warm solves take seconds.
	var cells []service.OptimizeRequest
	var spare []float64
	for _, req := range mix {
		if req.UseProfile || req.Rspare != 0 {
			continue
		}
		level, err := mcc.ParseOptLevel(req.Level)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := mcc.Compile(beebs.Get(req.Bench).Source, level)
		if err != nil {
			b.Fatal(err)
		}
		cells = append(cells, req)
		spare = append(spare, float64(layout.SpareRAM(prog, layout.DefaultConfig())))
	}
	kinds := make([]int, 0, 200) // 0 read, 1 revalidate, 2 write
	for kind, share := range []int{169, 30, 1} {
		for j := 0; j < share; j++ {
			kinds = append(kinds, kind)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	ts := httptest.NewServer(service.New(service.Config{Workers: clients}).Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}}
	defer client.CloseIdleConnections()
	post := func(req service.OptimizeRequest, ifNoneMatch string) (int, string, []byte, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return 0, "", nil, err
		}
		hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize", bytes.NewReader(body))
		if err != nil {
			return 0, "", nil, err
		}
		if ifNoneMatch != "" {
			hreq.Header.Set("If-None-Match", ifNoneMatch)
		}
		resp, err := client.Do(hreq)
		if err != nil {
			return 0, "", nil, err
		}
		defer resp.Body.Close()
		doc, err := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("ETag"), doc, err
	}
	docs := make([][]byte, len(mix))
	etags := make([]string, len(mix))
	for k, req := range mix {
		status, etag, doc, err := post(req, "")
		if err != nil || status != http.StatusOK {
			b.Fatalf("fill %d: status %d, %v", k, status, err)
		}
		docs[k], etags[k] = doc, etag
	}

	var next, writes atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= b.N {
					return
				}
				k := i * 7 % len(mix) // 7 is prime to len(mix): every entry in turn
				switch kinds[i%len(kinds)] {
				case 0:
					status, etag, doc, err := post(mix[k], "")
					if err != nil || status != http.StatusOK || etag != etags[k] || !bytes.Equal(doc, docs[k]) {
						b.Errorf("read of mix %d: status %d, %v, or other bytes than the fill's", k, status, err)
						return
					}
				case 1:
					status, etag, _, err := post(mix[k], etags[k])
					if err != nil || status != http.StatusNotModified || etag != etags[k] {
						b.Errorf("revalidation of mix %d: status %d, %v", k, status, err)
						return
					}
				default:
					w := int(writes.Add(1) - 1)
					cell := w % len(cells)
					req := cells[cell]
					// The golden-ratio sequence never repeats a fraction.
					frac := 0.4 + 0.6*math.Mod(float64(w)*0.6180339887498949, 1)
					req.Rspare = math.Round(frac * spare[cell])
					if status, _, doc, err := post(req, ""); err != nil || status != http.StatusOK {
						b.Errorf("write %d: status %d, %v: %s", w, status, err, doc)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
