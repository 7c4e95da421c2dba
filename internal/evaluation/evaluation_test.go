package evaluation

import (
	"context"
	"testing"

	"repro/internal/beebs"
	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/mcc"
)

func TestSingleBenchmarkShape(t *testing.T) {
	r, err := NewSweep(1).RunBenchmark(context.Background(), beebs.Get("int_matmult"), mcc.O2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Report
	if rep.EnergyChange >= 0 {
		t.Errorf("energy change %+.1f%%, want negative", 100*rep.EnergyChange)
	}
	if rep.PowerChange >= 0 {
		t.Errorf("power change %+.1f%%, want negative", 100*rep.PowerChange)
	}
	if rep.TimeChange <= 0 {
		t.Errorf("time change %+.1f%%, want positive", 100*rep.TimeChange)
	}
	if !rep.Placement.Proven {
		t.Log("note: placement not proven optimal (node limit)")
	}
}

// TestFloatBenchmarksBarelyImprove reproduces §6: "Some of the benchmarks
// show very little improvement (cubic, float_matmult). These benchmarks
// make heavy use of library calls and emulated floating point" — the
// library is invisible to the optimizer.
func TestFloatBenchmarksBarelyImprove(t *testing.T) {
	intSaving := 0.0
	for _, name := range []string{"int_matmult", "fdct"} {
		r, err := NewSweep(1).RunBenchmark(context.Background(), beebs.Get(name), mcc.O2, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		intSaving += -r.Report.EnergyChange
	}
	intSaving /= 2
	for _, name := range []string{"cubic", "float_matmult"} {
		r, err := NewSweep(1).RunBenchmark(context.Background(), beebs.Get(name), mcc.O2, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		saving := -r.Report.EnergyChange
		if saving > intSaving/2 {
			t.Errorf("%s saves %.1f%%, expected well below the integer benchmarks' %.1f%%",
				name, 100*saving, 100*intSaving)
		}
	}
}

func TestProfiledFrequenciesAgree(t *testing.T) {
	// §6: "the results are very similar when the basic block frequency is
	// estimated, versus the actual frequencies."
	for _, name := range []string{"crc32", "fdct"} {
		static, err := NewSweep(1).RunBenchmark(context.Background(), beebs.Get(name), mcc.O2, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		prof, err := NewSweep(1).RunBenchmark(context.Background(), beebs.Get(name), mcc.O2, core.Options{UseProfile: true})
		if err != nil {
			t.Fatal(err)
		}
		d := static.Report.EnergyChange - prof.Report.EnergyChange
		if d < -0.10 || d > 0.10 {
			t.Errorf("%s: static %+.3f vs profiled %+.3f energy change differ by more than 10 points",
				name, static.Report.EnergyChange, prof.Report.EnergyChange)
		}
	}
}

func TestAggregateShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 5-level aggregate in long mode only")
	}
	agg, err := NewSweep(1).RunAggregate(context.Background(), []mcc.OptLevel{mcc.O0, mcc.O1, mcc.O2, mcc.O3, mcc.Os})
	if err != nil {
		t.Fatal(err)
	}
	// Paper §6 aggregate: energy −7.7%, power −21.9%, time +19.5%.
	// Shape: mean energy and power drop, mean time rises.
	if agg.MeanEnergyChange >= 0 {
		t.Errorf("mean energy change %+.1f%%, want negative", 100*agg.MeanEnergyChange)
	}
	if agg.MeanPowerChange >= 0 {
		t.Errorf("mean power change %+.1f%%, want negative", 100*agg.MeanPowerChange)
	}
	if agg.MeanTimeChange <= 0 {
		t.Errorf("mean time change %+.1f%%, want positive", 100*agg.MeanTimeChange)
	}
	// Power savings exceed energy savings (power bars are taller in
	// Figure 5: the slowdown amplifies the power drop).
	if -agg.MeanPowerChange <= -agg.MeanEnergyChange {
		t.Errorf("power saving %.1f%% should exceed energy saving %.1f%%",
			-100*agg.MeanPowerChange, -100*agg.MeanEnergyChange)
	}
	t.Logf("aggregate over %d runs: energy %+.1f%%, power %+.1f%%, time %+.1f%% (paper: -7.7%%, -21.9%%, +19.5%%)",
		len(agg.Runs), 100*agg.MeanEnergyChange, 100*agg.MeanPowerChange, 100*agg.MeanTimeChange)
	t.Logf("max energy saving %.1f%% (%s; paper: 22%% int_matmult O2); max power saving %.1f%% (%s; paper: 41%% fdct O2)",
		100*agg.MaxEnergySaving, agg.MaxEnergyBench, 100*agg.MaxPowerSaving, agg.MaxPowerBench)
}

func TestFigure6Shape(t *testing.T) {
	data, err := NewSweep(1).Figure6(context.Background(), "int_matmult", mcc.O2, 8,
		[]float64{0, 64, 128, 256, 512, 1024, 2048},
		[]float64{1.0, 1.02, 1.05, 1.1, 1.2, 1.5, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Points) != 256 {
		t.Fatalf("cloud has %d points, want 2^8", len(data.Points))
	}
	// The all-flash point is the energy maximum region; the unconstrained
	// solver pick must be below it.
	base := data.Points[0]
	last := data.RAMPath[len(data.RAMPath)-1]
	if last.EnergyNJ >= base.EnergyNJ {
		t.Errorf("relaxed-RAM solution %v nJ >= base %v nJ", last.EnergyNJ, base.EnergyNJ)
	}
	// Monotonicity: relaxing Rspare never hurts.
	for i := 1; i < len(data.RAMPath); i++ {
		if data.RAMPath[i].EnergyNJ > data.RAMPath[i-1].EnergyNJ+1e-6 {
			t.Errorf("RAM path not monotone at %v: %v > %v",
				data.RAMPath[i].Constraint, data.RAMPath[i].EnergyNJ, data.RAMPath[i-1].EnergyNJ)
		}
		if data.RAMPath[i].RAMBytes < data.RAMPath[i-1].RAMBytes-1e-6 {
			t.Errorf("RAM usage shrank as the budget grew")
		}
	}
	// Relaxing Xlimit never hurts either.
	for i := 1; i < len(data.TimePath); i++ {
		if data.TimePath[i].EnergyNJ > data.TimePath[i-1].EnergyNJ+1e-6 {
			t.Errorf("time path not monotone at %v", data.TimePath[i].Constraint)
		}
	}
	// Xlimit=1.0 must pick (nearly) nothing: zero slowdown allowed.
	if data.TimePath[0].Cycles > data.BaseCycles+1e-6 {
		t.Errorf("Xlimit=1.0 pick takes %v cycles > base %v", data.TimePath[0].Cycles, data.BaseCycles)
	}
	// The solver's constrained picks must be feasible members of the cloud
	// region: energy between min and max of the cloud.
	minE, maxE := data.Points[0].EnergyNJ, data.Points[0].EnergyNJ
	for _, p := range data.Points {
		if p.EnergyNJ < minE {
			minE = p.EnergyNJ
		}
		if p.EnergyNJ > maxE {
			maxE = p.EnergyNJ
		}
	}
	for _, p := range data.RAMPath {
		if p.EnergyNJ < minE-1e-6 || p.EnergyNJ > maxE+1e-6 {
			t.Errorf("solver pick %v nJ outside cloud [%v, %v]", p.EnergyNJ, minE, maxE)
		}
	}
}

func TestFigure9AndCaseStudy(t *testing.T) {
	series, err := NewSweep(1).Figure9(context.Background(), mcc.O2, []float64{1, 2, 3, 4, 6, 8, 12, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("got %d series, want 3 (fdct, int_matmult, 2dfir)", len(series))
	}
	for _, s := range series {
		if err := s.Scenario.Validate(); err != nil {
			t.Errorf("%s: %v", s.Bench, err)
		}
		// Every curve must show a saving at small periods that decays
		// toward 100% as T grows (Figure 9's shape).
		first := s.Points[0].EnergyPercent
		lastPt := s.Points[len(s.Points)-1].EnergyPercent
		if first >= 100 {
			t.Errorf("%s: no saving at the smallest period (%.1f%%)", s.Bench, first)
		}
		if lastPt < first {
			t.Errorf("%s: energy%% should rise with T (%.1f → %.1f)", s.Bench, first, lastPt)
		}
		if es := s.Scenario.EnergySaved(); es <= 0 {
			t.Errorf("%s: Es = %v mJ, want positive", s.Bench, es)
		}
	}
}

func TestSolverAblation(t *testing.T) {
	// ILP must beat or match greedy and function-level on measured energy
	// for the Figure 6 subjects.
	for _, name := range []string{"int_matmult", "fdct"} {
		var energies = map[core.Solver]float64{}
		for _, solver := range []core.Solver{core.SolverILP, core.SolverGreedy, core.SolverFunction} {
			r, err := NewSweep(1).RunBenchmark(context.Background(), beebs.Get(name), mcc.O2, core.Options{Solver: solver})
			if err != nil {
				t.Fatal(err)
			}
			energies[solver] = r.Report.Optimized.EnergyMJ
		}
		// Model-optimal ILP should not lose badly on the measured metric;
		// allow a small tolerance for model-vs-measurement mismatch.
		if energies[core.SolverILP] > energies[core.SolverGreedy]*1.05 {
			t.Errorf("%s: ILP measured %.4f mJ much worse than greedy %.4f mJ",
				name, energies[core.SolverILP], energies[core.SolverGreedy])
		}
		if energies[core.SolverILP] > energies[core.SolverFunction]*1.05 {
			t.Errorf("%s: ILP measured %.4f mJ much worse than function-level %.4f mJ",
				name, energies[core.SolverILP], energies[core.SolverFunction])
		}
	}
}

func TestTightBudgetStillValid(t *testing.T) {
	// Failure injection: tiny Rspare and minimal Xlimit must degrade
	// gracefully to near-baseline, never break the program.
	r, err := NewSweep(1).RunBenchmark(context.Background(), beebs.Get("sha"), mcc.O2, core.Options{Rspare: 16, Xlimit: 1.001})
	if err != nil {
		t.Fatal(err)
	}
	if r.Report.TimeChange > 0.01 {
		t.Errorf("time change %+.2f%% exceeds the 0.1%% limit", 100*r.Report.TimeChange)
	}
	if sc := casestudy.Scenario(Scenario(r)); sc.Kt > 1.001 {
		t.Errorf("kt = %v breaches Xlimit", sc.Kt)
	}
}
