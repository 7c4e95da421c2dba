package evaluation

import (
	"context"
	"testing"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/mcc"
)

// TestTightBudgetFrequencySensitivity documents a nuance of the paper's
// "a static estimate is good enough" claim (§6): it holds when the RAM
// budget is generous (Figure 5), but under a tight budget the placement
// becomes sensitive to Fb errors. On dijkstra at a 512-byte budget the
// model-optimal ILP placement under static Fb loses measured energy to
// the coarse baselines, while the same ILP under profiled Fb wins again.
func TestTightBudgetFrequencySensitivity(t *testing.T) {
	run := func(solver core.Solver, prof bool) *core.Report {
		r, err := NewSweep(1).RunBenchmark(context.Background(), beebs.Get("dijkstra"), mcc.O2,
			core.Options{Solver: solver, Rspare: 512, UseProfile: prof})
		if err != nil {
			t.Fatal(err)
		}
		return r.Report
	}
	ilpStatic := run(core.SolverILP, false)
	ilpProf := run(core.SolverILP, true)
	fn := run(core.SolverFunction, false)

	// Profiled frequencies must repair the static estimate's mistake...
	if ilpProf.EnergyChange > ilpStatic.EnergyChange {
		t.Errorf("profiled ILP %+.1f%% worse than static ILP %+.1f%%",
			100*ilpProf.EnergyChange, 100*ilpStatic.EnergyChange)
	}
	// ...and bring the ILP at least level with the function-granularity
	// baseline on measured energy.
	if ilpProf.EnergyChange > fn.EnergyChange+0.02 {
		t.Errorf("profiled ILP %+.1f%% still behind function-level %+.1f%%",
			100*ilpProf.EnergyChange, 100*fn.EnergyChange)
	}
	t.Logf("static ILP %+.1f%%, profiled ILP %+.1f%%, function-level %+.1f%%",
		100*ilpStatic.EnergyChange, 100*ilpProf.EnergyChange, 100*fn.EnergyChange)
}
