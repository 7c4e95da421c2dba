// Package evaluation orchestrates the paper's experiments end-to-end:
// compile each BEEBS benchmark with mcc at the requested optimization
// level, run the placement pipeline (internal/core), and collect the
// numbers behind Figure 5, the §6 aggregate, Figure 6, the §7 case study
// and Figure 9.
//
// Every driver is a method on Sweep, which shares one core.Session per
// benchmark×level across everything run through it, so e.g. Figure 5's
// static and profiled variants compile and baseline-simulate once.
// One-shot callers use NewSweep(1).
package evaluation

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/beebs"
	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/mcc"
	"repro/internal/placement"
	"repro/internal/power"
)

// Run is one benchmark × level × configuration outcome.
type Run struct {
	Bench  string
	Level  mcc.OptLevel
	Report *core.Report
}

// RunBenchmark executes the full pipeline for one benchmark at one level,
// reusing the sweep's session for the cell (compile, baseline run, CFG,
// frequency and model stages are shared with every other configuration of
// the same cell). It is the one cell runner: flashram, flashram profile,
// /v1/optimize and every /v1/sweep row run their cell through it, so a
// failure reads the same on every surface. Errors carry the benchmark ×
// level attribution (errs.Error) on top of the failing stage's own.
func (sw *Sweep) RunBenchmark(ctx context.Context, b *beebs.Benchmark, level mcc.OptLevel, opts core.Options) (*Run, error) {
	sess, err := sw.Session(b, level)
	if err != nil {
		return nil, errs.AtBench(b.Name, level.String(), err)
	}
	rep, err := sess.Optimize(ctx, opts)
	if err != nil {
		return nil, errs.AtBench(b.Name, level.String(), err)
	}
	return &Run{Bench: b.Name, Level: level, Report: rep}, nil
}

// Figure5Row is one pair of bars (plus the frequency dots) of Figure 5.
type Figure5Row struct {
	Bench string
	Level mcc.OptLevel
	// Static-estimate results (the bars).
	EnergyChange, TimeChange, PowerChange float64
	// Profiled-frequency results (the dots).
	ProfEnergyChange, ProfTimeChange float64
	// Incomplete marks a cell whose pipeline run failed or was never
	// dispatched (cancelled sweep, panicked worker); its numbers are
	// zero and the sweep's error says why.
	Incomplete bool
}

// Figure5 reproduces the Figure 5 sweep: every benchmark at the given
// levels (the paper plots O2 and Os), with both the static estimate and
// actual frequencies. The static and profiled runs of a cell share one
// session, so each benchmark compiles and baseline-simulates once. The
// benchmark × level jobs run across the sweep's worker pool; row order is
// benchmark-major regardless of parallelism.
// On failure the returned rows are still complete in shape: every cell
// is present in order, failed or undispatched cells are marked
// Incomplete, and the error (an *errs.SweepError unless setup failed)
// says which items failed and why.
func (sw *Sweep) Figure5(ctx context.Context, levels []mcc.OptLevel) ([]Figure5Row, error) {
	jobs := sweepJobs(levels)
	rows := make([]Figure5Row, len(jobs))
	for i, j := range jobs {
		rows[i] = Figure5Row{Bench: j.bench.Name, Level: j.level, Incomplete: true}
	}
	err := sw.forEach(ctx, len(jobs), func(i int) error {
		j := jobs[i]
		static, err := sw.RunBenchmark(ctx, j.bench, j.level, core.Options{})
		if err != nil {
			return err
		}
		prof, err := sw.RunBenchmark(ctx, j.bench, j.level, core.Options{UseProfile: true})
		if err != nil {
			return err
		}
		rows[i] = Figure5Row{
			Bench:            j.bench.Name,
			Level:            j.level,
			EnergyChange:     static.Report.EnergyChange,
			TimeChange:       static.Report.TimeChange,
			PowerChange:      static.Report.PowerChange,
			ProfEnergyChange: prof.Report.EnergyChange,
			ProfTimeChange:   prof.Report.TimeChange,
		}
		return nil
	})
	return rows, err
}

// sweepJob is one benchmark × level cell of an evaluation sweep.
type sweepJob struct {
	bench *beebs.Benchmark
	level mcc.OptLevel
}

func sweepJobs(levels []mcc.OptLevel) []sweepJob {
	var jobs []sweepJob
	for _, b := range beebs.All() {
		for _, level := range levels {
			jobs = append(jobs, sweepJob{b, level})
		}
	}
	return jobs
}

// Aggregate is the §6 summary over all benchmarks and levels: "the average
// reduction in energy and power is 7.7% and 21.9% respectively. The
// execution time is increased by an average of 19.5%."
type Aggregate struct {
	Levels           []mcc.OptLevel
	MeanEnergyChange float64
	MeanPowerChange  float64
	MeanTimeChange   float64
	MaxEnergySaving  float64 // most negative energy change, as a positive fraction
	MaxEnergyBench   string
	MaxPowerSaving   float64
	MaxPowerBench    string
	Runs             []Run
	FailedPlacement  int // runs where nothing could be placed
	// IncompleteRuns counts cells that failed or were never dispatched;
	// the means cover only the completed cells.
	IncompleteRuns int
}

// RunAggregate evaluates all benchmarks across the given levels. The
// benchmark × level runs execute across the sweep's worker pool; the
// aggregation itself is serial over the deterministically ordered
// results, so the reported means are bit-identical at any worker count.
// On failure the aggregate still comes back, covering the cells that
// completed, with IncompleteRuns counting the ones that did not.
func (sw *Sweep) RunAggregate(ctx context.Context, levels []mcc.OptLevel) (*Aggregate, error) {
	agg := &Aggregate{Levels: levels}
	jobs := sweepJobs(levels)
	runs := make([]*Run, len(jobs))
	err := sw.forEach(ctx, len(jobs), func(i int) error {
		r, err := sw.RunBenchmark(ctx, jobs[i].bench, jobs[i].level, core.Options{})
		if err != nil {
			return err
		}
		runs[i] = r
		return nil
	})
	for _, r := range runs {
		if r == nil {
			agg.IncompleteRuns++
			continue
		}
		agg.Runs = append(agg.Runs, *r)
		rep := r.Report
		agg.MeanEnergyChange += rep.EnergyChange
		agg.MeanPowerChange += rep.PowerChange
		agg.MeanTimeChange += rep.TimeChange
		if saving := -rep.EnergyChange; saving > agg.MaxEnergySaving {
			agg.MaxEnergySaving = saving
			agg.MaxEnergyBench = fmt.Sprintf("%s %v", r.Bench, r.Level)
		}
		if saving := -rep.PowerChange; saving > agg.MaxPowerSaving {
			agg.MaxPowerSaving = saving
			agg.MaxPowerBench = fmt.Sprintf("%s %v", r.Bench, r.Level)
		}
		if len(rep.MovedLabels()) == 0 {
			agg.FailedPlacement++
		}
	}
	if n := len(agg.Runs); n > 0 {
		agg.MeanEnergyChange /= float64(n)
		agg.MeanPowerChange /= float64(n)
		agg.MeanTimeChange /= float64(n)
	}
	return agg, err
}

// SaversRow names the blocks behind one benchmark's measured energy
// saving: the attribution diff between the baseline and optimized runs.
type SaversRow struct {
	Bench  string
	Level  mcc.OptLevel
	Report *core.Report
	// Savers are the top blocks by absolute contribution to the energy
	// change (positive SavedNJ = saving).
	Savers []core.BlockSaving
	// Incomplete marks a cell whose run failed or was never dispatched.
	Incomplete bool
}

// TopSavers runs every benchmark at the given levels with tracing enabled
// and reports, per run, which blocks produced the energy saving. Jobs run
// across the sweep's worker pool with deterministic output order. On
// failure every cell is still present, failed ones marked Incomplete.
func (sw *Sweep) TopSavers(ctx context.Context, levels []mcc.OptLevel, n int) ([]SaversRow, error) {
	jobs := sweepJobs(levels)
	rows := make([]SaversRow, len(jobs))
	for i, j := range jobs {
		rows[i] = SaversRow{Bench: j.bench.Name, Level: j.level, Incomplete: true}
	}
	err := sw.forEach(ctx, len(jobs), func(i int) error {
		r, err := sw.RunBenchmark(ctx, jobs[i].bench, jobs[i].level, core.Options{Trace: true})
		if err != nil {
			return err
		}
		rows[i] = SaversRow{
			Bench:  r.Bench,
			Level:  r.Level,
			Report: r.Report,
			Savers: r.Report.BlockSavings(n),
		}
		return nil
	})
	return rows, err
}

// Figure6Data carries the trade-off cloud and solver paths for one
// benchmark (Figure 6a: int_matmult, 6b: fdct).
type Figure6Data struct {
	Bench  string
	Points []placement.Point
	Blocks []string // labels of the enumerated top-k blocks
	// RAMPath are solver picks as Rspare grows (the dashed line).
	RAMPath []PathPoint
	// TimePath are solver picks as Xlimit grows (the solid line).
	TimePath []PathPoint
	// Base is the all-flash model point.
	BaseEnergyNJ, BaseCycles float64
}

// PathPoint is one solver decision along a constraint sweep.
type PathPoint struct {
	Constraint float64 // the Rspare bytes or Xlimit value
	EnergyNJ   float64
	Cycles     float64
	RAMBytes   float64
}

// Figure6 enumerates the 2^k placement space of a benchmark under the
// model and traces the ILP solver's choices as each constraint is relaxed.
// Every model along both constraint sweeps comes out of the cell's
// session, so the CFG and frequency estimate are built once and repeated
// constraint points (e.g. the unconstrained corner) reuse one model.
func (sw *Sweep) Figure6(ctx context.Context, benchName string, level mcc.OptLevel, k int,
	ramSweep []float64, xlimitSweep []float64) (*Figure6Data, error) {
	b := beebs.Get(benchName)
	if b == nil {
		return nil, fmt.Errorf("evaluation: unknown benchmark %q", benchName)
	}
	sess, err := sw.Session(b, level)
	if err != nil {
		return nil, errs.AtBench(benchName, level.String(), err)
	}
	spare, err := sess.SpareRAM()
	if err != nil {
		return nil, errs.AtBench(benchName, level.String(), err)
	}

	// Restrict the model to the same k hottest blocks the cloud
	// enumerates, so the solver's path stays within the plotted space
	// (the paper's programs are small enough that its k is all blocks).
	spec := func(rspare, xlimit float64) core.ModelSpec {
		return core.ModelSpec{Rspare: rspare, Xlimit: xlimit, MaxCandidates: k}
	}

	// The cloud: no RAM or time constraint (within physical spare RAM).
	mFree, err := sess.Model(ctx, spec(spare, 1e9))
	if err != nil {
		return nil, err
	}
	points, blocks, err := placement.Enumerate(mFree, k)
	if err != nil {
		return nil, err
	}
	data := &Figure6Data{
		Bench:        benchName,
		Points:       points,
		BaseEnergyNJ: mFree.BaseEnergyNJ,
		BaseCycles:   mFree.BaseCycles,
	}
	for _, bd := range blocks {
		data.Blocks = append(data.Blocks, bd.Block.Label)
	}

	// Each path is solved loosest constraint first: every later solve
	// then tightens the previous one, so a warm-solving session (the
	// sweep default) can chain the previous optimum, its proven bound
	// and the simplex basis down the whole path — often closing a point
	// with no LP work at all. Results land in index-addressed slots and
	// are emitted in the caller's order, so the path reads identically
	// at any visiting order and any worker count; on an error the points
	// already solved still stand, each naming its own constraint.
	solvePath := func(sweep []float64, mk func(v float64) core.ModelSpec) ([]PathPoint, error) {
		order := make([]int, len(sweep))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return sweep[order[a]] > sweep[order[b]] })
		slots := make([]*PathPoint, len(sweep))
		var solveErr error
		for _, i := range order {
			res, err := sess.Solve(ctx, core.SolveSpec{ModelSpec: mk(sweep[i]), Solver: core.SolverILP})
			if err != nil {
				solveErr = err
				break
			}
			slots[i] = &PathPoint{
				Constraint: sweep[i],
				EnergyNJ:   res.Outcome.EnergyNJ,
				Cycles:     res.Outcome.Cycles,
				RAMBytes:   res.Outcome.RAMBytes,
			}
		}
		var pts []PathPoint
		for _, p := range slots {
			if p != nil {
				pts = append(pts, *p)
			}
		}
		return pts, solveErr
	}

	data.RAMPath, err = solvePath(ramSweep, func(rs float64) core.ModelSpec { return spec(rs, 1e9) })
	if err != nil {
		// The cloud and the path points already solved still stand.
		return data, errs.AtBench(benchName, level.String(), err)
	}
	data.TimePath, err = solvePath(xlimitSweep, func(xl float64) core.ModelSpec { return spec(spare, xl) })
	if err != nil {
		return data, errs.AtBench(benchName, level.String(), err)
	}
	return data, nil
}

// Scenario builds the §7 case-study scenario from a measured pipeline run.
func Scenario(r *Run) casestudy.Scenario {
	rep := r.Report
	return casestudy.Scenario{
		E0: rep.Baseline.EnergyMJ,
		TA: rep.Baseline.TimeS,
		Ke: rep.Ke,
		Kt: rep.Kt,
		PS: power.STM32F100().SleepPower,
	}
}

// Figure9Series is one benchmark's curve in Figure 9.
type Figure9Series struct {
	Bench    string
	Scenario casestudy.Scenario
	Points   []casestudy.Point
}

// Figure9 sweeps the periodic-sensing period for the paper's three
// benchmarks (fdct, int_matmult, 2dfir) using measured ke/kt. The runs
// reuse the sweep's sessions, so a Figure 5 or aggregate sweep on the
// same Sweep has already paid for these cells.
func (sw *Sweep) Figure9(ctx context.Context, level mcc.OptLevel, multiples []float64) ([]Figure9Series, error) {
	var out []Figure9Series
	for _, name := range []string{"fdct", "int_matmult", "2dfir"} {
		r, err := sw.RunBenchmark(ctx, beebs.Get(name), level, core.Options{})
		if err != nil {
			// The completed series still stand; the error names the
			// benchmark that broke the sweep.
			return out, err
		}
		sc := Scenario(r)
		out = append(out, Figure9Series{
			Bench:    name,
			Scenario: sc,
			Points:   sc.Sweep(multiples),
		})
	}
	return out, nil
}
