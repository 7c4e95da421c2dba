package evaluation

import (
	"context"

	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/mcc"
	"repro/internal/power"
	"repro/internal/sim"
)

// IntermittentRow is one benchmark × level × harvest-profile cell of the
// intermittent sweep (DESIGN.md §6l): the profile's power trace replayed
// against the all-flash baseline and against two optimized placements —
// checkpoint-oblivious (the ordinary solve) and checkpoint-aware (RAM
// residency priced with its per-checkpoint journal cost).
type IntermittentRow struct {
	Bench   string
	Level   mcc.OptLevel
	Profile string
	// Outages in the resolved schedule and the checkpoint interval the
	// replays used.
	Outages          int
	CheckpointCycles uint64
	// Baseline is the all-flash image under the trace; Oblivious and
	// Aware are the two optimized images under the same trace. The
	// baseline replay is shared: oblivious and aware runs of one cell
	// replay the identical baseline image and schedule.
	Baseline  *sim.IntermittentReport
	Oblivious *sim.IntermittentReport
	Aware     *sim.IntermittentReport
	// CkptNJPerByte is the aware solve's model term (nJ per RAM-placed
	// byte over the whole schedule).
	CkptNJPerByte float64
	// Incomplete marks a cell whose run failed or was never dispatched.
	Incomplete bool
}

// Scenarios converts a benchmark's rows (one per profile) into the §7
// intermittent case-study form, using the aware placement as the
// optimized outcome.
func Scenarios(rows []IntermittentRow, clockHz float64) []casestudy.Intermittent {
	var out []casestudy.Intermittent
	for _, r := range rows {
		if r.Incomplete {
			continue
		}
		out = append(out, casestudy.Intermittent{
			Profile:            r.Profile,
			BaselineWorkPerMJ:  r.Baseline.WorkPerMJ(),
			OptimizedWorkPerMJ: r.Aware.WorkPerMJ(),
			BaselineTimeS:      r.Baseline.TimeToCompletionS(clockHz),
			OptimizedTimeS:     r.Aware.TimeToCompletionS(clockHz),
		})
	}
	return out
}

// intermitCell is one cell of the intermittent sweep: a benchmark ×
// level job under one harvest profile. Cells enumerate benchmark-major,
// then level, then profile, which is the sweep's row order.
type intermitCell struct {
	job     sweepJob
	profile string
}

func intermitCells(levels []mcc.OptLevel, profiles []string) []intermitCell {
	jobs := sweepJobs(levels)
	cells := make([]intermitCell, 0, len(jobs)*len(profiles))
	for _, j := range jobs {
		for _, p := range profiles {
			cells = append(cells, intermitCell{job: j, profile: p})
		}
	}
	return cells
}

// Intermittent runs the harvested-power sweep: every benchmark at the
// given levels under each harvest profile, replayed checkpoint-oblivious
// and checkpoint-aware. Each cell's two runs share the sweep's session —
// the compile, baseline simulation and baseline replay are paid once —
// and the jobs run across the worker pool with deterministic row order.
// On failure every cell is still present, failed ones marked Incomplete.
func (sw *Sweep) Intermittent(ctx context.Context, levels []mcc.OptLevel, profiles []string) ([]IntermittentRow, error) {
	cells := intermitCells(levels, profiles)
	rows := make([]IntermittentRow, len(cells))
	for i, c := range cells {
		rows[i] = IntermittentRow{Bench: c.job.bench.Name, Level: c.job.level, Profile: c.profile, Incomplete: true}
	}
	err := sw.forEach(ctx, len(cells), func(i int) error {
		c := cells[i]
		opts := core.Options{PowerTrace: c.profile}
		obl, err := sw.RunBenchmark(ctx, c.job.bench, c.job.level, opts)
		if err != nil {
			return err
		}
		opts.CkptAware = true
		aware, err := sw.RunBenchmark(ctx, c.job.bench, c.job.level, opts)
		if err != nil {
			return err
		}
		oc, ac := obl.Report.Intermittent, aware.Report.Intermittent
		rows[i] = IntermittentRow{
			Bench:            c.job.bench.Name,
			Level:            c.job.level,
			Profile:          c.profile,
			Outages:          oc.Outages,
			CheckpointCycles: oc.CheckpointCycles,
			Baseline:         oc.Baseline,
			Oblivious:        oc.Optimized,
			Aware:            ac.Optimized,
			CkptNJPerByte:    ac.CkptNJPerByte,
		}
		return nil
	})
	return rows, err
}

// intermitClockHz is the simulated board's clock, used to express
// replay wall cycles as time-to-completion.
func intermitClockHz() float64 { return power.STM32F100().ClockHz }
