package evaluation

import (
	"encoding/json"

	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/sim"
)

// The types below are the machine-readable schema shared by the CLIs:
// `beebsbench -json`, `tradeoff -json` and `flashram profile -json` all
// emit these structures (plus internal/trace's ProfileJSON/DiffJSON for
// attribution data), so downstream tooling parses one set of field names.
// Convention: lower snake case with explicit unit suffixes (_mj, _ms,
// _mw, _nj, _bytes).

// MetricsJSON is one simulated run's headline numbers.
type MetricsJSON struct {
	EnergyMJ     float64 `json:"energy_mj"`
	TimeMS       float64 `json:"time_ms"`
	PowerMW      float64 `json:"power_mw"`
	Cycles       uint64  `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	RAMCodeBytes int     `json:"ram_code_bytes"`
}

// NewMetricsJSON converts a core.RunMetrics.
func NewMetricsJSON(m core.RunMetrics) MetricsJSON {
	return MetricsJSON{
		EnergyMJ:     m.EnergyMJ,
		TimeMS:       1e3 * m.TimeS,
		PowerMW:      m.PowerMW,
		Cycles:       m.Cycles,
		Instructions: m.Instructions,
		RAMCodeBytes: m.RAMCodeBytes,
	}
}

// RunJSON is one benchmark × level pipeline outcome.
type RunJSON struct {
	Bench        string      `json:"bench"`
	Level        string      `json:"level"`
	Baseline     MetricsJSON `json:"baseline"`
	Optimized    MetricsJSON `json:"optimized"`
	EnergyChange float64     `json:"energy_change"`
	TimeChange   float64     `json:"time_change"`
	PowerChange  float64     `json:"power_change"`
	BlocksInRAM  int         `json:"blocks_in_ram"`
	MovedBlocks  []string    `json:"moved_blocks"`

	// Strategy and StrategyReason are emitted only when the solver's
	// degradation ladder produced the placement from a rung below the
	// exact solve; the common ilp-optimal case — and its warm-started
	// twin warm-ilp-optimal, which is the same proven optimum reached
	// faster — stays out of the document so pre-ladder outputs remain
	// byte-identical and warm solves emit the same bytes as cold ones.
	Strategy       string `json:"strategy,omitempty"`
	StrategyReason string `json:"strategy_reason,omitempty"`

	// Intermittent is present exactly when the run carried a power trace
	// (core.Options.PowerTrace); trace-free documents are byte-identical
	// to the pre-intermittent schema.
	Intermittent *IntermittentJSON `json:"intermittent,omitempty"`
}

// NewRunJSON converts a Run.
func NewRunJSON(r *Run) RunJSON {
	rep := r.Report
	moved := rep.MovedLabels()
	out := RunJSON{
		Bench:        r.Bench,
		Level:        r.Level.String(),
		Baseline:     NewMetricsJSON(rep.Baseline),
		Optimized:    NewMetricsJSON(rep.Optimized),
		EnergyChange: rep.EnergyChange,
		TimeChange:   rep.TimeChange,
		PowerChange:  rep.PowerChange,
		BlocksInRAM:  len(moved),
		MovedBlocks:  moved,
	}
	if rep.Strategy != "" && rep.Strategy != placement.StrategyILPOptimal &&
		rep.Strategy != placement.StrategyWarmILPOptimal {
		out.Strategy = rep.Strategy
		out.StrategyReason = rep.StrategyReason
	}
	if rep.Intermittent != nil {
		j := NewIntermittentJSON(rep.Intermittent)
		out.Intermittent = &j
	}
	return out
}

// EncodeRun renders a run's document as `flashram -json` prints it and
// /v1/optimize serves it: two-space indent, trailing newline. It is the
// one encoder of that document, so the two surfaces are byte-identical by
// construction. It fails only on a value JSON cannot carry (NaN, ±Inf).
func EncodeRun(r *Run) ([]byte, error) {
	b, err := json.MarshalIndent(NewRunJSON(r), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// IntermittentReplayJSON is one image's replay under an injected power
// trace.
type IntermittentReplayJSON struct {
	UsefulInstructions   uint64  `json:"useful_instructions"`
	ReplayedInstructions uint64  `json:"replayed_instructions"`
	Checkpoints          int     `json:"checkpoints"`
	EnergyMJ             float64 `json:"energy_mj"`
	WorkPerMJ            float64 `json:"work_per_mj"`
	WallMS               float64 `json:"wall_ms"`
}

// NewIntermittentReplayJSON converts a sim.IntermittentReport.
func NewIntermittentReplayJSON(r *sim.IntermittentReport) IntermittentReplayJSON {
	return IntermittentReplayJSON{
		UsefulInstructions:   r.UsefulInstructions(),
		ReplayedInstructions: r.ReplayedInstrs,
		Checkpoints:          r.Checkpoints,
		EnergyMJ:             r.TotalEnergyNJ() * 1e-6,
		WorkPerMJ:            r.WorkPerMJ(),
		WallMS:               1e3 * r.TimeToCompletionS(intermitClockHz()),
	}
}

// IntermittentJSON is the intermittent tail of a run document: both
// images replayed under one injected schedule.
type IntermittentJSON struct {
	Outages          int                    `json:"outages"`
	CheckpointCycles uint64                 `json:"checkpoint_cycles"`
	CkptAware        bool                   `json:"ckpt_aware,omitempty"`
	CkptNJPerByte    float64                `json:"ckpt_nj_per_byte,omitempty"`
	Baseline         IntermittentReplayJSON `json:"baseline"`
	Optimized        IntermittentReplayJSON `json:"optimized"`
	WorkChange       float64                `json:"work_change"`
}

// NewIntermittentJSON converts a core.IntermittentComparison.
func NewIntermittentJSON(c *core.IntermittentComparison) IntermittentJSON {
	return IntermittentJSON{
		Outages:          c.Outages,
		CheckpointCycles: c.CheckpointCycles,
		CkptAware:        c.CkptAware,
		CkptNJPerByte:    c.CkptNJPerByte,
		Baseline:         NewIntermittentReplayJSON(c.Baseline),
		Optimized:        NewIntermittentReplayJSON(c.Optimized),
		WorkChange:       c.WorkPerMJChange(),
	}
}

// IntermittentRowJSON is one benchmark × level × harvest-profile cell of
// the intermittent sweep.
type IntermittentRowJSON struct {
	Bench              string  `json:"bench"`
	Level              string  `json:"level"`
	Profile            string  `json:"profile"`
	Outages            int     `json:"outages"`
	CheckpointCycles   uint64  `json:"checkpoint_cycles"`
	BaselineWorkPerMJ  float64 `json:"baseline_work_per_mj"`
	ObliviousWorkPerMJ float64 `json:"oblivious_work_per_mj"`
	AwareWorkPerMJ     float64 `json:"aware_work_per_mj"`
	BaselineTimeMS     float64 `json:"baseline_time_ms"`
	ObliviousTimeMS    float64 `json:"oblivious_time_ms"`
	AwareTimeMS        float64 `json:"aware_time_ms"`
	// Work-rate changes versus the all-flash baseline under the same
	// schedule (positive = more completed work per delivered mJ).
	ObliviousWorkChange float64 `json:"oblivious_work_change"`
	AwareWorkChange     float64 `json:"aware_work_change"`
	AwareCkptNJPerByte  float64 `json:"aware_ckpt_nj_per_byte"`
	// Incomplete marks a cell whose run failed or was cut off.
	Incomplete bool `json:"incomplete,omitempty"`
}

// NewIntermittentRowsJSON converts an Intermittent sweep result.
func NewIntermittentRowsJSON(rows []IntermittentRow) []IntermittentRowJSON {
	hz := intermitClockHz()
	out := make([]IntermittentRowJSON, len(rows))
	for i, r := range rows {
		out[i] = IntermittentRowJSON{
			Bench:      r.Bench,
			Level:      r.Level.String(),
			Profile:    r.Profile,
			Incomplete: r.Incomplete,
		}
		if r.Incomplete {
			continue
		}
		change := func(rep *sim.IntermittentReport) float64 {
			if b := r.Baseline.WorkPerMJ(); b != 0 {
				return rep.WorkPerMJ()/b - 1
			}
			return 0
		}
		out[i].Outages = r.Outages
		out[i].CheckpointCycles = r.CheckpointCycles
		out[i].BaselineWorkPerMJ = r.Baseline.WorkPerMJ()
		out[i].ObliviousWorkPerMJ = r.Oblivious.WorkPerMJ()
		out[i].AwareWorkPerMJ = r.Aware.WorkPerMJ()
		out[i].BaselineTimeMS = 1e3 * r.Baseline.TimeToCompletionS(hz)
		out[i].ObliviousTimeMS = 1e3 * r.Oblivious.TimeToCompletionS(hz)
		out[i].AwareTimeMS = 1e3 * r.Aware.TimeToCompletionS(hz)
		out[i].ObliviousWorkChange = change(r.Oblivious)
		out[i].AwareWorkChange = change(r.Aware)
		out[i].AwareCkptNJPerByte = r.CkptNJPerByte
	}
	return out
}

// Figure5RowJSON is one Figure 5 row (bars + frequency dots).
type Figure5RowJSON struct {
	Bench            string  `json:"bench"`
	Level            string  `json:"level"`
	EnergyChange     float64 `json:"energy_change"`
	TimeChange       float64 `json:"time_change"`
	PowerChange      float64 `json:"power_change"`
	ProfEnergyChange float64 `json:"prof_energy_change"`
	ProfTimeChange   float64 `json:"prof_time_change"`
	// Incomplete marks a cell whose run failed or was cut off before it
	// ran (cancellation, timeout); its numbers are zero, not measured.
	Incomplete bool `json:"incomplete,omitempty"`
}

// NewFigure5JSON converts a Figure5 result.
func NewFigure5JSON(rows []Figure5Row) []Figure5RowJSON {
	out := make([]Figure5RowJSON, len(rows))
	for i, r := range rows {
		out[i] = Figure5RowJSON{
			Bench:            r.Bench,
			Level:            r.Level.String(),
			EnergyChange:     r.EnergyChange,
			TimeChange:       r.TimeChange,
			PowerChange:      r.PowerChange,
			ProfEnergyChange: r.ProfEnergyChange,
			ProfTimeChange:   r.ProfTimeChange,
			Incomplete:       r.Incomplete,
		}
	}
	return out
}

// AggregateJSON is the §6 summary.
type AggregateJSON struct {
	Runs             []RunJSON `json:"runs"`
	MeanEnergyChange float64   `json:"mean_energy_change"`
	MeanPowerChange  float64   `json:"mean_power_change"`
	MeanTimeChange   float64   `json:"mean_time_change"`
	MaxEnergySaving  float64   `json:"max_energy_saving"`
	MaxEnergyBench   string    `json:"max_energy_bench"`
	MaxPowerSaving   float64   `json:"max_power_saving"`
	MaxPowerBench    string    `json:"max_power_bench"`
	FailedPlacement  int       `json:"failed_placement"`
	// IncompleteRuns counts cells missing from Runs because their
	// pipeline failed or was cut off; 0 (omitted) means a full sweep.
	IncompleteRuns int `json:"incomplete_runs,omitempty"`
}

// NewAggregateJSON converts an Aggregate.
func NewAggregateJSON(agg *Aggregate) AggregateJSON {
	out := AggregateJSON{
		MeanEnergyChange: agg.MeanEnergyChange,
		MeanPowerChange:  agg.MeanPowerChange,
		MeanTimeChange:   agg.MeanTimeChange,
		MaxEnergySaving:  agg.MaxEnergySaving,
		MaxEnergyBench:   agg.MaxEnergyBench,
		MaxPowerSaving:   agg.MaxPowerSaving,
		MaxPowerBench:    agg.MaxPowerBench,
		FailedPlacement:  agg.FailedPlacement,
		IncompleteRuns:   agg.IncompleteRuns,
	}
	for i := range agg.Runs {
		out.Runs = append(out.Runs, NewRunJSON(&agg.Runs[i]))
	}
	return out
}

// SaverJSON is one block's contribution to a run's energy change.
type SaverJSON struct {
	Label       string  `json:"label"`
	Func        string  `json:"func"`
	Mem         string  `json:"mem"` // optimized-image residence
	BaselineNJ  float64 `json:"baseline_nj"`
	OptimizedNJ float64 `json:"optimized_nj"`
	SavedNJ     float64 `json:"saved_nj"`
}

// NewSaverJSON converts a core.BlockSaving.
func NewSaverJSON(s core.BlockSaving) SaverJSON {
	mem := "flash"
	if s.InRAM {
		mem = "ram"
	}
	return SaverJSON{
		Label:       s.Label,
		Func:        s.Func,
		Mem:         mem,
		BaselineNJ:  s.BaselineNJ,
		OptimizedNJ: s.OptimizedNJ,
		SavedNJ:     s.SavedNJ,
	}
}

// SaversRowJSON names the blocks behind one run's energy saving.
type SaversRowJSON struct {
	Bench  string      `json:"bench"`
	Level  string      `json:"level"`
	Savers []SaverJSON `json:"savers"`
	// Incomplete marks a cell whose run failed or was cut off.
	Incomplete bool `json:"incomplete,omitempty"`
}

// NewSaversJSON converts a TopSavers result.
func NewSaversJSON(rows []SaversRow) []SaversRowJSON {
	out := make([]SaversRowJSON, len(rows))
	for i, r := range rows {
		out[i] = SaversRowJSON{Bench: r.Bench, Level: r.Level.String(), Incomplete: r.Incomplete}
		for _, s := range r.Savers {
			out[i].Savers = append(out[i].Savers, NewSaverJSON(s))
		}
	}
	return out
}

// ScenarioJSON is the §7 periodic-sensing scenario built from a run.
type ScenarioJSON struct {
	E0MJ         float64 `json:"e0_mj"`
	TAMS         float64 `json:"ta_ms"`
	Ke           float64 `json:"ke"`
	Kt           float64 `json:"kt"`
	SleepPowerMW float64 `json:"sleep_power_mw"`
	SavedMJ      float64 `json:"saved_mj"` // Eq. 12, period independent
}

// NewScenarioJSON converts a casestudy.Scenario.
func NewScenarioJSON(sc casestudy.Scenario) ScenarioJSON {
	return ScenarioJSON{
		E0MJ:         sc.E0,
		TAMS:         1e3 * sc.TA,
		Ke:           sc.Ke,
		Kt:           sc.Kt,
		SleepPowerMW: sc.PS,
		SavedMJ:      sc.EnergySaved(),
	}
}

// SweepPointJSON is one Figure 9 period point.
type SweepPointJSON struct {
	Multiple      float64 `json:"multiple"` // T / TA
	EnergyPercent float64 `json:"energy_percent"`
	LifeExtension float64 `json:"life_extension"`
}

// Figure9SeriesJSON is one benchmark's Figure 9 curve.
type Figure9SeriesJSON struct {
	Bench    string           `json:"bench"`
	Scenario ScenarioJSON     `json:"scenario"`
	Points   []SweepPointJSON `json:"points"`
}

// NewFigure9JSON converts a Figure9 result.
func NewFigure9JSON(series []Figure9Series) []Figure9SeriesJSON {
	out := make([]Figure9SeriesJSON, len(series))
	for i, s := range series {
		out[i] = Figure9SeriesJSON{Bench: s.Bench, Scenario: NewScenarioJSON(s.Scenario)}
		for _, p := range s.Points {
			out[i].Points = append(out[i].Points, SweepPointJSON{
				Multiple:      p.Multiple,
				EnergyPercent: p.EnergyPercent,
				LifeExtension: p.LifeExtension,
			})
		}
	}
	return out
}

// PathPointJSON is one solver decision along a Figure 6 constraint sweep.
type PathPointJSON struct {
	Constraint float64 `json:"constraint"`
	EnergyNJ   float64 `json:"energy_nj"`
	Cycles     float64 `json:"cycles"`
	RAMBytes   float64 `json:"ram_bytes"`
}

// PointJSON is one enumerated placement of the Figure 6 cloud.
type PointJSON struct {
	Mask     uint64  `json:"mask"`
	EnergyNJ float64 `json:"energy_nj"`
	Cycles   float64 `json:"cycles"`
	RAMBytes float64 `json:"ram_bytes"`
	Feasible bool    `json:"feasible"`
}

// Figure6JSON is the machine-readable Figure 6 dataset.
type Figure6JSON struct {
	Bench        string          `json:"bench"`
	Level        string          `json:"level"`
	Blocks       []string        `json:"blocks"`
	BaseEnergyNJ float64         `json:"base_energy_nj"`
	BaseCycles   float64         `json:"base_cycles"`
	Points       []PointJSON     `json:"points,omitempty"`
	RAMPath      []PathPointJSON `json:"ram_path"`
	TimePath     []PathPointJSON `json:"time_path"`
	// Status is "incomplete" when the constraint sweeps were cut off
	// (timeout, interrupt): the cloud and the path points present are
	// valid — each names its own constraint — and the rest are simply
	// missing. Absent on a clean run.
	Status string `json:"status,omitempty"`
}

// NewFigure6JSON converts a Figure6Data (points included only when
// withPoints, the cloud being 2^k entries).
func NewFigure6JSON(d *Figure6Data, level string, withPoints bool) Figure6JSON {
	out := Figure6JSON{
		Bench:        d.Bench,
		Level:        level,
		Blocks:       d.Blocks,
		BaseEnergyNJ: d.BaseEnergyNJ,
		BaseCycles:   d.BaseCycles,
	}
	if withPoints {
		for _, p := range d.Points {
			out.Points = append(out.Points, PointJSON{
				Mask:     uint64(p.Mask),
				EnergyNJ: p.EnergyNJ,
				Cycles:   p.Cycles,
				RAMBytes: p.RAMBytes,
				Feasible: p.Feasible,
			})
		}
	}
	conv := func(pts []PathPoint) []PathPointJSON {
		out := make([]PathPointJSON, len(pts))
		for i, p := range pts {
			out[i] = PathPointJSON{
				Constraint: p.Constraint,
				EnergyNJ:   p.EnergyNJ,
				Cycles:     p.Cycles,
				RAMBytes:   p.RAMBytes,
			}
		}
		return out
	}
	out.RAMPath = conv(d.RAMPath)
	out.TimePath = conv(d.TimePath)
	return out
}

// SelectionRowJSON is one candidate's outcome in a BestConfig selection.
type SelectionRowJSON struct {
	Name     string  `json:"name"`
	EnergyNJ float64 `json:"energy_nj,omitempty"`
}

// BestJSON is one benchmark × level winner-selection outcome.
type BestJSON struct {
	Bench        string             `json:"bench"`
	Level        string             `json:"level"`
	Winner       string             `json:"winner"`
	EnergyNJ     float64            `json:"energy_nj"`
	EnergyChange float64            `json:"energy_change"`
	Candidates   []SelectionRowJSON `json:"candidates"`
}

// NewBestJSON converts a Best.
func NewBestJSON(b *Best) BestJSON {
	out := BestJSON{
		Bench:        b.Bench,
		Level:        b.Level.String(),
		Winner:       b.Winner,
		EnergyNJ:     b.Report.Optimized.Stats.EnergyNJ,
		EnergyChange: b.Report.EnergyChange,
	}
	for _, r := range b.Rows {
		out.Candidates = append(out.Candidates, SelectionRowJSON{Name: r.Name, EnergyNJ: r.EnergyNJ})
	}
	return out
}
