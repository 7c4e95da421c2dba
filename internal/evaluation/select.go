package evaluation

import (
	"context"
	"fmt"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/mcc"
)

// Candidate names one pipeline configuration competing in a BestConfig
// selection.
type Candidate struct {
	Name string
	Opts core.Options
}

// SelectionRow records one candidate's outcome in a BestConfig run.
type SelectionRow struct {
	Name string
	// EnergyNJ is the simulated optimized energy of the candidate.
	EnergyNJ float64
	Report   *core.Report
}

// Best is the outcome of a BestConfig selection: the winning
// configuration by simulated optimized energy, plus the per-candidate
// ledger.
type Best struct {
	Bench  string
	Level  mcc.OptLevel
	Winner string
	Report *core.Report
	Rows   []SelectionRow
}

// BestConfig simulates the candidate configurations in order and returns
// the one with the lowest optimized energy (ties keep the earliest
// candidate). The candidates share one session, so a candidate whose
// placement repeats an earlier one's image reuses its simulated runs.
func (sw *Sweep) BestConfig(ctx context.Context, b *beebs.Benchmark, level mcc.OptLevel, cands []Candidate) (*Best, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("evaluation: BestConfig needs at least one candidate")
	}
	sess, err := sw.Session(b, level)
	if err != nil {
		return nil, errs.AtBench(b.Name, level.String(), errs.Wrap(errs.StageCompile, err))
	}
	best := &Best{Bench: b.Name, Level: level}
	for _, c := range cands {
		rep, err := sess.Optimize(ctx, c.Opts)
		if err != nil {
			return nil, errs.AtBench(b.Name, level.String(), err)
		}
		row := SelectionRow{Name: c.Name, EnergyNJ: rep.Optimized.Stats.EnergyNJ, Report: rep}
		best.Rows = append(best.Rows, row)
		if best.Report == nil || row.EnergyNJ < best.Report.Optimized.Stats.EnergyNJ {
			best.Winner, best.Report = c.Name, rep
		}
	}
	return best, nil
}
