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
	// Pruned marks a candidate whose static lower energy bound already
	// exceeded the incumbent's simulated energy, so it was never
	// simulated. Its Report is nil and EnergyNJ is zero.
	Pruned bool
	// LowerBoundNJ is the candidate's whole-program static lower energy
	// bound; only set when pruning was enabled and consulted.
	LowerBoundNJ float64
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
// candidate). With sw.Prune set, a candidate whose whole-program static
// lower energy bound (internal/analysis/bounds, an O(blocks) analysis —
// no simulation) exceeds the incumbent's simulated energy is skipped:
// the bound is admissible, lower ≤ simulated, so the skipped cell
// provably cannot win and the selected winner — and its numbers — are
// identical with pruning on or off. Only the session's
// prune_checked/prune_skipped ledger and the Pruned rows differ.
func (sw *Sweep) BestConfig(ctx context.Context, b *beebs.Benchmark, level mcc.OptLevel, cands []Candidate) (*Best, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("evaluation: BestConfig needs at least one candidate")
	}
	sess, err := sw.Session(b, level)
	if err != nil {
		return nil, errs.AtBench(b.Name, level.String(), errs.Wrap(errs.StageCompile, err))
	}
	best := &Best{Bench: b.Name, Level: level}
	incumbent := 0.0
	for _, c := range cands {
		row := SelectionRow{Name: c.Name}
		if sw.Prune && best.Report != nil {
			br, err := sess.StaticBounds(ctx, c.Opts)
			if err != nil {
				return nil, errs.AtBench(b.Name, level.String(), err)
			}
			row.LowerBoundNJ = br.Whole.LoEnergyNJ
			pruned, err := sess.PruneAgainst(ctx, c.Opts, incumbent)
			if err != nil {
				return nil, errs.AtBench(b.Name, level.String(), err)
			}
			if pruned {
				row.Pruned = true
				best.Rows = append(best.Rows, row)
				continue
			}
		}
		rep, err := sess.Optimize(ctx, c.Opts)
		if err != nil {
			return nil, errs.AtBench(b.Name, level.String(), err)
		}
		row.EnergyNJ = rep.Optimized.Stats.EnergyNJ
		row.Report = rep
		best.Rows = append(best.Rows, row)
		if best.Report == nil || row.EnergyNJ < incumbent {
			best.Winner, best.Report, incumbent = c.Name, rep, row.EnergyNJ
		}
	}
	return best, nil
}
