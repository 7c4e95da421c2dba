package evaluation

import (
	"context"
	"repro/internal/core"
	"testing"

	"repro/internal/beebs"
	"repro/internal/mcc"
)

// selectionCandidates is a constructed scenario with a dominated cell:
// the incumbent (default placement) saves enough energy that the
// no-RAM candidate's static lower bound — a baseline-shaped image —
// provably exceeds it, so a pruning sweep can skip simulating it.
func selectionCandidates() []Candidate {
	return []Candidate{
		{Name: "default", Opts: core.Options{}},
		{Name: "no-ram", Opts: core.Options{Rspare: 1}},
		{Name: "profiled", Opts: core.Options{UseProfile: true}},
	}
}

// TestBestConfigPruningNeutral is the golden test for admissible
// pruning: the selected winner — name, energy, every reported number —
// must be identical with pruning on and off, while the pruning sweep
// must actually skip at least one dominated candidate and ledger it.
func TestBestConfigPruningNeutral(t *testing.T) {
	b := beebs.Get("sha")
	cands := selectionCandidates()

	plain := NewSweep(1)
	ref, err := plain.BestConfig(context.Background(), b, mcc.O2, cands)
	if err != nil {
		t.Fatal(err)
	}

	pruned := NewSweep(1)
	pruned.Prune = true
	got, err := pruned.BestConfig(context.Background(), b, mcc.O2, cands)
	if err != nil {
		t.Fatal(err)
	}

	if got.Winner != ref.Winner {
		t.Fatalf("pruning changed the winner: %q vs %q", got.Winner, ref.Winner)
	}
	if got.Report.Optimized.Stats.EnergyNJ != ref.Report.Optimized.Stats.EnergyNJ {
		t.Errorf("pruning changed the winner's energy: %v vs %v",
			got.Report.Optimized.Stats.EnergyNJ, ref.Report.Optimized.Stats.EnergyNJ)
	}
	if got.Report.EnergyChange != ref.Report.EnergyChange ||
		got.Report.TimeChange != ref.Report.TimeChange ||
		got.Report.PowerChange != ref.Report.PowerChange {
		t.Errorf("pruning changed the winner's report: %+v vs %+v", got.Report, ref.Report)
	}

	if len(ref.Rows) != len(cands) || len(got.Rows) != len(cands) {
		t.Fatalf("row counts: plain %d pruned %d, want %d", len(ref.Rows), len(got.Rows), len(cands))
	}
	for _, row := range ref.Rows {
		if row.Pruned {
			t.Errorf("plain sweep pruned %q", row.Name)
		}
	}

	var prunedRows int
	for _, row := range got.Rows {
		if !row.Pruned {
			continue
		}
		prunedRows++
		if row.Report != nil || row.EnergyNJ != 0 {
			t.Errorf("pruned row %q carries simulation results: %+v", row.Name, row)
		}
		if row.LowerBoundNJ <= ref.Report.Optimized.Stats.EnergyNJ {
			t.Errorf("pruned row %q lower bound %.0f does not dominate incumbent %.0f",
				row.Name, row.LowerBoundNJ, ref.Report.Optimized.Stats.EnergyNJ)
		}
	}
	if prunedRows == 0 {
		t.Error("pruning sweep simulated every candidate; want >= 1 pruned")
	}

	st := pruned.Stats().Stages
	if st.PruneChecked == 0 || st.PruneSkipped == 0 {
		t.Errorf("prune ledger empty: checked %d skipped %d", st.PruneChecked, st.PruneSkipped)
	}
	if st.PruneSkipped != uint64(prunedRows) {
		t.Errorf("ledger skipped %d, rows pruned %d", st.PruneSkipped, prunedRows)
	}
	if ps := plain.Stats().Stages; ps.PruneChecked != 0 || ps.PruneSkipped != 0 {
		t.Errorf("plain sweep touched the prune ledger: %+v", ps)
	}
	t.Logf("winner %q at %.0f nJ; pruned %d/%d candidates (checked %d)",
		got.Winner, got.Report.Optimized.Stats.EnergyNJ, prunedRows, len(cands), st.PruneChecked)
}

// TestBestConfigOrder pins the tie-break: the earliest candidate wins a
// tie, so duplicate configurations cannot flap the winner.
func TestBestConfigOrder(t *testing.T) {
	b := beebs.Get("crc32")
	best, err := NewSweep(1).BestConfig(context.Background(), b, mcc.O2, []Candidate{
		{Name: "first", Opts: core.Options{}},
		{Name: "same-again", Opts: core.Options{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Winner != "first" {
		t.Errorf("tie went to %q, want %q", best.Winner, "first")
	}
}
