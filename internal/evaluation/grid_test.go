package evaluation

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/mcc"
	"repro/internal/placement"
)

// gridNodeCeiling is the node budget every cell of the placement grid
// must be proven within.
const gridNodeCeiling = 5000

// TestPlacementGridProvesEveryCell solves the 600-cell placement grid
// cold: every BEEBS benchmark at O0, O1, O2, O3 and Os, under Rspare
// {derived, 1024, 512, 256, 128, 64} bytes and Xlimit {2.0, 1.2}, with
// the default candidate cap. Every cell must come back proven optimal
// (ilp-optimal) within gridNodeCeiling branch-and-bound nodes. Branching
// on the most fractional binary needed 38,090 nodes under that budget
// and left int_matmult O0 512/1.2 and blowfish O0 1024/1.2 unproven;
// penalty branching with reduced-cost fixing proves the grid in 7,718,
// none above 151 (dijkstra O0 1024/1.2).
func TestPlacementGridProvesEveryCell(t *testing.T) {
	if testing.Short() {
		t.Skip("600 cold placement solves")
	}
	ctx := context.Background()
	levels := []mcc.OptLevel{mcc.O0, mcc.O1, mcc.O2, mcc.O3, mcc.Os}
	total, worst, worstCell, cells := 0, 0, "", 0
	for _, b := range beebs.All() {
		for _, level := range levels {
			sess, err := (&Sweep{ColdSolve: true}).Session(b, level)
			if err != nil {
				t.Fatal(err)
			}
			derived, err := sess.SpareRAM()
			if err != nil {
				t.Fatal(err)
			}
			for _, rspare := range []float64{derived, 1024, 512, 256, 128, 64} {
				for _, xlimit := range []float64{2.0, 1.2} {
					cell := fmt.Sprintf("%s %v Rspare %g Xlimit %g", b.Name, level, rspare, xlimit)
					res, err := sess.Solve(ctx, core.SolveSpec{
						ModelSpec: core.ModelSpec{Rspare: rspare, Xlimit: xlimit},
						Budget:    placement.Budget{MaxNodes: gridNodeCeiling},
					})
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					cells++
					if res.Strategy != placement.StrategyILPOptimal || !res.Proven {
						t.Errorf("%s: strategy %s (%s) after %d nodes, want %s",
							cell, res.Strategy, res.StrategyReason, res.Nodes, placement.StrategyILPOptimal)
					}
					total += res.Nodes
					if res.Nodes > worst {
						worst, worstCell = res.Nodes, cell
					}
				}
			}
		}
	}
	if cells != 600 {
		t.Errorf("solved %d cells, want 600", cells)
	}
	t.Logf("%d cells proven in %d nodes; the largest tree is %s, %d nodes", cells, total, worstCell, worst)
}
