package placement

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ir"
)

// TestWarmChainMatchesColdOnFigure2 carries each proven solve's donated
// Warm state into the next, tighter solve and checks the chain lands on
// exactly the cold answers: same placements, same outcomes, all proven.
func TestWarmChainMatchesColdOnFigure2(t *testing.T) {
	p := ir.Figure2Program()
	chain := []float64{2048, 512, 60, 24, 0}

	consumed := 0
	var carry *Warm
	for _, rspare := range chain {
		m := buildModel(t, p, rspare, 2.0)
		warm, err := SolveILPWarm(context.Background(), m, Budget{}, carry)
		if err != nil {
			t.Fatalf("rspare %v warm: %v", rspare, err)
		}
		cold, err := SolveILP(context.Background(), m, Budget{})
		if err != nil {
			t.Fatalf("rspare %v cold: %v", rspare, err)
		}
		if !reflect.DeepEqual(warm.InRAM, cold.InRAM) || warm.Outcome != cold.Outcome {
			t.Errorf("rspare %v: warm %v %+v, cold %v %+v",
				rspare, warm.InRAM, warm.Outcome, cold.InRAM, cold.Outcome)
		}
		if !warm.Proven || warm.Warm == nil {
			t.Fatalf("rspare %v: proven=%v warm donation=%v", rspare, warm.Proven, warm.Warm)
		}
		if carry == nil && warm.WarmUse.Consumed {
			t.Errorf("rspare %v: consumed warm state with nothing carried", rspare)
		}
		if warm.WarmUse.Consumed {
			consumed++
		}
		carry = warm.Warm
	}
	if consumed == 0 {
		t.Error("tightening chain never consumed carried state")
	}
}

// TestWarmBoundAdmissibility pins the monotonicity rule: the donor's
// objective travels as a bound only into a region contained in the
// donor's; a loosened receiver may reuse the incumbent but not the
// bound.
func TestWarmBoundAdmissibility(t *testing.T) {
	p := ir.Figure2Program()

	donor, err := SolveILP(context.Background(), buildModel(t, p, 2048, 2.0), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if donor.Warm == nil || !donor.Warm.Proven {
		t.Fatalf("donor donated %+v", donor.Warm)
	}

	// Tightening on rspare: region shrinks, bound admissible.
	tight, err := SolveILPWarm(context.Background(), buildModel(t, p, 512, 2.0), Budget{}, donor.Warm)
	if err != nil {
		t.Fatal(err)
	}
	if !tight.WarmUse.Bound {
		t.Errorf("tightened solve did not carry the admissible bound: %+v", tight.WarmUse)
	}

	// Loosening on xlimit: region grows, the donor optimum is no longer
	// a valid lower bound and must not be carried.
	loose, err := SolveILPWarm(context.Background(), buildModel(t, p, 2048, 3.0), Budget{}, donor.Warm)
	if err != nil {
		t.Fatal(err)
	}
	if loose.WarmUse.Bound {
		t.Errorf("loosened solve carried an inadmissible bound: %+v", loose.WarmUse)
	}
	if !loose.Proven {
		t.Errorf("loosened solve not proven: %+v", loose)
	}
}

// TestWarmSamePointIsInstantProof re-solves a point with its own donated
// state: the incumbent equals the bound, so optimality closes with zero
// branch-and-bound nodes.
func TestWarmSamePointIsInstantProof(t *testing.T) {
	p := ir.Figure2Program()
	m := buildModel(t, p, 2048, 2.0)
	first, err := SolveILP(context.Background(), m, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := SolveILPWarm(context.Background(), m, Budget{}, first.Warm)
	if err != nil {
		t.Fatal(err)
	}
	if !again.WarmUse.InstantProof || again.Nodes != 0 {
		t.Fatalf("re-solve with own state: InstantProof=%v Nodes=%d, want proof with 0 nodes",
			again.WarmUse.InstantProof, again.Nodes)
	}
	if again.Strategy != StrategyWarmILPOptimal {
		t.Errorf("strategy = %q, want %q", again.Strategy, StrategyWarmILPOptimal)
	}
	if !reflect.DeepEqual(again.InRAM, first.InRAM) ||
		math.Abs(again.Outcome.EnergyNJ-first.Outcome.EnergyNJ) > 1e-9 {
		t.Errorf("instant proof changed the answer: %v vs %v", again.InRAM, first.InRAM)
	}
	// The instant proof passes the donor's root state through, so the
	// NEXT point in a chain still has a tableau to start from.
	if again.Warm == nil || again.Warm.State == nil {
		t.Errorf("instant proof dropped the donated state: %+v", again.Warm)
	}
}

// TestWarmGarbageStateIsHarmless feeds a Warm whose tableau state and
// incumbent belong to no solve of this model; the solver must quietly
// fall back to a cold solve and still return the proven optimum.
func TestWarmGarbageStateIsHarmless(t *testing.T) {
	p := ir.Figure2Program()
	m := buildModel(t, p, 2048, 2.0)
	cold, err := SolveILP(context.Background(), m, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := SolveILP(context.Background(),
		buildModel(t, randomProgram(rand.New(rand.NewSource(5)), 6), 2048, 2.0), Budget{})
	if err != nil {
		t.Fatal(err)
	}
	garbage := &Warm{
		Incumbent: map[string]bool{"no_such_block": true},
		Obj:       -1e18, // wildly wrong, but not Proven: never carried
		State:     other.Warm.State,
		RootIters: 3,
	}
	res, err := SolveILPWarm(context.Background(), m, Budget{}, garbage)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven || !reflect.DeepEqual(res.InRAM, cold.InRAM) {
		t.Fatalf("garbage warm state changed the answer: %v vs %v", res.InRAM, cold.InRAM)
	}
	if res.WarmUse.Bound {
		t.Errorf("unproven donor's bound was carried: %+v", res.WarmUse)
	}
}
