package core_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/mcc"
	"repro/internal/placement"
)

func warmSessionForTest(t testing.TB, bench string, level mcc.OptLevel) *core.Session {
	t.Helper()
	b := beebs.Get(bench)
	if b == nil {
		t.Fatalf("benchmark %q missing", bench)
	}
	prog, err := mcc.Compile(b.Source, level)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSession(prog, core.SessionConfig{WarmSolve: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func solveAt(t *testing.T, s *core.Session, rspare, xlimit float64) *placement.Result {
	t.Helper()
	res, err := s.Solve(context.Background(), core.SolveSpec{
		ModelSpec: core.ModelSpec{Rspare: rspare, Xlimit: xlimit},
		Solver:    core.SolverILP,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWarmSolveMatchesCold walks the Figure 6 RAM sweep tightest-last on
// a warm session and checks every placement — the blocks moved, the
// modeled outcome, provenness — is exactly what a cold session computes
// for the same point. Warm starts may only change solver effort, never
// the answer.
func TestWarmSolveMatchesCold(t *testing.T) {
	const bench, level = "int_matmult", mcc.O2
	sweep := []float64{4096, 2048, 1024, 512, 256, 128, 64, 0}

	warm := warmSessionForTest(t, bench, level)
	cold := sessionForTest(t, bench, level)

	for _, rs := range sweep {
		w := solveAt(t, warm, rs, 1e9)
		c := solveAt(t, cold, rs, 1e9)
		if !reflect.DeepEqual(w.InRAM, c.InRAM) {
			t.Errorf("rspare %v: warm placement %v, cold %v", rs, w.InRAM, c.InRAM)
		}
		if w.Outcome != c.Outcome {
			t.Errorf("rspare %v: warm outcome %+v, cold %+v", rs, w.Outcome, c.Outcome)
		}
		if w.Proven != c.Proven || !w.Proven {
			t.Errorf("rspare %v: proven warm=%v cold=%v, want both true", rs, w.Proven, c.Proven)
		}
	}

	ws := warm.SolverStats()
	if ws.WarmHits == 0 {
		t.Errorf("tightening sweep never consumed warm state: %+v", ws)
	}
	if ws.WarmHits+ws.WarmMisses != uint64(len(sweep)) {
		t.Errorf("warm ledger covers %d solves, want %d: %+v", ws.WarmHits+ws.WarmMisses, len(sweep), ws)
	}
	cs := cold.SolverStats()
	if cs != (core.SolverStats{}) {
		t.Errorf("cold session has a warm ledger: %+v", cs)
	}
}

// TestWarmSolveRungProvenance pins the strategy bookkeeping: the
// warm-ilp-optimal rung is recorded exactly when carried warm state was
// consumed — never on the first solve of a family, never on a cold
// session, and always in lockstep with WarmUse.Consumed.
func TestWarmSolveRungProvenance(t *testing.T) {
	const bench, level = "int_matmult", mcc.O2
	s := warmSessionForTest(t, bench, level)

	first := solveAt(t, s, 2048, 1e9)
	if first.Strategy != placement.StrategyILPOptimal {
		t.Fatalf("first solve strategy = %q, want %q (no donor exists yet)",
			first.Strategy, placement.StrategyILPOptimal)
	}
	if first.WarmUse.Consumed {
		t.Fatalf("first solve consumed warm state: %+v", first.WarmUse)
	}
	if first.Warm == nil {
		t.Fatal("proven solve donated no warm state")
	}

	second := solveAt(t, s, 1024, 1e9)
	if !second.Proven {
		t.Fatalf("second solve not proven: %+v", second)
	}
	wantStrategy := placement.StrategyILPOptimal
	if second.WarmUse.Consumed {
		wantStrategy = placement.StrategyWarmILPOptimal
	}
	if second.Strategy != wantStrategy {
		t.Errorf("strategy = %q with WarmUse %+v, want %q",
			second.Strategy, second.WarmUse, wantStrategy)
	}
	if !second.WarmUse.Consumed {
		t.Errorf("tightening re-solve with a donor consumed nothing: %+v", second.WarmUse)
	}

	// The memo returns the recorded result as-is: re-solving the first
	// point must not rewrite its provenance now that donors exist.
	again := solveAt(t, s, 2048, 1e9)
	if again.Strategy != placement.StrategyILPOptimal {
		t.Errorf("memoized solve strategy rewritten to %q", again.Strategy)
	}

	// A cold session never records the warm rung, and keeps no donated
	// state: only the warm registry would read it.
	c := sessionForTest(t, bench, level)
	for _, rs := range []float64{2048, 1024} {
		res := solveAt(t, c, rs, 1e9)
		if res.Strategy == placement.StrategyWarmILPOptimal {
			t.Errorf("cold solve at rspare %v recorded %q", rs, res.Strategy)
		}
		if res.Warm != nil && res.Warm.State != nil {
			t.Errorf("cold solve at rspare %v kept its root state", rs)
		}
	}
}

// TestWarmSolveSessionStats checks the session-level warm counters are
// wired through the SolverStats document.
func TestWarmSolveSessionStats(t *testing.T) {
	const bench, level = "int_matmult", mcc.O2
	s := warmSessionForTest(t, bench, level)
	for _, rs := range []float64{1024, 512, 256} {
		solveAt(t, s, rs, 1e9)
	}
	ws := s.SolverStats()
	if ws.WarmHits+ws.WarmMisses != 3 {
		t.Errorf("ledger covers %d solves, want 3: %+v", ws.WarmHits+ws.WarmMisses, ws)
	}
	if ws.WarmHits > 0 && ws.IncumbentsAccepted == 0 && ws.WarmProofs == 0 && ws.SimplexItersSaved == 0 {
		t.Errorf("hits with no recorded ingredient: %+v", ws)
	}
}
