package lp

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// randomFeasibleLP builds a bounded, feasible minimization with enough
// structure that phase 2 needs several pivots.
func randomFeasibleLP(seed int64, n int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetObj(j, -float64(1+rng.Intn(20)))
		p.AddRow(map[int]float64{j: 1}, LE, 1)
	}
	row := make(map[int]float64, n)
	for j := 0; j < n; j++ {
		row[j] = float64(1 + rng.Intn(9))
	}
	p.AddRow(row, LE, float64(n))
	return p
}

// TestIterLimitReturnsFeasiblePoint pins the fix for the discarded
// phase-2 point: once phase 1 has found a feasible basis, an iteration-
// limit trip must surface the current basic feasible solution rather
// than an empty one.
func TestIterLimitReturnsFeasiblePoint(t *testing.T) {
	sawPartial := false
	for seed := int64(0); seed < 8; seed++ {
		p := randomFeasibleLP(seed, 12)
		full, err := p.Solve(context.Background())
		if err != nil || full.Status != Optimal {
			t.Fatalf("seed %d: unrestricted solve: %v %v", seed, full, err)
		}
		certify(t, p, full)
		for maxIter := 1; maxIter <= 40; maxIter++ {
			q := p.Clone()
			q.MaxIter = maxIter
			s, err := q.Solve(context.Background())
			if err != nil {
				t.Fatalf("seed %d maxIter %d: %v", seed, maxIter, err)
			}
			if s.Status != IterLimit {
				continue
			}
			if s.X == nil {
				continue // phase-1 trip: no feasible point exists yet
			}
			sawPartial = true
			if !q.Feasible(s.X, 1e-6) {
				t.Fatalf("seed %d maxIter %d: IterLimit point infeasible: %v", seed, maxIter, s.X)
			}
			if s.Obj < full.Obj-1e-6 {
				t.Fatalf("seed %d maxIter %d: partial objective %v better than optimum %v",
					seed, maxIter, s.Obj, full.Obj)
			}
		}
	}
	if !sawPartial {
		t.Fatal("no configuration tripped the iteration limit in phase 2; the fix is untested")
	}
}

// TestSolveCancellation: a cancelled context stops the solve with an
// error matching context.Canceled; an alive one never errors.
func TestSolveCancellation(t *testing.T) {
	p := randomFeasibleLP(1, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Solve(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve returned %v, want context.Canceled", err)
	}
	s, err := p.Solve(context.Background())
	if err != nil || s.Status != Optimal {
		t.Fatalf("background solve: %v %v", s, err)
	}
	certify(t, p, s)
}
