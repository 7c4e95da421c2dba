package ilp

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/lp"
)

// sameBits reports whether a and b hold the same values, walking
// pointers, structs and slices (unexported fields included) and comparing
// floats by their bits.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int:
		return a.Int() == b.Int()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	}
	panic("sameBits: unhandled kind " + a.Kind().String())
}

// sameState compares two states by their dense expansions, so a packed
// state equals the dense state it was packed from.
func sameState(a, b *lp.State) bool {
	return sameBits(reflect.ValueOf(a.Copy(nil)), reflect.ValueOf(b.Copy(nil)))
}

// isPacked reports whether st holds its tableau packed.
func isPacked(st *lp.State) bool { return st.Packed() }

// branchingKnapsack is a 14-item knapsack whose root relaxation is
// fractional at every capacity used below, so each solve branches.
func branchingKnapsack(t *testing.T, capacity float64) *Solver {
	rng := rand.New(rand.NewSource(3))
	const n = 14
	values := make([]float64, n)
	weights := make([]float64, n)
	for j := 0; j < n; j++ {
		values[j] = float64(10 + rng.Intn(90))
		weights[j] = float64(5 + rng.Intn(30))
	}
	return knapsack(t, values, weights, capacity)
}

// groupedKnapsack is a 14-item knapsack whose items also come in seven
// pairs, each pair under a capacity of its own. Each of its eight rows
// touches few columns, so its root tableau is sparse enough to pack.
func groupedKnapsack(t *testing.T, capacity float64) *Solver {
	s := branchingKnapsack(t, capacity)
	for j := 0; j < s.Base.NumVars(); j += 2 {
		s.Base.AddRow(map[int]float64{j: 12, j + 1: 12}, lp.LE, 20)
	}
	return s
}

// mustBranch solves s and fails unless the search went past the root.
func mustBranch(t *testing.T, s *Solver) *Result {
	t.Helper()
	r := mustSolve(t, s)
	if r.Status != Optimal || r.Nodes < 3 {
		t.Fatalf("status %v in %d nodes, want a branching optimal solve", r.Status, r.Nodes)
	}
	return r
}

// TestDonorStateIsOnlyRead: a branching solve warm-started from a donor
// state leaves the donor bit-identical, so one donor can serve any number
// of later solves.
func TestDonorStateIsOnlyRead(t *testing.T) {
	donor := mustBranch(t, branchingKnapsack(t, 80)).RootState
	snapshot := donor.Copy(nil)
	if !sameState(donor, snapshot) {
		t.Fatal("Copy is not bit-identical to its source")
	}
	for _, capacity := range []float64{60, 45} {
		s := branchingKnapsack(t, capacity)
		s.Warm = &WarmStart{State: donor}
		if r := mustBranch(t, s); !r.WarmRoot {
			t.Fatalf("capacity %v: the donor state was not resumed", capacity)
		}
		if !sameState(donor, snapshot) {
			t.Fatalf("capacity %v: the solve wrote to its donor state", capacity)
		}
	}
}

// TestDonorStateServesConcurrentSolves: solves on several goroutines at
// once resume one shared donor, as placement.Warm shares it across sweep
// workers. Each gets the sequential answer, every relaxation is certified
// (certified), nodes are cut off at the incumbent, and the donor is
// unchanged. Run under -race, it also shows that the resumes' certificate
// scratch and the solves' node problems are never shared.
func TestDonorStateServesConcurrentSolves(t *testing.T) {
	donor := mustBranch(t, branchingKnapsack(t, 80)).RootState
	snapshot := donor.Copy(nil)
	capacities := []float64{60, 45, 30, 60}
	want := make([]float64, len(capacities))
	for i, capacity := range capacities {
		want[i] = mustSolve(t, branchingKnapsack(t, capacity)).Obj
	}
	var wg sync.WaitGroup
	cut := make([]*int, len(capacities))
	for i, capacity := range capacities {
		s := branchingKnapsack(t, capacity)
		s.Warm = &WarmStart{State: donor}
		cut[i] = cutoffs(s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := s.Solve(context.Background())
			if err != nil {
				t.Errorf("capacity %v: %v", capacity, err)
			} else if r.Obj != want[i] {
				t.Errorf("capacity %v: obj %v, want %v", capacity, r.Obj, want[i])
			}
		}()
	}
	wg.Wait()
	if !sameState(donor, snapshot) {
		t.Fatal("concurrent solves wrote to their shared donor state")
	}
	total := 0
	for _, n := range cut {
		total += *n
	}
	if total == 0 {
		t.Error("no node of the concurrent solves was cut off at the incumbent")
	}
}

// TestRootStateIsTheRootRelaxation: a branching solve's RootState comes
// back dense and bit-identical to a cold solve of the root relaxation
// alone (the search below the root only ever copies it), and stays so,
// packed as a keeper parks it, across two later solves that both resume
// it. Packing keeps the plain knapsack's state (one dense row) dense and
// packs the grouped knapsack's.
func TestRootStateIsTheRootRelaxation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		solver func(*testing.T, float64) *Solver
		packed bool
	}{
		{"knapsack", branchingKnapsack, false},
		{"grouped", groupedKnapsack, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.solver(t, 60)
			res := mustBranch(t, s)
			if isPacked(res.RootState) {
				t.Fatal("RootState came back packed")
			}
			res.RootState.Pack()
			if got := isPacked(res.RootState); got != tc.packed {
				t.Fatalf("packed RootState packed = %v, want %v", got, tc.packed)
			}
			root := s.Base.Clone()
			for _, j := range s.Binaries {
				root.SetBounds(j, 0, 1)
			}
			want, err := root.Solve(context.Background())
			if err != nil || want.Status != lp.Optimal {
				t.Fatalf("root relaxation: %v %v", want, err)
			}
			if !sameState(res.RootState, want.State) {
				t.Fatal("RootState differs from the root relaxation's end state")
			}
			for _, capacity := range []float64{45, 30} {
				next := tc.solver(t, capacity)
				next.Warm = &WarmStart{State: res.RootState}
				if r := mustBranch(t, next); !r.WarmRoot {
					t.Fatalf("capacity %v: the packed donor state was not resumed", capacity)
				}
				if !sameState(res.RootState, want.State) {
					t.Fatalf("capacity %v: resuming RootState wrote to it", capacity)
				}
			}
		})
	}
}

// TestRootRelaxationSolvedOnce: a branching solve solves exactly one
// relaxation with no branching fix, and counts every LP it solves once.
func TestRootRelaxationSolvedOnce(t *testing.T) {
	s := branchingKnapsack(t, 60)
	lps, unfixed := 0, 0
	s.onLP = func(p *lp.Problem, _ float64, _ *lp.Solution) {
		lps++
		for _, j := range s.Binaries {
			if lo, hi := p.Bounds(j); lo == hi {
				return
			}
		}
		unfixed++
	}
	r := mustBranch(t, s)
	if unfixed != 1 {
		t.Errorf("%d relaxations solved with no branching fix, want 1", unfixed)
	}
	if r.Nodes != lps {
		t.Errorf("Nodes = %d, but %d LPs were solved", r.Nodes, lps)
	}
}

// TestTwoNodeBudgetSolvesAChild: with MaxNodes 2 the second node is a
// child of the root, not a second solve of the root.
func TestTwoNodeBudgetSolvesAChild(t *testing.T) {
	s := budgetKnapsack(t)
	s.MaxNodes = 2
	children := 0
	s.onLP = func(p *lp.Problem, _ float64, _ *lp.Solution) {
		for _, j := range s.Binaries {
			if lo, hi := p.Bounds(j); lo == hi {
				children++
				return
			}
		}
	}
	r := mustSolve(t, s)
	if r.Nodes != 2 || children != 1 {
		t.Fatalf("Nodes = %d with %d child solves, want 2 nodes and 1 child", r.Nodes, children)
	}
}

// TestWarmProofPassesTheDonorThrough: a solve closed by the carried bound
// alone returns the warm start's own State as its RootState, the same
// pointer, neither packed nor written, whether the donor is packed (as
// a session's warm registry parks it) or dense (another solver's end
// state, which concurrent solves may be reading).
func TestWarmProofPassesTheDonorThrough(t *testing.T) {
	first := mustBranch(t, groupedKnapsack(t, 60))
	packed := first.RootState.Copy(nil)
	packed.Pack()
	if !isPacked(packed) {
		t.Fatal("the donor state did not pack")
	}
	for name, donor := range map[string]*lp.State{"packed": packed, "dense": first.RootState} {
		snapshot, bytes := donor.Copy(nil), donor.Bytes()
		s := groupedKnapsack(t, 60)
		s.Warm = &WarmStart{Incumbent: first.X, Bound: first.Obj, HasBound: true, State: donor}
		r := mustSolve(t, s)
		if !r.WarmProof || r.Nodes != 0 {
			t.Fatalf("%s donor: WarmProof %v in %d nodes, want an instant proof", name, r.WarmProof, r.Nodes)
		}
		if r.RootState != donor {
			t.Fatalf("%s donor: a warm proof did not hand the donor state through", name)
		}
		if donor.Bytes() != bytes || !sameState(donor, snapshot) {
			t.Fatalf("%s donor: a warm proof wrote to the donor state", name)
		}
	}
}
