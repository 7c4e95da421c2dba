// Package ilp solves 0–1 integer linear programs by LP-based branch and
// bound over the solver in internal/lp. Together the two packages replace
// the GNU Linear Programming Kit the paper integrates into its
// optimization (§4.3).
//
// Only a designated subset of variables is branched on. The placement
// model exploits this: given an integral assignment of the r_b ("block b
// in RAM") variables, its instrumentation variables i^f_b and i^r_b
// (instrumented in flash, instrumented in RAM) may take their integral
// lower bounds at an LP optimum, so branching is restricted to the r_b
// variables and the search tree stays small.
//
// The search is best-first. It branches on the fractional binary with
// the largest Driebeek–Tomlin penalty — GLPK's default rule, read off
// the node's tableau row (lp.State.Penalties) — and, once an incumbent
// exists, fixes every free nonbasic binary whose reduced cost exceeds
// the gap to it (lp.State.Reduced) in both children. Neither prunes a
// node: that stays with the certified cutoff bound, Farkas verdicts and
// optimality certificates of internal/lp.
package ilp

import (
	"container/heap"
	"context"
	"fmt"
	"math"

	"repro/internal/errs"
	"repro/internal/lp"
)

// Status of an ILP solve.
type Status int

// Solve outcomes.
const (
	// Optimal: the incumbent is proven optimal.
	Optimal Status = iota
	// Feasible: an incumbent was found but a budget (nodes, simplex
	// iterations or the deadline) stopped the proof of optimality;
	// Result.Stop says which.
	Feasible
	// Infeasible: no integer solution exists.
	Infeasible
	// Unbounded: the relaxation is unbounded below.
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible (budget)"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// WarmStart carries reusable state from a completed solve of a related
// problem — same columns and objective, different constraint bounds —
// into a new one. Every field is optional and independently validated:
// the solve is never wrong because of a stale warm start, only slower.
type WarmStart struct {
	// Incumbent is a candidate starting solution (full variable vector).
	// It is used only if it is integral and feasible for THIS problem;
	// its objective is recomputed, never trusted.
	Incumbent []float64
	// Bound, when HasBound, is a proven lower bound on this problem's
	// optimal objective (e.g. the optimum of a relaxation-wise looser
	// neighbor). An accepted incumbent whose objective reaches Bound is
	// optimal without a single LP solve.
	Bound    float64
	HasBound bool
	// State, when non-nil, is the donor root's full end state
	// (lp.Solution.State): the root relaxation resumes from a copy of it
	// instead of solving cold. Solve only reads it, so one State may warm
	// any number of solves, concurrent ones included.
	State *lp.State
	// RootIters is the simplex iteration count of the donor's root solve,
	// used by callers to account iterations saved. Solve reads it only on
	// a warm proof, which passes it (with State) through as the result's
	// RootIters, so a chain of instant proofs keeps the count with the
	// state.
	RootIters int
}

// Solver is a 0–1 branch-and-bound instance.
type Solver struct {
	// Base is the LP relaxation. Solve clamps every variable in Binaries
	// to the column bounds [0, 1] (intersected with Base's own) on a
	// copy, and a branching fix is a bound edit of that copy, so Base
	// need not bound its binaries itself.
	Base *lp.Problem
	// Binaries lists the variable indices required to be integer (0 or 1).
	Binaries []int
	// MaxNodes bounds the search (0 = default 100000).
	MaxNodes int
	// Rounder, if set, converts a fractional relaxation solution into a
	// feasible integer candidate (used to seed and tighten the incumbent).
	// It must return a complete variable vector and true on success.
	Rounder func(x []float64) ([]float64, bool)
	// Warm, if set, seeds the search with state from a related solve.
	Warm *WarmStart

	// onLP, if set, sees every LP relaxation solved with its problem and
	// the cutoff it was resumed below (+Inf for none). p is valid only
	// during the call: Solve re-solves one node problem for every node,
	// resetting its bounds in place, so a hook that keeps p must Clone it.
	onLP func(p *lp.Problem, cutoff float64, sol *lp.Solution)
}

// Result of a solve.
type Result struct {
	Status Status
	X      []float64
	Obj    float64
	Nodes  int // LP relaxations solved
	// Stop is the budget error that halted the search when Status is
	// Feasible (errors.Is(Stop, errs.ErrBudget) always holds; a
	// deadline-caused stop also matches the context error). Nil when the
	// search ran to completion.
	Stop error
	// RootIters is the simplex iteration count of the root relaxation
	// (zero when the root was never solved) and RootState its full end
	// state — together the donor state for the next warm start. The
	// search only ever copies RootState, so it describes the root
	// relaxation exactly. On a warm proof it is the warm start's own
	// State.
	RootIters int
	RootState *lp.State
	// WarmIncumbent reports that the warm start's incumbent was accepted
	// as the starting incumbent; WarmRoot that the warm state genuinely
	// warm-started the root relaxation (not a cold fallback); WarmProof
	// that the incumbent was proven optimal by the carried bound alone,
	// with no LP solved (Nodes == 0).
	WarmIncumbent bool
	WarmRoot      bool
	WarmProof     bool
}

const intTol = 1e-6

// node is an open subproblem: the node it branched from plus one more
// fix. Its fixes are the chain up to the root's children, each branched
// node on it adding its reduced-cost fixes before its branching fix.
type node struct {
	bound float64
	fix   fix
	up    *node // the branched node; nil for the root's children
	// from is the parent relaxation's end state. Because fixes are
	// column-bound edits, the parent's tableau stays dual feasible in
	// every child and seeds a dual-simplex re-solve.
	from *parent
}

// fixTo applies nd's fixes to p in the order the branching made them,
// root first: at each branched node its reduced-cost fixes, then the
// branching fix.
func (nd *node) fixTo(p *lp.Problem) {
	if nd.up != nil {
		nd.up.fixTo(p)
	}
	for _, f := range nd.from.fixes {
		p.SetBounds(f.j, f.val, f.val)
	}
	p.SetBounds(nd.fix.j, nd.fix.val, nd.fix.val)
}

// parent is a branched node's end state, shared by its children, and the
// reduced-cost fixes both children inherit from it.
type parent struct {
	state *lp.State
	open  int // children not yet popped; the last one takes state over
	fixes []fix
}

// branching is all one branched node allocates: the end state its
// children share, and the children.
type branching struct {
	parent
	kids [2]node
}

type fix struct {
	j   int
	val float64
}

type nodeHeap []*node

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].bound < h[j].bound }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Solve runs branch and bound and returns the best integer solution.
// When a budget trips — the node limit, the base LP's iteration limit,
// or ctx's deadline — the best incumbent found so far comes back with
// Status Feasible and the tripping error in Result.Stop (Optimal when
// the remaining open bounds prove it could not be improved). The solve
// fails outright only when the budget ran out before any incumbent
// existed; that error matches errs.ErrBudget, and a deadline-caused one
// also matches the context error.
func (s *Solver) Solve(ctx context.Context) (*Result, error) {
	maxNodes := s.MaxNodes
	if maxNodes == 0 {
		maxNodes = 100000
	}
	var (
		incumbent    []float64
		incumbentObj = math.Inf(1)
		nodes        int
		rootIters    int
		rootState    *lp.State
		warmInc      bool
		warmRoot     bool
	)
	// stamp fills in the root's outcome as the solve returns.
	stamp := func(r *Result) *Result {
		r.RootIters = rootIters
		r.RootState = rootState
		r.WarmIncumbent = warmInc
		r.WarmRoot = warmRoot
		return r
	}

	// The search works on a copy of the relaxation whose binaries are
	// clamped to integral bounds within [0, 1]. A binary can then only be
	// fractional while its bounds are [0, 1], so a branching fix is
	// exactly hi = 0 or lo = 1: one column-bound edit, and every node
	// shares the root's tableau layout, which is what lets a parent's end
	// state warm-start its children below.
	root := s.Base.Clone()
	for _, j := range s.Binaries {
		lo, hi := root.Bounds(j)
		lo, hi = math.Max(math.Ceil(lo), 0), math.Min(math.Floor(hi), 1)
		if lo > hi {
			return &Result{Status: Infeasible}, nil
		}
		root.SetBounds(j, lo, hi)
	}

	// A warm incumbent is admitted only on its own merits: integral and
	// feasible for THIS problem, objective recomputed here. If a carried
	// lower bound already meets that objective the solve is over before
	// the first LP.
	if w := s.Warm; w != nil && w.Incumbent != nil &&
		s.integral(w.Incumbent) && root.Feasible(w.Incumbent, 1e-6) {
		incumbent = append([]float64(nil), w.Incumbent...)
		incumbentObj = root.Objective(incumbent)
		warmInc = true
		if w.HasBound && incumbentObj <= w.Bound+1e-9 {
			// The donor's root state is passed through untouched so a
			// chain of instant proofs keeps a usable state for the first
			// point that needs a real solve again.
			rootState = w.State
			rootIters = w.RootIters
			return stamp(&Result{
				Status: Optimal, X: incumbent, Obj: incumbentObj,
				Nodes: 0, WarmProof: true,
			}), nil
		}
	}

	// free holds the dead end states of this search: nodes that ended
	// without children, and resumes that did not hand their state back.
	// Copies of a parent's state are built in their storage.
	var free []*lp.State
	recycle := func(st *lp.State) {
		if st != nil {
			free = append(free, st)
		}
	}
	spare := func() *lp.State {
		if len(free) == 0 {
			return nil
		}
		st := free[len(free)-1]
		free = free[:len(free)-1]
		return st
	}

	// solveNode solves one tree node. With an end state (a copy of the
	// parent's or the donor's, or the parent's own once no other child
	// needs it) the node resumes the dual simplex from that tableau in
	// place, falling back to a cold solve internally on any mismatch; the
	// resume stops early, as lp.Cutoff, once it proves the node's optimum
	// reaches cutoff. Every node below the root (nd nil) is solved on
	// nodeP, one clone of root whose bounds are reset to root's and given
	// the node's fixes: rows never change, so that is the whole node
	// problem, and it costs no allocation.
	var nodeP *lp.Problem
	solveNode := func(nd *node, from *lp.State, cutoff float64) (*lp.Solution, error) {
		p := root
		if nd != nil {
			if nodeP == nil {
				nodeP = root.Clone()
			}
			p = nodeP
			p.CopyBounds(root)
			nd.fixTo(p)
		}
		nodes++
		sol, err := p.ResumeBelow(ctx, from, cutoff)
		if err != nil {
			return nil, err
		}
		if sol.State != from {
			recycle(from)
		}
		if s.onLP != nil {
			s.onLP(p, cutoff, sol)
		}
		return sol, nil
	}

	tryIncumbent := func(x []float64) {
		if !s.integral(x) {
			if s.Rounder == nil {
				return
			}
			rx, ok := s.Rounder(x)
			if !ok || !s.integral(rx) || !root.Feasible(rx, 1e-6) {
				return
			}
			x = rx
		}
		obj := root.Objective(x)
		if obj < incumbentObj-1e-9 {
			incumbentObj = obj
			incumbent = append([]float64(nil), x...)
		}
	}

	// Root node: a donor end state resumes a copy of its tableau; the
	// donor itself is shared with other solves and never written. The root
	// gets no cutoff: its end state is donated as RootState, so it must be
	// solved to the end.
	var donor *lp.State
	if s.Warm != nil {
		donor = s.Warm.State.Copy(nil)
	}
	rootSol, err := solveNode(nil, donor, math.Inf(1))
	if err != nil {
		return nil, fmt.Errorf("ilp: root relaxation: %w", err)
	}
	rootIters = rootSol.Iters
	rootState = rootSol.State
	warmRoot = rootSol.Warmed
	switch rootSol.Status {
	case lp.Infeasible:
		return stamp(&Result{Status: Infeasible, Nodes: nodes}), nil
	case lp.Unbounded:
		return stamp(&Result{Status: Unbounded, Nodes: nodes}), nil
	case lp.IterLimit:
		// The pivot budget ran out at the root. A trip of the primal
		// pass still carries a feasible point — round it into an
		// incumbent rather than abandoning the solve.
		if rootSol.X != nil {
			tryIncumbent(rootSol.X)
		}
		stop := &errs.BudgetError{Resource: "simplex iteration", Limit: s.Base.MaxIter}
		if incumbent == nil {
			return nil, fmt.Errorf("ilp: %w with no incumbent", error(stop))
		}
		return stamp(&Result{Status: Feasible, X: incumbent, Obj: incumbentObj, Nodes: nodes, Stop: stop}), nil
	}
	tryIncumbent(rootSol.X)
	if s.integral(rootSol.X) || rootSol.Obj >= incumbentObj-1e-9 {
		return stamp(&Result{Status: Optimal, X: incumbent, Obj: incumbentObj, Nodes: nodes}), nil
	}

	// branch opens both children, on variable j, of node nd (nil for the
	// root) solved to sol on p. They share its end state: each copies it
	// except the last to be popped, which takes it over.
	//
	// With an incumbent, both children also inherit the reduced-cost fixes
	// of nd: a binary that is free in p, nonbasic, and whose reduced cost
	// exceeds the gap to the prune threshold could only leave its bound
	// for a point the incumbent already beats, so it is fixed where it
	// sits. The fixes are bound edits of the children's problems alone;
	// p and root are never touched.
	open := &nodeHeap{}
	branch := func(nd *node, sol *lp.Solution, p *lp.Problem, j int) {
		b := &branching{parent: parent{state: sol.State, open: 2}}
		if incumbent != nil {
			gap := incumbentObj - 1e-9 - sol.Obj
			for _, k := range s.Binaries {
				lo, hi := p.Bounds(k)
				d, at := sol.State.Reduced(k)
				if lo == hi || !(d > gap) {
					continue
				}
				switch at {
				case lp.AtLower:
					b.fixes = append(b.fixes, fix{k, lo})
				case lp.AtUpper:
					b.fixes = append(b.fixes, fix{k, hi})
				}
			}
		}
		for v := range b.kids {
			b.kids[v] = node{bound: sol.Obj, fix: fix{j, float64(v)}, up: nd, from: &b.parent}
			heap.Push(open, &b.kids[v])
		}
	}
	branch(nil, rootSol, root, s.branchVar(rootSol))
	done := ctx.Done()

	// stopResult ends the search on a tripped budget: the incumbent is
	// never discarded. If the surviving open bounds prove it optimal the
	// status says so; otherwise it is Feasible with the trip recorded.
	stopResult := func(stop error) (*Result, error) {
		if incumbent == nil {
			return nil, fmt.Errorf("ilp: %w with no incumbent", stop)
		}
		best := math.Inf(1)
		for _, nd := range *open {
			if nd.bound < best {
				best = nd.bound
			}
		}
		if best >= incumbentObj-1e-9 {
			return stamp(&Result{Status: Optimal, X: incumbent, Obj: incumbentObj, Nodes: nodes}), nil
		}
		return stamp(&Result{Status: Feasible, X: incumbent, Obj: incumbentObj, Nodes: nodes, Stop: stop}), nil
	}

	for open.Len() > 0 {
		if nodes >= maxNodes {
			return stopResult(&errs.BudgetError{Resource: "node", Limit: maxNodes})
		}
		if done != nil {
			select {
			case <-done:
				return stopResult(&errs.BudgetError{Resource: "deadline", Cause: ctx.Err()})
			default:
			}
		}
		nd := heap.Pop(open).(*node)
		nd.from.open--
		// The root's end state is donated as RootState: only ever copied.
		last := nd.from.open == 0 && nd.from.state != rootState
		if nd.bound >= incumbentObj-1e-9 {
			if last {
				recycle(nd.from.state)
			}
			continue // pruned by bound
		}
		from := nd.from.state
		if !last {
			from = from.Copy(spare())
		}
		// A child is cut off at the prune threshold below: a node that
		// cannot beat the incumbent stops as soon as that is proven, and
		// every other node is solved exactly as before, so the search tree
		// does not change. Without an incumbent the cutoff is +Inf.
		sol, err := solveNode(nd, from, incumbentObj-1e-9)
		if err != nil {
			if ctx.Err() != nil {
				return stopResult(&errs.BudgetError{Resource: "deadline", Cause: ctx.Err()})
			}
			return nil, err
		}
		if sol.Status == lp.IterLimit {
			// The node's LP ran out of pivots: its point may still round
			// into an incumbent, but without an optimal bound the branch
			// cannot be explored further.
			if sol.X != nil {
				tryIncumbent(sol.X)
			}
			continue
		}
		if sol.Status != lp.Optimal {
			continue // infeasible, cut off at the incumbent, or numerically stuck
		}
		if sol.Obj >= incumbentObj-1e-9 {
			recycle(sol.State)
			continue
		}
		tryIncumbent(sol.X)
		j := s.branchVar(sol)
		if j < 0 {
			recycle(sol.State)
			continue // integral; tryIncumbent already recorded it
		}
		branch(nd, sol, nodeP, j)
	}

	if incumbent == nil {
		return stamp(&Result{Status: Infeasible, Nodes: nodes}), nil
	}
	return stamp(&Result{Status: Optimal, X: incumbent, Obj: incumbentObj, Nodes: nodes}), nil
}

// integral reports whether every branching variable of x is 0/1.
func (s *Solver) integral(x []float64) bool {
	for _, j := range s.Binaries {
		f := x[j]
		if math.Abs(f-math.Round(f)) > intTol {
			return false
		}
	}
	return true
}

// branchVar returns the fractional binary of sol to branch on, or -1 if
// all are integral: the one whose weaker child is pushed furthest up by
// its Driebeek penalty (lp.State.Penalties), the larger penalty breaking
// ties and then the earlier place in Binaries. The penalties only choose
// the variable; the search never prunes on them.
func (s *Solver) branchVar(sol *lp.Solution) int {
	best, bestMin, bestMax := -1, 0.0, 0.0
	for _, j := range s.Binaries {
		f := sol.X[j]
		if math.Abs(f-math.Round(f)) <= intTol {
			continue
		}
		down, up := sol.State.Penalties(j)
		lo, hi := min(down, up), max(down, up)
		if best < 0 || lo > bestMin || lo == bestMin && hi > bestMax {
			best, bestMin, bestMax = j, lo, hi
		}
	}
	return best
}

// SolveExhaustive enumerates every assignment of the binaries (2^k) and
// returns the true optimum. Only usable for small k; serves as the oracle
// in tests and as the Figure 6 point-cloud generator's core. Cancelling
// ctx aborts the enumeration with the context error wrapped — a partial
// enumeration proves nothing, so no incumbent is returned.
func (s *Solver) SolveExhaustive(ctx context.Context) (*Result, error) {
	k := len(s.Binaries)
	if k > 24 {
		return nil, fmt.Errorf("ilp: exhaustive enumeration over %d binaries refused", k)
	}
	bestObj := math.Inf(1)
	var bestX []float64
	nodes := 0
masks:
	for mask := 0; mask < 1<<k; mask++ {
		p := s.Base.Clone()
		for bi, j := range s.Binaries {
			v := 0.0
			if mask&(1<<bi) != 0 {
				v = 1.0
			}
			if lo, hi := p.Bounds(j); v < lo || v > hi {
				continue masks // the base bounds already exclude this assignment
			}
			p.SetBounds(j, v, v)
		}
		nodes++
		sol, err := p.Solve(ctx)
		if err != nil {
			return nil, fmt.Errorf("ilp: exhaustive enumeration: %w", err)
		}
		if s.onLP != nil {
			s.onLP(p, math.Inf(1), sol)
		}
		if sol.Status != lp.Optimal {
			continue
		}
		if sol.Obj < bestObj-1e-9 {
			bestObj = sol.Obj
			bestX = append([]float64(nil), sol.X...)
		}
	}
	if bestX == nil {
		return &Result{Status: Infeasible, Nodes: nodes}, nil
	}
	return &Result{Status: Optimal, X: bestX, Obj: bestObj, Nodes: nodes}, nil
}
