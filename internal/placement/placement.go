// Package placement selects the set R of basic blocks to move into RAM.
// The paper's solver is the ILP (internal/model + internal/ilp); three
// alternatives exist for evaluation and ablation:
//
//   - Greedy: knapsack-style density heuristic with no clustering
//     awareness — it cannot see that moving a cheap joining block removes
//     the need to instrument a hot one (§4's motivation for the ILP).
//   - FunctionLevel: whole functions only, the granularity of earlier
//     scratchpad work the paper improves upon.
//   - Exhaustive: the true optimum over the top-k hottest blocks, used to
//     validate the ILP and to generate Figure 6's solution clouds.
package placement

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/errs"
	"repro/internal/ilp"
	"repro/internal/ir"
	"repro/internal/lp"
	"repro/internal/model"
)

// Strategy names for Result.Strategy: the five rungs of the degradation
// ladder plus the explicitly chosen baselines.
const (
	// StrategyILPOptimal: the exact branch-and-bound solve finished
	// within budget and proved its placement optimal.
	StrategyILPOptimal = "ilp-optimal"
	// StrategyWarmILPOptimal: same proven-optimal outcome, but reached
	// while genuinely consuming warm state carried from a neighboring
	// solve (accepted incumbent, carried bound, or warm-started root).
	// The placement itself is byte-identical to the cold solve's; only
	// the provenance differs.
	StrategyWarmILPOptimal = "warm-ilp-optimal"
	// StrategyILPIncumbent: a budget tripped mid-search; the best
	// branch-and-bound incumbent was kept.
	StrategyILPIncumbent = "ilp-incumbent"
	// StrategyLPRounding: only the root LP relaxation was affordable;
	// the placement is its rounded solution.
	StrategyLPRounding = "lp-rounding"
	// StrategyGreedy: the LP itself was out of budget; the density
	// heuristic (SolveGreedy) answered.
	StrategyGreedy = "greedy"
	// StrategyIdentity: no solver could run (the solve deadline had
	// already expired); nothing is moved to RAM.
	StrategyIdentity = "identity"
	// StrategyFunction is SolveFunctionLevel chosen explicitly.
	StrategyFunction = "function"
	// StrategyExhaustive is SolveExhaustive chosen explicitly.
	StrategyExhaustive = "exhaustive"
)

// Result is a chosen placement and its model-predicted outcome.
type Result struct {
	Method  string
	InRAM   map[string]bool
	Outcome model.Outcome
	// Nodes is the number of LP relaxations solved (ILP method only).
	Nodes int
	// Proven is true when the solver proved optimality.
	Proven bool
	// Strategy names the ladder rung (or explicit solver) that produced
	// this placement; one of the Strategy* constants.
	Strategy string
	// StrategyReason explains a degradation (e.g. "node budget 4
	// exhausted"); empty when the top rung answered. The text is
	// deterministic — no wall-clock numbers — so identical budgets
	// produce byte-identical results.
	StrategyReason string
	// Warm is the reusable solve state this result donates to a
	// neighboring solve of the same program at different constraint
	// bounds. Non-nil only on proven-optimal ILP results.
	Warm *Warm
	// WarmUse records which carried warm ingredients this solve actually
	// consumed (all false on a cold solve).
	WarmUse WarmUse
}

// Warm is reusable solve state carried between ILP solves of the same
// model family — identical blocks, edges and energy parameters, varying
// only the Rspare/Xlimit constraint bounds (the Figure 6 sweeps). The
// monotonicity rule governs reuse:
//
//   - The donor's optimal placement is always worth OFFERING as a
//     starting incumbent; the receiver admits it only if it is feasible
//     under ITS bounds (automatic when the receiver is looser, checked
//     when tighter).
//   - The donor's objective is an admissible LOWER bound only when the
//     receiver's feasible region is contained in the donor's (receiver
//     at most as loose on every bound): shrinking a minimization's
//     feasible region can only raise its optimum. When the offered
//     incumbent is also admitted, optimum ≤ incumbent = donorObj ≤
//     optimum closes the gap instantly — the common case along a
//     tightening sweep while the optimum is unchanged.
//
// Every ingredient is independently validated by the receiver, so a
// stale or mismatched Warm can cost time but never change an answer.
type Warm struct {
	// Incumbent is the donor's proven-optimal placement (an empty map is
	// the all-flash placement; nil means no placement is carried).
	Incumbent map[string]bool
	// Obj is the donor's optimal objective in LP units.
	Obj float64
	// State and RootIters are the donor root relaxation's full end state
	// and pivot count (see lp.Solution); the receiver's root resumes
	// from State.
	State     *lp.State
	RootIters int
	// Rspare and Xlimit are the donor's constraint bounds — the
	// provenance the monotonicity rule is checked against.
	Rspare, Xlimit float64
	// Proven confirms the donor solve proved optimality; without it no
	// bound may be carried.
	Proven bool
}

// WarmUse itemizes how a solve consumed carried warm state.
type WarmUse struct {
	// Consumed is true when any ingredient below was actually used —
	// the condition for the warm-ilp-optimal strategy rung.
	Consumed bool
	// Incumbent: the donor placement was admitted as starting incumbent.
	Incumbent bool
	// Bound: the donor objective was carried as an admissible bound.
	Bound bool
	// Basis: the donor state warm-started the root LP (dual simplex ran;
	// false when SolveFromState fell back to a cold solve).
	Basis bool
	// InstantProof: the bound proved the incumbent optimal with zero LP
	// solves.
	InstantProof bool
	// ItersSaved estimates simplex pivots avoided at the root relative
	// to the donor's root solve.
	ItersSaved int
}

// Budget bounds a placement solve. The zero value means no bound beyond
// the solver defaults — the exact solve the paper runs.
type Budget struct {
	// MaxNodes bounds branch-and-bound LP relaxations (0 = solver
	// default).
	MaxNodes int
	// MaxLPIter bounds simplex pivots per LP relaxation (0 = solver
	// default).
	MaxLPIter int
	// Timeout bounds the wall-clock time of the whole solve; when it
	// expires the ladder degrades instead of failing (0 = none).
	Timeout time.Duration
}

// IsZero reports whether the budget imposes no caller bound.
func (b Budget) IsZero() bool { return b == Budget{} }

// SolveILP runs the paper's formulation through branch and bound under
// the given budget. A tripped budget degrades the result rather than
// failing it: the Strategy field records whether the placement is the
// proven optimum, the best incumbent, or the rounded root relaxation.
// An error is returned only when the budget ran out before any feasible
// placement existed (matching errs.ErrBudget) or ctx was cancelled.
func SolveILP(ctx context.Context, m *model.Model, budget Budget) (*Result, error) {
	return SolveILPWarm(ctx, m, budget, nil)
}

// SolveILPWarm is SolveILP with carried warm state from a neighboring
// solve of the same model family (nil warm = cold solve). The warm
// ingredients are translated into an ilp.WarmStart under the
// monotonicity rule documented on Warm; the answer is always the one
// the cold solve would give, warm state only shortens the path to it.
func SolveILPWarm(ctx context.Context, m *model.Model, budget Budget, warm *Warm) (*Result, error) {
	prob, vars := m.BuildILP()
	if budget.MaxLPIter > 0 {
		prob.MaxIter = budget.MaxLPIter
	}

	var ws *ilp.WarmStart
	carriedBound := false
	if warm != nil {
		ws = &ilp.WarmStart{State: warm.State, RootIters: warm.RootIters}
		if warm.Incumbent != nil {
			// Offered unconditionally; the solver admits it only after
			// its own integrality and feasibility checks.
			ws.Incumbent = m.MaterializeX(vars, warm.Incumbent)
		}
		// The donor bound is admissible only when this feasible region is
		// contained in the donor's (every bound at most as loose).
		if warm.Proven &&
			m.Params.Rspare <= warm.Rspare+1e-9 &&
			m.Params.Xlimit <= warm.Xlimit+1e-9 {
			ws.Bound, ws.HasBound = warm.Obj, true
			carriedBound = true
		}
	}

	solver := &ilp.Solver{
		Base:     prob,
		Binaries: vars.Binaries,
		MaxNodes: budget.MaxNodes,
		Rounder:  m.Rounder(vars),
		Warm:     ws,
	}
	res, err := solver.Solve(ctx)
	if err != nil {
		return nil, fmt.Errorf("placement: ilp solve: %w", err)
	}

	use := WarmUse{
		Incumbent:    res.WarmIncumbent,
		Bound:        carriedBound,
		Basis:        res.WarmRoot,
		InstantProof: res.WarmProof,
	}
	use.Consumed = use.Incumbent || use.Basis || use.InstantProof
	if warm != nil {
		switch {
		case res.WarmProof:
			use.ItersSaved = warm.RootIters
		case res.WarmRoot && warm.RootIters > res.RootIters:
			use.ItersSaved = warm.RootIters - res.RootIters
		}
	}

	switch res.Status {
	case ilp.Infeasible:
		// Rspare/Xlimit leave no room: the all-flash placement is the
		// answer (it is always feasible for Xlimit ≥ 1).
		empty := map[string]bool{}
		return &Result{Method: "ilp", InRAM: empty, Outcome: m.Evaluate(empty),
			Proven: true, Strategy: StrategyILPOptimal,
			Warm: &Warm{
				Incumbent: empty,
				Obj:       prob.Objective(make([]float64, prob.NumVars())),
				Rspare:    m.Params.Rspare,
				Xlimit:    m.Params.Xlimit,
				Proven:    true,
			}}, nil
	case ilp.Unbounded:
		return nil, fmt.Errorf("placement: ilp relaxation unbounded (model bug)")
	}
	inRAM := m.PlacementFromX(vars, res.X)
	r := &Result{
		Method:  "ilp",
		InRAM:   inRAM,
		Outcome: m.Evaluate(inRAM),
		Nodes:   res.Nodes,
		Proven:  res.Status == ilp.Optimal,
		WarmUse: use,
	}
	switch {
	case r.Proven && use.Consumed:
		r.Strategy = StrategyWarmILPOptimal
	case r.Proven:
		r.Strategy = StrategyILPOptimal
	case res.Nodes <= 1:
		// Only the root relaxation was affordable: the incumbent is its
		// rounded solution, nothing was branched.
		r.Strategy = StrategyLPRounding
		r.StrategyReason = degradeReason(res.Stop)
	default:
		r.Strategy = StrategyILPIncumbent
		r.StrategyReason = degradeReason(res.Stop)
	}
	if r.Proven {
		r.Warm = &Warm{
			Incumbent: inRAM,
			Obj:       res.Obj,
			State:     res.RootState,
			RootIters: res.RootIters,
			Rspare:    m.Params.Rspare,
			Xlimit:    m.Params.Xlimit,
			Proven:    true,
		}
	}
	return r, nil
}

// degradeReason renders the budget error that forced a rung change. The
// text is deterministic for a given budget configuration.
func degradeReason(err error) string {
	if err == nil {
		return "solver budget exhausted"
	}
	var be *errs.BudgetError
	if errors.As(err, &be) {
		return be.Error()
	}
	if errs.IsCancellation(err) {
		return "solve cancelled"
	}
	return err.Error()
}

// SolveLadder is the solver watchdog: it runs the exact ILP under the
// budget and degrades deterministically when the budget cannot carry the
// solve — exact ILP → best branch-and-bound incumbent → rounded LP
// relaxation (the three outcomes SolveILP classifies) → the greedy
// density heuristic → the identity placement. Every rung yields a valid
// placement; the only errors are a cancelled parent context or a broken
// model. The LP-relaxation rung is realized inside the branch and bound
// (the Rounder seeds the incumbent from the root relaxation), so no
// relaxation is ever solved twice.
//
// A non-nil warm carries reusable state from a neighboring solve into
// the top rung; a proven solve that actually consumed it records the
// warm-ilp-optimal strategy. The degraded rungs ignore warm state — an
// unproven answer must not depend on what a neighbor happened to solve.
func SolveLadder(ctx context.Context, m *model.Model, budget Budget, warm *Warm) (*Result, error) {
	solveCtx := ctx
	if budget.Timeout > 0 {
		var cancel context.CancelFunc
		solveCtx, cancel = context.WithTimeout(ctx, budget.Timeout)
		defer cancel()
	}
	res, err := SolveILPWarm(solveCtx, m, budget, warm)
	if ctx.Err() != nil {
		// The caller itself is going away: propagate, never degrade. A
		// solve that stopped on the cancellation with an incumbent in
		// hand returns it without an error; that unproven placement is
		// not an answer to memoize either.
		if err == nil {
			err = fmt.Errorf("placement: solve cancelled: %w", context.Cause(ctx))
		}
		return nil, err
	}
	if err == nil {
		return res, nil
	}
	if !errors.Is(err, errs.ErrBudget) && !errs.IsCancellation(err) {
		return nil, err // a broken model, not an exhausted budget
	}
	reason := degradeReason(err)
	if solveCtx.Err() == nil {
		// The pivot/node budget is gone but time remains: the greedy
		// heuristic needs neither.
		r := SolveGreedy(m)
		r.Strategy = StrategyGreedy
		r.StrategyReason = reason
		return r, nil
	}
	// The solve deadline itself expired: even the heuristic is out of
	// time. Nothing moves — the baseline program is always valid.
	empty := map[string]bool{}
	return &Result{Method: "identity", InRAM: empty, Outcome: m.Evaluate(empty),
		Strategy: StrategyIdentity, StrategyReason: reason}, nil
}

// SolveGreedy picks blocks by saving density F·C·(EFlash−ERAM)/S until
// the budget or time limit stops it. It re-evaluates feasibility with the
// full model after each tentative addition, but it never reconsiders —
// no clustering, no backtracking.
func SolveGreedy(m *model.Model) *Result {
	type cand struct {
		label   string
		density float64
	}
	var cands []cand
	for _, bd := range m.Blocks {
		if !bd.Movable || bd.S == 0 {
			continue
		}
		saving := bd.F * bd.C * (m.Params.EFlash - m.Params.ERAM)
		cands = append(cands, cand{bd.Block.Label, saving / bd.S})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].density != cands[j].density {
			return cands[i].density > cands[j].density
		}
		return cands[i].label < cands[j].label
	})

	inRAM := map[string]bool{}
	best := m.Evaluate(inRAM)
	for _, c := range cands {
		inRAM[c.label] = true
		out := m.Evaluate(inRAM)
		if !out.Feasible || out.EnergyNJ >= best.EnergyNJ {
			delete(inRAM, c.label)
			continue
		}
		best = out
	}
	return &Result{Method: "greedy", InRAM: inRAM, Outcome: best, Proven: false,
		Strategy: StrategyGreedy}
}

// SolveFunctionLevel moves whole functions, greedily by density — the
// granularity of classic scratchpad allocation (e.g. Steinke et al. on
// full objects). Functions with any unmovable block are skipped.
func SolveFunctionLevel(m *model.Model, p *ir.Program) *Result {
	type fcand struct {
		name    string
		labels  []string
		density float64
	}
	var cands []fcand
	for _, f := range p.Funcs {
		if f.Library || len(f.Blocks) == 0 {
			continue
		}
		var labels []string
		saving, size := 0.0, 0.0
		movable := true
		for _, b := range f.Blocks {
			bd := m.Data(b.Label)
			if bd == nil || !bd.Movable {
				movable = false
				break
			}
			labels = append(labels, b.Label)
			saving += bd.F * bd.C * (m.Params.EFlash - m.Params.ERAM)
			size += bd.S
		}
		if !movable || size == 0 {
			continue
		}
		cands = append(cands, fcand{f.Name, labels, saving / size})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].density != cands[j].density {
			return cands[i].density > cands[j].density
		}
		return cands[i].name < cands[j].name
	})

	inRAM := map[string]bool{}
	best := m.Evaluate(inRAM)
	for _, c := range cands {
		for _, lbl := range c.labels {
			inRAM[lbl] = true
		}
		out := m.Evaluate(inRAM)
		if !out.Feasible || out.EnergyNJ >= best.EnergyNJ {
			for _, lbl := range c.labels {
				delete(inRAM, lbl)
			}
			continue
		}
		best = out
	}
	return &Result{Method: "function", InRAM: inRAM, Outcome: best, Proven: false,
		Strategy: StrategyFunction}
}

// TopBlocks returns the k hottest movable blocks by F·C.
func TopBlocks(m *model.Model, k int) []*model.BlockData {
	return blocksAt(m, topIndices(m, k))
}

// blocksAt returns the blocks at the given indices into m.Blocks.
func blocksAt(m *model.Model, idx []int) []*model.BlockData {
	blocks := make([]*model.BlockData, len(idx))
	for i, b := range idx {
		blocks[i] = m.Blocks[b]
	}
	return blocks
}

// topIndices is TopBlocks as indices into m.Blocks.
func topIndices(m *model.Model, k int) []int {
	var movable []int
	for b, bd := range m.Blocks {
		if bd.Movable {
			movable = append(movable, b)
		}
	}
	sort.Slice(movable, func(i, j int) bool {
		bi, bj := m.Blocks[movable[i]], m.Blocks[movable[j]]
		wi, wj := bi.F*bi.C, bj.F*bj.C
		if wi != wj {
			return wi > wj
		}
		return bi.Block.Label < bj.Block.Label
	})
	if len(movable) > k {
		movable = movable[:k]
	}
	return movable
}

// Point is one placement in the Figure 6 trade-off cloud.
type Point struct {
	Mask     int
	EnergyNJ float64
	Cycles   float64
	RAMBytes float64
	Feasible bool
}

// Enumerate evaluates every subset of the top-k hottest blocks under the
// model (2^k points) — the "possible choices" cloud of Figure 6.
func Enumerate(m *model.Model, k int) ([]Point, []*model.BlockData, error) {
	idx := topIndices(m, k)
	if len(idx) > 20 {
		return nil, nil, fmt.Errorf("placement: refusing to enumerate 2^%d placements", len(idx))
	}
	points := make([]Point, 0, 1<<len(idx))
	in := make([]bool, len(m.Blocks))
	for mask := 0; mask < 1<<len(idx); mask++ {
		for i, b := range idx {
			in[b] = mask&(1<<i) != 0
		}
		out := m.EvaluateIn(in)
		points = append(points, Point{
			Mask:     mask,
			EnergyNJ: out.EnergyNJ,
			Cycles:   out.Cycles,
			RAMBytes: out.RAMBytes,
			Feasible: out.Feasible,
		})
	}
	return points, blocksAt(m, idx), nil
}

// SolveExhaustive finds the true model optimum over subsets of the top-k
// hottest blocks; the validation oracle for SolveILP.
func SolveExhaustive(m *model.Model, k int) (*Result, error) {
	points, blocks, err := Enumerate(m, k)
	if err != nil {
		return nil, err
	}
	bestIdx := -1
	for i, pt := range points {
		if !pt.Feasible {
			continue
		}
		if bestIdx < 0 || pt.EnergyNJ < points[bestIdx].EnergyNJ {
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		empty := map[string]bool{}
		return &Result{Method: "exhaustive", InRAM: empty, Outcome: m.Evaluate(empty),
			Proven: true, Strategy: StrategyExhaustive}, nil
	}
	inRAM := map[string]bool{}
	for i, bd := range blocks {
		if points[bestIdx].Mask&(1<<i) != 0 {
			inRAM[bd.Block.Label] = true
		}
	}
	return &Result{Method: "exhaustive", InRAM: inRAM, Outcome: m.Evaluate(inRAM),
		Proven: true, Strategy: StrategyExhaustive}, nil
}
