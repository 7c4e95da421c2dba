// Package lp implements a dense two-phase primal simplex solver for linear
// programs in the form
//
//	minimize    cᵀx
//	subject to  aᵢᵀx {≤,=,≥} bᵢ
//	            loⱼ ≤ xⱼ ≤ hiⱼ
//
// It stands in for the GNU Linear Programming Kit the paper integrates
// (§4.3): the placement ILP's relaxations are solved here, driven by the
// branch-and-bound in internal/ilp.
//
// The implementation is a textbook full-tableau method: phase 1 minimizes
// the sum of artificial variables to find a basic feasible solution, phase
// 2 optimizes the real objective. Dantzig's rule selects entering columns,
// falling back to Bland's rule when progress stalls so cycling cannot
// occur. Column bounds never become rows: the upper-bounding technique
// keeps every nonbasic column at one of its bounds, lets the ratio test
// flip a column between them without a pivot, and lets a basic column
// leave at either bound. A 0/1 variable therefore costs no tableau row,
// and a branching fix is a bound edit that leaves the tableau layout
// untouched.
//
// A warm resume (ResumeBelow) may also be given a cutoff: once the dual
// simplex proves, with a Lagrangian bound built from the problem's own
// rows, that the optimum cannot fall below it, the resume stops with
// Status Cutoff instead of solving the problem to the end. Branch and
// bound passes its incumbent this way, so a node that can only be pruned
// is not finished first.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // aᵀx ≤ b
	GE            // aᵀx ≥ b
	EQ            // aᵀx = b
)

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
	// Cutoff: ResumeBelow proved the optimum is at least its cutoff.
	Cutoff
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration limit"
	case Cutoff:
		return "cutoff"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Problem is an LP under construction. Create with NewProblem, then set
// objective coefficients, column bounds and add rows.
type Problem struct {
	n   int // structural variables
	obj []float64

	// lo and hi are the column bounds: lo finite, hi possibly +Inf.
	lo, hi []float64

	// rowCoef holds each row's coefficients densely, length n, and rowNZ
	// its nonzero columns (c != 0: an explicit zero and −0 are left out,
	// a NaN kept) in ascending order. Rows never change once added, so a
	// Clone shares both. Every pass over a row's coefficients walks rowNZ:
	// most placement rows hold two or three nonzeros out of dozens.
	rowCoef [][]float64
	rowNZ   [][]int
	rowRel  []Rel
	rowRHS  []float64
	// negZero records that some row holds a −0 coefficient: a tableau row
	// is then laid out from the dense coefficients, so the cell keeps the
	// −0 the coefficient has.
	negZero bool

	// MaxIter bounds total simplex pivots and bound flips (both phases).
	// Zero means the default (50 per row+column, at least 10000).
	MaxIter int

	// err records the first construction mistake (negative variable
	// count, out-of-range variable or row, dense-row length mismatch,
	// empty or non-finite bounds, bounds copied from a problem of another
	// size). Builders stay chainable — the error
	// sticks and Solve reports it at entry, wrapped around ErrBadProblem,
	// instead of panicking mid-build.
	err error
}

// Solution is the result of a successful solve.
type Solution struct {
	Status Status
	X      []float64 // structural variable values (len = NumVars)
	// Obj is the objective value cᵀx; for Status Cutoff, the certified
	// lower bound on the optimum (X and State are nil then).
	Obj float64

	// Iters is the number of simplex pivots and bound flips this solve
	// performed (both phases).
	Iters int
	// Warmed reports that SolveFromState resumed the carried state — it
	// was genuinely consumed, not discarded for a cold fallback.
	Warmed bool
	// State is the full end state of an Optimal solve — the final tableau
	// with its basis, column bound status and layout. SolveFromState
	// resumes from a copy of it, so a State passed only to
	// SolveFromState (and Copy) is safe to share; Resume takes it over.
	// Nil for non-optimal outcomes. Opaque.
	State *State
}

// State is the complete end state of an Optimal solve: the final simplex
// tableau, its basis, which nonbasic columns sit at their upper bound,
// and the rows and bounds it was solved under. A later solve of a problem
// with identical coefficient rows, columns and objective but (possibly)
// changed RHS values or column bounds resumes from it via
// SolveFromState. The zero value is useless; States come only from
// Solution.State.
type State struct {
	tb     tableau
	rels   []Rel     // row relations at solve time
	rhs    []float64 // row right-hand sides at solve time
	lo, hi []float64 // column bounds at solve time
	// reduced is the closing simplex's last fresh price of tb: a resume
	// seeds its dual simplex with it instead of pricing again, since the
	// RHS refresh leaves every column price reads untouched.
	reduced []float64
}

// NewProblem returns a minimization problem with n structural variables,
// all bounded to [0, +Inf), with zero objective coefficients.
func NewProblem(n int) *Problem {
	if n < 0 {
		return &Problem{err: fmt.Errorf("%w: negative variable count %d", ErrBadProblem, n)}
	}
	p := &Problem{n: n, obj: make([]float64, n), lo: make([]float64, n), hi: make([]float64, n)}
	for j := range p.hi {
		p.hi[j] = math.Inf(1)
	}
	return p
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return p.n }

// NumRows returns the number of constraint rows added so far.
func (p *Problem) NumRows() int { return len(p.rowRel) }

// fail records the first construction mistake as the sticky error.
func (p *Problem) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("%w: "+format, append([]any{ErrBadProblem}, args...)...)
	}
}

// SetObj sets the objective coefficient of variable j. An out-of-range
// variable records a sticky ErrBadProblem (reported by Solve).
func (p *Problem) SetObj(j int, c float64) {
	if j < 0 || j >= p.n {
		p.fail("variable %d out of range [0,%d)", j, p.n)
		return
	}
	p.obj[j] = c
}

// SetBounds sets variable j's bounds to [lo, hi]; hi may be +Inf. An
// out-of-range variable, a non-finite lo, or lo > hi records a sticky
// ErrBadProblem (reported by Solve) and leaves the bounds unchanged.
//
// Bound edits, like RHS edits, are a warm-restart move: SolveFromState
// refreshes a carried tableau for them without re-deriving the basis.
func (p *Problem) SetBounds(j int, lo, hi float64) {
	switch {
	case j < 0 || j >= p.n:
		p.fail("variable %d out of range [0,%d)", j, p.n)
	case math.IsInf(lo, 0) || math.IsNaN(lo):
		p.fail("variable %d lower bound %v not finite", j, lo)
	case !(lo <= hi):
		p.fail("variable %d bounds [%v,%v] empty", j, lo, hi)
	default:
		p.lo[j], p.hi[j] = lo, hi
	}
}

// Bounds returns variable j's bounds. An out-of-range variable reports
// the default [0, +Inf).
func (p *Problem) Bounds(j int) (lo, hi float64) {
	if j < 0 || j >= p.n {
		return 0, math.Inf(1)
	}
	return p.lo[j], p.hi[j]
}

// AddRow adds the constraint Σ coeffs[j]·x_j rel rhs. Variables absent
// from coeffs have coefficient zero. An out-of-range variable records a
// sticky ErrBadProblem (reported by Solve) and drops the row.
func (p *Problem) AddRow(coeffs map[int]float64, rel Rel, rhs float64) {
	row := make([]float64, p.n)
	for j, c := range coeffs {
		if j < 0 || j >= p.n {
			p.fail("variable %d out of range [0,%d)", j, p.n)
			return
		}
		row[j] = c
	}
	p.addRow(row, rel, rhs)
}

// AddDenseRow adds a constraint from a dense coefficient slice (length
// must equal NumVars; a mismatch records a sticky ErrBadProblem and
// drops the row).
func (p *Problem) AddDenseRow(coeffs []float64, rel Rel, rhs float64) {
	if len(coeffs) != p.n {
		p.fail("dense row length %d, want %d", len(coeffs), p.n)
		return
	}
	p.addRow(append([]float64(nil), coeffs...), rel, rhs)
}

// addRow appends a row the problem owns, recording its nonzero columns.
func (p *Problem) addRow(row []float64, rel Rel, rhs float64) {
	k := 0
	for _, c := range row {
		if c != 0 {
			k++
		} else if math.Signbit(c) {
			p.negZero = true
		}
	}
	nz := make([]int, 0, k)
	for j, c := range row {
		if c != 0 {
			nz = append(nz, j)
		}
	}
	p.rowCoef = append(p.rowCoef, row)
	p.rowNZ = append(p.rowNZ, nz)
	p.rowRel = append(p.rowRel, rel)
	p.rowRHS = append(p.rowRHS, rhs)
}

// SetRHS replaces row i's right-hand side. An out-of-range row records a
// sticky ErrBadProblem (reported by Solve).
//
// RHS-only edits are a warm-restart move: a tableau from a previous
// Optimal solve stays dual feasible under them, so SolveFromState can
// repair the solution with a few dual pivots. One caveat — the
// standard-form layout negates rows with negative RHS, so an edit that
// flips a row's RHS sign changes the tableau's column meaning and a
// carried state will (safely) fall back to a cold solve. Callers chasing
// warm restarts should formulate rows so edited RHS values keep their
// sign.
func (p *Problem) SetRHS(i int, rhs float64) {
	if i < 0 || i >= len(p.rowRHS) {
		p.fail("row %d out of range [0,%d)", i, len(p.rowRHS))
		return
	}
	p.rowRHS[i] = rhs
}

// Clone copies the problem so bounds, RHS values or rows can be edited
// without disturbing the original. Row coefficients, their nonzero
// column lists and relations never change once added, so the copy shares
// them, capped at their length: a row added to either problem appends to
// storage of its own.
func (p *Problem) Clone() *Problem {
	m := len(p.rowRel)
	return &Problem{
		n:       p.n,
		obj:     slices.Clone(p.obj),
		lo:      slices.Clone(p.lo),
		hi:      slices.Clone(p.hi),
		rowCoef: p.rowCoef[:m:m],
		rowNZ:   p.rowNZ[:m:m],
		rowRel:  p.rowRel[:m:m],
		rowRHS:  slices.Clone(p.rowRHS),
		negZero: p.negZero,
		MaxIter: p.MaxIter,
		err:     p.err,
	}
}

// CopyBounds sets every column bound of p to q's, in place: branch and
// bound resets one node problem to its root this way instead of cloning
// the root per node. q must have p's variable count; a mismatch records
// a sticky ErrBadProblem (reported by Solve) and leaves the bounds
// unchanged.
func (p *Problem) CopyBounds(q *Problem) {
	if q.n != p.n {
		p.fail("bounds of %d variables copied onto %d", q.n, p.n)
		return
	}
	copy(p.lo, q.lo)
	copy(p.hi, q.hi)
}

// Feasible reports whether x satisfies every row and column bound
// (within tol).
func (p *Problem) Feasible(x []float64, tol float64) bool {
	for j := 0; j < p.n; j++ {
		if x[j] < p.lo[j]-tol || x[j] > p.hi[j]+tol {
			return false
		}
	}
	for i, row := range p.rowCoef {
		v := 0.0
		for _, j := range p.rowNZ[i] {
			v += row[j] * x[j]
		}
		switch p.rowRel[i] {
		case LE:
			if v > p.rowRHS[i]+tol {
				return false
			}
		case GE:
			if v < p.rowRHS[i]-tol {
				return false
			}
		case EQ:
			if math.Abs(v-p.rowRHS[i]) > tol {
				return false
			}
		}
	}
	return true
}

// Objective computes cᵀx.
func (p *Problem) Objective(x []float64) float64 {
	v := 0.0
	for j := 0; j < p.n; j++ {
		if p.obj[j] != 0 {
			v += p.obj[j] * x[j]
		}
	}
	return v
}

const eps = 1e-9

// ErrBadProblem reports a structurally invalid problem.
var ErrBadProblem = errors.New("lp: invalid problem")

// Solve runs two-phase simplex and returns the solution. Status
// Infeasible and Unbounded are reported in Solution.Status with a nil
// error. A phase-2 iteration-limit trip reports Status IterLimit with
// the current basic feasible point in X — primal simplex never leaves
// the feasible region once phase 1 finds it, so the point in hand is a
// valid (merely unproven) answer and discarding it would throw away the
// whole budget's work. A phase-1 trip has no feasible point and reports
// IterLimit with a nil X. Errors report either a construction mistake —
// the first one recorded by a builder, wrapping ErrBadProblem — or
// cancellation: when ctx is cancelled or its deadline expires, Solve
// stops within a few pivots and returns the context error wrapped.
func (p *Problem) Solve(ctx context.Context) (*Solution, error) {
	if p.err != nil {
		return nil, p.err
	}
	m := len(p.rowRel)
	n := p.n

	st := &State{tb: p.newTableau()}
	tb := &st.tb
	t, basis := tb.t, tb.basis
	nSlack, nArt, total := tb.nSlack, tb.nArt, tb.total

	maxIter := p.maxIters(m, total)
	iters := 0
	done := ctx.Done()
	reduced := make([]float64, total)

	// Phase 1: minimize sum of artificials.
	if nArt > 0 {
		cost := make([]float64, total)
		for j := n + nSlack; j < total; j++ {
			cost[j] = 1
		}
		status := simplex(tb, cost, reduced, maxIter, &iters, done)
		if status == stCanceled {
			return nil, fmt.Errorf("lp: solve interrupted: %w", ctx.Err())
		}
		if status == IterLimit {
			// No feasible basis yet: nothing worth returning.
			return &Solution{Status: IterLimit}, nil
		}
		// Compute phase-1 objective value.
		v := 0.0
		for i := 0; i < m; i++ {
			if basis[i] >= n+nSlack {
				v += t[i][total]
			}
		}
		if v > 1e-6 {
			return &Solution{Status: Infeasible}, nil
		}
		// Pivot remaining artificials out of the basis where possible.
		for i := 0; i < m; i++ {
			if basis[i] < n+nSlack {
				continue
			}
			pivoted := false
			for j := 0; j < n+nSlack; j++ {
				if math.Abs(t[i][j]) > 1e-7 {
					tb.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; artificial stays basic at zero. Zero the
				// row so it cannot interfere.
				for j := 0; j < n+nSlack; j++ {
					t[i][j] = 0
				}
			}
		}
		// Forbid artificial columns from re-entering: zero them out.
		for i := 0; i < m; i++ {
			for j := n + nSlack; j < total; j++ {
				if basis[i] != j {
					t[i][j] = 0
				}
			}
		}
	}

	// Phase 2: minimize the real objective.
	status := simplex(tb, p.workCost(tb), reduced, maxIter, &iters, done)
	return p.finish(ctx, st, status, reduced, iters, false)
}

// finish packages the outcome of the primal simplex pass that ends a
// solve on st's tableau, whose reduced costs that pass left in reduced.
// The basis is feasible by then, so an IterLimit trip hands back the
// point in hand instead of discarding the budget's work; an Optimal one
// also donates st as its end state.
func (p *Problem) finish(ctx context.Context, st *State, status Status, reduced []float64, iters int, warmed bool) (*Solution, error) {
	switch status {
	case stCanceled:
		return nil, fmt.Errorf("lp: solve interrupted: %w", ctx.Err())
	case Unbounded:
		return &Solution{Status: Unbounded, Iters: iters, Warmed: warmed}, nil
	}
	x, obj := p.extract(&st.tb)
	sol := &Solution{Status: status, X: x, Obj: obj, Iters: iters, Warmed: warmed}
	if status == Optimal {
		// The tableau is taken over, not copied: the solve is done with it.
		st.rels = append(st.rels[:0], p.rowRel...)
		st.rhs = append(st.rhs[:0], p.rowRHS...)
		st.lo = append(st.lo[:0], p.lo...)
		st.hi = append(st.hi[:0], p.hi...)
		st.reduced = reduced // fresh: simplex re-prices before it declares Optimal
		sol.State = st
	}
	return sol, nil
}

// tableau is the dense simplex working state: m rows × (total+1) columns
// (last column RHS) with the current basis column per row.
//
// Every column works in shifted coordinates in which its lower bound is
// 0 and its upper bound up[j]: column j's working value is x_j − lo_j,
// or hi_j − x_j when the column is complemented (flip[j]). Nonbasic
// columns always sit at working value 0 — at their lower bound, or at
// their upper bound when complemented — so the RHS column holds the
// basic values and pivots are plain Gauss-Jordan steps. Moving a column
// to its other bound complements it: its tableau column and cost change
// sign and the basic values absorb the move.
type tableau struct {
	cells []float64   // the m × (total+1) cells, row-major, in one block
	t     [][]float64 // the rows: capped views into cells
	// mask and val are a packed tableau's cells (State.Pack): bit i%64 of
	// mask[i/64] is set when cell i is nonzero, and val holds the nonzero
	// cells in order. A packed tableau has no cells and no rows; only
	// copyTo reads it.
	mask  []uint64
	val   []float64
	basis []int
	up    []float64 // per-column range hi − lo; +Inf for slack and artificial columns
	flip  []bool    // per-column complement flag
	nz    []int     // pivot scratch: the pivot row's nonzero columns

	nSlack, nArt, total int
}

// newTableau lays out the standard-form tableau: columns [0,n) are
// structural, [n, n+nSlack) slack/surplus, [n+nSlack, total) artificial.
// Structural columns start nonbasic at their lower bounds, so row i's
// initial value is bᵢ − aᵢᵀlo; rows where that is negative are negated
// (flipping their relation) so every initial value is non-negative. The
// initial basis is the slack (LE rows) or artificial (GE/EQ rows) column
// of each row.
func (p *Problem) newTableau() tableau {
	m, n := len(p.rowRel), p.n
	start := make([]float64, m)
	rels := append([]Rel(nil), p.rowRel...)
	nSlack, nArt := 0, 0
	for i, row := range p.rowCoef {
		start[i] = p.rowRHS[i]
		for _, j := range p.rowNZ[i] {
			if p.lo[j] != 0 {
				start[i] -= row[j] * p.lo[j]
			}
		}
		if start[i] < 0 {
			switch rels[i] {
			case LE:
				rels[i] = GE
			case GE:
				rels[i] = LE
			}
		}
		if rels[i] != EQ {
			nSlack++
		}
		if rels[i] != LE {
			nArt++
		}
	}

	total := n + nSlack + nArt
	tb := tableau{cells: getCells(m * (total + 1)), basis: make([]int, m),
		nSlack: nSlack, nArt: nArt, total: total}
	clear(tb.cells)
	tb.rows(m)
	basis := tb.basis
	slack, art := n, n+nSlack
	for i, row := range p.rowCoef {
		ti := tb.t[i]
		sign := 1.0
		if start[i] < 0 {
			sign = -1.0
		}
		if sign < 0 || p.negZero {
			// A zero coefficient lays out as a signed zero here: −0 when
			// the row is negated or the coefficient is −0 itself.
			for j, c := range row {
				ti[j] = sign * c
			}
		} else {
			for _, j := range p.rowNZ[i] {
				ti[j] = sign * row[j]
			}
		}
		ti[total] = sign * start[i]
		switch rels[i] {
		case LE:
			ti[slack], basis[i] = 1, slack
			slack++
		case GE:
			ti[slack], ti[art], basis[i] = -1, 1, art
			slack, art = slack+1, art+1
		case EQ:
			ti[art], basis[i] = 1, art
			art++
		}
	}
	tb.up = make([]float64, total)
	for j := range tb.up {
		tb.up[j] = math.Inf(1)
		if j < n {
			tb.up[j] = p.hi[j] - p.lo[j]
		}
	}
	tb.flip = make([]bool, total)
	return tb
}

// rows points the m row views at consecutive (total+1)-cell stretches of
// cells, each capped so no row can grow into the next.
func (tb *tableau) rows(m int) {
	w := tb.total + 1
	tb.t = slices.Grow(tb.t[:0], m)[:m]
	for i := range tb.t {
		tb.t[i] = tb.cells[i*w : (i+1)*w : (i+1)*w]
	}
}

// workCost returns the phase-2 objective in the tableau's working
// coordinates: a complemented column runs downward from its upper bound,
// so its cost changes sign; artificial columns cost +Inf so they never
// re-enter.
func (p *Problem) workCost(tb *tableau) []float64 {
	cost := make([]float64, tb.total)
	for j := 0; j < p.n; j++ {
		cost[j] = p.obj[j]
		if tb.flip[j] {
			cost[j] = -cost[j]
		}
	}
	for j := p.n + tb.nSlack; j < tb.total; j++ {
		cost[j] = math.Inf(1)
	}
	return cost
}

// maxIters resolves the pivot budget for a tableau of m rows and total
// columns.
func (p *Problem) maxIters(m, total int) int {
	maxIter := p.MaxIter
	if maxIter == 0 {
		maxIter = 50 * (m + total)
		if maxIter < 10000 {
			maxIter = 10000
		}
	}
	return maxIter
}

// shift moves the basic values as raising nonbasic column j's working
// value by d would: by −d times the column (for a basic column, which is
// a unit vector, that re-expresses its own value against a bound moved
// by d).
func (tb *tableau) shift(j int, d float64) {
	if d == 0 {
		return
	}
	for _, row := range tb.t {
		if a := row[j]; a != 0 {
			row[tb.total] -= a * d
		}
	}
}

// complement moves nonbasic column j to its other bound: the basic values
// absorb the move of up[j], and the column and its cost change sign.
func (tb *tableau) complement(j int, cost []float64) {
	tb.shift(j, tb.up[j])
	for _, row := range tb.t {
		row[j] = -row[j]
	}
	tb.flip[j] = !tb.flip[j]
	cost[j] = -cost[j]
}

// complementBasic re-expresses the basic column of row r against its
// other bound, so a column that leaves the basis at its upper bound
// leaves at working value 0 like any other. Its tableau column stays the
// unit vector; the rest of row r and the cost change sign together, so
// every reduced cost is unchanged.
func (tb *tableau) complementBasic(r int, cost []float64) {
	l, row := tb.basis[r], tb.t[r]
	for j := 0; j < tb.total; j++ {
		if j != l {
			row[j] = -row[j]
		}
	}
	row[tb.total] = tb.up[l] - row[tb.total]
	tb.flip[l] = !tb.flip[l]
	cost[l] = -cost[l]
}

// cellPool parks dead tableau cell blocks for any later solve in the
// process, the same idiom as sim's machine pool: a solve that ends, or a
// state that is packed, hands its dense block back, and the next tableau
// or copy of a fitting size takes it instead of allocating. It holds
// storage only, never a value: every taker clears or fully overwrites
// the block before reading it, so reuse cannot move a bit of any answer.
// A block too small for its taker is dropped; pooling is an
// optimization, never a correctness dependency.
var cellPool sync.Pool

// getCells returns a block of n cells, pooled or fresh. Its contents are
// arbitrary: the caller clears or overwrites all of them.
func getCells(n int) []float64 {
	if b, _ := cellPool.Get().(*[]float64); b != nil && cap(*b) >= n {
		return (*b)[:n]
	}
	return make([]float64, n)
}

// putCells parks a dead cell block in the pool. The caller must hold no
// other reference to it.
func putCells(c []float64) {
	if cap(c) > 0 {
		c = c[:0]
		cellPool.Put(&c)
	}
}

// copyTo deep-copies tb, dense or packed, into dst as a dense tableau,
// building the copy in dst's own storage wherever it is large enough and
// in pooled storage otherwise. A packed source expands bit for bit: every
// cell its bitmap does not mark is +0.
func (tb *tableau) copyTo(dst *tableau) {
	c := *dst
	*dst = *tb
	m, size := len(tb.basis), len(tb.basis)*(tb.total+1)
	dst.cells = c.cells[:0]
	if cap(dst.cells) < size {
		dst.cells = getCells(size)
	}
	dst.cells = dst.cells[:size]
	if tb.mask == nil {
		copy(dst.cells, tb.cells)
	} else {
		clear(dst.cells)
		k := 0
		for w, bits64 := range tb.mask {
			for ; bits64 != 0; bits64 &= bits64 - 1 {
				dst.cells[w<<6|bits.TrailingZeros64(bits64)] = tb.val[k]
				k++
			}
		}
	}
	dst.mask, dst.val = nil, nil
	dst.t = c.t
	dst.rows(m)
	dst.basis = append(c.basis[:0], tb.basis...)
	dst.up = append(c.up[:0], tb.up...)
	dst.flip = append(c.flip[:0], tb.flip...)
	dst.nz = c.nz[:0] // pivot scratch: every pivot refills it before reading
}

// Copy returns a deep, dense copy of st (nil for a nil st), which may be
// packed. The copy is built in spare's storage wherever that is large
// enough, and in pooled storage otherwise, so a caller recycling dead
// states copies without allocating; spare may be nil, and must not be
// used again otherwise.
func (st *State) Copy(spare *State) *State {
	if st == nil {
		return nil
	}
	if spare == nil {
		spare = new(State)
	}
	st.tb.copyTo(&spare.tb)
	spare.rels = append(spare.rels[:0], st.rels...)
	spare.rhs = append(spare.rhs[:0], st.rhs...)
	spare.lo = append(spare.lo[:0], st.lo...)
	spare.hi = append(spare.hi[:0], st.hi...)
	spare.reduced = append(spare.reduced[:0], st.reduced...)
	return spare
}

// Pack parks st for a long wait: it keeps only the tableau's nonzero
// cells, marked in a bitmap of one bit per cell, and hands the dense block
// to the pool. A cell counts as nonzero unless its bits are those of +0,
// so a −0 survives and Copy expands the state bit for bit. A state whose
// bitmap and nonzero cells would not take fewer bytes than the dense
// block stays dense. Copy is the only reader of a packed state, and it
// leaves st itself untouched, so a packed state is safe to share; st
// must not be resumed or certified any more (both would refuse its
// missing rows). Pack does nothing to a nil or packed state.
func (st *State) Pack() {
	if st == nil || st.tb.mask != nil {
		return
	}
	tb := &st.tb
	n := len(tb.cells)
	// The bitmap is built without a branch per cell: a fifth to a third of
	// the cells are nonzero, scattered, so a branch would mispredict often.
	// Only the nonzero cells are visited again.
	mask := make([]uint64, (n+63)/64)
	nnz := 0
	for w := range mask {
		var m uint64
		for j, v := range tb.cells[w<<6 : min(w<<6+64, n)] {
			b := math.Float64bits(v)
			m |= (b | -b) >> 63 << j
		}
		mask[w] = m
		nnz += bits.OnesCount64(m)
	}
	if len(mask)+nnz >= n {
		return
	}
	val := make([]float64, nnz)
	k := 0
	for w, m := range mask {
		for ; m != 0; m &= m - 1 {
			val[k] = tb.cells[w<<6|bits.TrailingZeros64(m)]
			k++
		}
	}
	tb.mask, tb.val = mask, val
	putCells(tb.cells)
	tb.cells, tb.t, tb.nz = nil, nil, nil
}

// Release hands st's dense cell block to the pool. st must be dead: the
// caller neither reads, copies nor resumes it again (a released state
// has no rows, so a resume of it would solve cold). Releasing a nil,
// packed or released state hands nothing back.
func (st *State) Release() {
	if st == nil {
		return
	}
	putCells(st.tb.cells)
	st.tb.cells, st.tb.t, st.tb.basis = nil, nil, nil
}

// Bytes is the storage st holds: its tableau cells, dense or packed, and
// the per-row and per-column vectors beside them.
func (st *State) Bytes() int {
	tb := &st.tb
	const word, header = 8, 24 // float64/int/Rel, and a row's slice header
	return word*(cap(tb.cells)+cap(tb.mask)+cap(tb.val)+cap(tb.basis)+cap(tb.up)+cap(tb.nz)+
		cap(st.rels)+cap(st.rhs)+cap(st.lo)+cap(st.hi)+cap(st.reduced)) +
		cap(tb.flip) + header*cap(tb.t)
}

// Cells is the number of cells in st's tableau, m × (total+1), whether
// it is held dense or packed; 8·Cells is its dense size in bytes.
func (st *State) Cells() int { return len(st.tb.basis) * (st.tb.total + 1) }

// SolveFromState re-solves the problem from the full end state of a
// previous Optimal solve of a problem with identical coefficient rows,
// columns and objective but (possibly) changed RHS values and column
// bounds. The donor tableau already embeds the basis inverse, so it is
// copied and only the basic values are refreshed, one axpy per changed
// RHS or bound; the dual simplex then repairs primal feasibility and a
// primal clean-up pass restores optimality. st itself is only read.
//
// Safety: any layout mismatch — dimensions, relations, the RHS sign
// pattern (which decides slack/artificial allocation), or a changed RHS
// on a slackless EQ row — falls back to the cold Solve, and a warm answer
// must pass a certificate against THIS problem before it is returned: an
// Optimal one the optimality certificate (Certify), whose objective
// bound needs a problem without EQ rows, an Infeasible one a Farkas
// certificate built from the violated row (cold fallback otherwise). A
// stale or foreign state can cost time, never correctness.
func (p *Problem) SolveFromState(ctx context.Context, st *State) (*Solution, error) {
	return p.Resume(ctx, st.Copy(nil))
}

// Resume is SolveFromState without the copy: it resumes st's own tableau
// in place, so the call takes st over — the caller must neither read nor
// resume it again. A warm Optimal answer hands st back as its State; any
// other outcome leaves st dead, its storage fit only to be a Copy spare.
func (p *Problem) Resume(ctx context.Context, st *State) (*Solution, error) {
	return p.ResumeBelow(ctx, st, math.Inf(1))
}

// ResumeBelow is Resume with an objective cutoff. Once the dual simplex
// reaches a basis whose objective is at least cutoff, it builds a
// Lagrangian bound from p's own rows and column bounds (cutBound); when
// that bound reaches cutoff too, p's optimum cannot fall below cutoff and
// the resume stops with Status Cutoff, Obj the certified bound, X and
// State nil, and st dead. A bound that cannot be certified lets the dual
// simplex go on as it would without a cutoff, so a stale or foreign state
// can cost time, never a wrong Cutoff. An EQ row, or a cutoff of +Inf,
// disables the check, and a cold fallback solves without it.
func (p *Problem) ResumeBelow(ctx context.Context, st *State, cutoff float64) (*Solution, error) {
	if p.err != nil {
		return nil, p.err
	}
	cost, reduced, ok := p.refresh(st)
	if !ok {
		return p.Solve(ctx)
	}
	tb := &st.tb
	var sc scratch
	hasEQ := slices.Contains(p.rowRel, EQ)

	// The cutoff check: the basis objective is an O(n+m) filter, and only
	// a certified bound ends the resume.
	var bound float64
	var cut func() bool
	if cutoff < math.Inf(1) && !hasEQ {
		cut = func() bool {
			if p.basisObj(tb, cost) < cutoff {
				return false
			}
			var ok bool
			bound, ok = p.cutBound(reduced, &sc)
			return ok && bound >= cutoff
		}
	}

	maxIter := p.maxIters(len(p.rowRel), tb.total)
	iters := 0
	done := ctx.Done()

	cold := func() (*Solution, error) {
		sol, err := p.Solve(ctx)
		if sol != nil {
			sol.Iters += iters
		}
		return sol, err
	}

	dst, row := dualSimplex(tb, cost, reduced, cut, maxIter, &iters, done)
	switch dst {
	case stCanceled:
		return nil, fmt.Errorf("lp: solve interrupted: %w", ctx.Err())
	case Cutoff:
		return &Solution{Status: Cutoff, Obj: bound, Iters: iters, Warmed: true}, nil
	case Infeasible:
		if p.farkas(tb, row, &sc) != nil {
			return cold() // the verdict does not hold for this problem
		}
		return &Solution{Status: Infeasible, Iters: iters, Warmed: true}, nil
	case Optimal:
		// Primal feasible again; fall through to the clean-up pass.
	default:
		return cold()
	}

	// An Optimal close leaves reduced holding simplex's fresh price of the
	// end tableau under cost, which is p's working cost for it: the very
	// pair Certify would price again, so the certificate is checked on it.
	dst = simplex(tb, cost, reduced, maxIter, &iters, done)
	sol, err := p.finish(ctx, st, dst, reduced, iters, true)
	if err == nil && sol.Status == Optimal && (hasEQ || p.certify(sol.X, tb, cost, reduced, &sc) != nil) {
		return cold() // the donor state did not describe this problem after all
	}
	return sol, err
}

// scratch is one resume's working storage for its certificates:
// cutBound's dⱼ or farkas' combined row, and their rounding scales. It is
// taken once per resume, when a check first runs, never per dual
// iteration, and it stays out of tableau and State: a tableau is copied
// by value (copyTo's *dst = *tb), which would share it between a donor
// and its copies.
type scratch struct {
	d, mag []float64
}

// floats returns the two length-n vectors d and mag, contents arbitrary.
func (sc *scratch) floats(n int) (d, mag []float64) {
	if len(sc.d) != n {
		buf := make([]float64, 2*n)
		sc.d, sc.mag = buf[:n:n], buf[n:]
	}
	return sc.d, sc.mag
}

// refresh re-expresses st's tableau for p's RHS values and column bounds
// and returns p's working cost with the tableau's reduced costs under it:
// st's carried price when it has one, a fresh price otherwise. ok is
// false, leaving st dead, when st's layout does not fit p.
func (p *Problem) refresh(st *State) (cost, reduced []float64, ok bool) {
	m := len(p.rowRel)
	n := p.n
	if st == nil || len(st.lo) != n || len(st.tb.t) != m || len(st.rels) != m {
		return nil, nil, false
	}
	tb := &st.tb

	// Refresh the basic values for every changed RHS. Row k's slack
	// column started as ±eₖ, so its current column is ±B⁻¹eₖ — exactly
	// the direction the basic values move when b_k changes. (Standard
	// form's row negation flips both the RHS change and the slack's
	// sign, so only the relation decides the step's sign.)
	slack := n
	for k, rel := range p.rowRel {
		if rel != st.rels[k] || (p.rowRHS[k] < 0) != (st.rhs[k] < 0) {
			return nil, nil, false
		}
		d := p.rowRHS[k] - st.rhs[k]
		if rel == EQ {
			if d != 0 {
				return nil, nil, false // no slack column to read B⁻¹ from
			}
			continue
		}
		if rel == LE {
			d = -d // a slack column enters with +1, a surplus column with −1
		}
		tb.shift(slack, d)
		slack++
	}

	// Refresh for every changed column bound: moving a column's bound by
	// d moves its working value by d, and the basic values by −d along
	// the tableau column (for a basic column, that is its own row). A
	// complemented column whose upper bound became infinite first returns
	// to its old lower bound.
	//
	// The carried price stays fresh through both refreshes: they move only
	// the RHS column, which price does not read. Complementing a column
	// changes that column's price, so then the tableau is priced again.
	// (Negating the carried value would not do: where the price cancelled
	// to an exact zero, price gives +0 either way.)
	cost = p.workCost(tb)
	reduced = st.reduced
	fresh := len(reduced) == tb.total
	if !fresh {
		reduced = make([]float64, tb.total)
	}
	for j := 0; j < n; j++ {
		lo, hi := p.lo[j], p.hi[j]
		if lo == st.lo[j] && hi == st.hi[j] {
			continue
		}
		if tb.flip[j] && math.IsInf(hi, 1) {
			if r := slices.Index(tb.basis, j); r >= 0 {
				tb.complementBasic(r, cost)
			} else {
				tb.complement(j, cost)
			}
			fresh = false
		}
		d := lo - st.lo[j]
		if tb.flip[j] {
			d = st.hi[j] - hi
		}
		tb.shift(j, d)
		tb.up[j] = hi - lo
	}
	if !fresh {
		tb.price(cost, reduced)
	}
	return cost, reduced, true
}

// Certify checks an Optimal solution's final tableau as an optimality
// certificate for p: X satisfies p's rows and column bounds, and on the
// tableau every reduced cost is ≥ 0 for a column at its lower bound, ≤ 0
// for a column at its upper bound, and ≈ 0 for a basic column (fixed
// columns may take either sign). Those signs are priced on the tableau's
// coefficients, which a state from another problem of the same layout
// does not share, so for a problem without EQ rows X's objective must
// also meet, within rounding, the Lagrangian bound cutBound builds from
// p's own rows and column bounds. An EQ row has no slack column to read
// its multiplier from, so there the certificate rests on the tableau
// alone, and ResumeBelow never returns a warm Optimal answer to such a
// problem. It returns nil when the certificate holds and a description
// of the first violation otherwise.
//
// Certify prices the tableau itself. ResumeBelow checks the same
// certificate on the price its closing simplex pass has just computed
// (certify), which holds the same bits.
func (p *Problem) Certify(sol *Solution) error {
	if sol == nil || sol.Status != Optimal || sol.State == nil {
		return errors.New("lp: no optimal end state to certify")
	}
	tb := &sol.State.tb
	if len(sol.State.lo) != p.n || len(tb.t) != len(p.rowRel) {
		return errors.New("lp: end state does not match the problem's layout")
	}
	cost := p.workCost(tb)
	reduced := make([]float64, tb.total)
	tb.price(cost, reduced)
	return p.certify(sol.X, tb, cost, reduced, new(scratch))
}

// certify checks Certify's certificate for the point x on tableau tb,
// whose reduced costs under p's working cost for it are reduced.
func (p *Problem) certify(x []float64, tb *tableau, cost, reduced []float64, sc *scratch) error {
	if !p.Feasible(x, 1e-6) {
		return errors.New("lp: certificate: point violates a row or bound")
	}
	isBasic := make([]bool, tb.total)
	for _, j := range tb.basis {
		isBasic[j] = true
	}
	for j, d := range reduced[:p.n+tb.nSlack] {
		tol := 1e-7 * (1 + math.Abs(cost[j]))
		if isBasic[j] && math.Abs(d) > tol || !isBasic[j] && tb.up[j] > 0 && d < -tol {
			return fmt.Errorf("lp: certificate: column %d has reduced cost %g", j, d)
		}
	}
	if slices.Contains(p.rowRel, EQ) {
		return nil
	}
	bound, ok := p.cutBound(reduced, sc)
	if obj := p.Objective(x); !ok || obj-bound > 1e-7*(1+math.Abs(obj)) {
		return fmt.Errorf("lp: certificate: objective %g is above the problem's own bound %g", obj, bound)
	}
	return nil
}

// farkas checks a warm Infeasible verdict on tableau row r as a Farkas
// certificate for p. The multipliers y are row r of the basis inverse,
// read off the slack columns (signed so that yₖ ≥ 0 on LE rows and
// yₖ ≤ 0 on GE rows); every point satisfying p's rows then satisfies
// Σₖ yₖ·aₖx ≤ Σₖ yₖ·bₖ, so p is infeasible when the least value of the
// left side over p's column bounds exceeds the right. The check reads
// p's own rows and bounds, not the tableau's, so a stale or foreign
// tableau cannot pass it. It returns nil when the certificate holds; a
// problem with an EQ row has no slack column to read y from and never
// passes.
func (p *Problem) farkas(tb *tableau, r int, sc *scratch) error {
	if slices.Contains(p.rowRel, EQ) {
		return errors.New("lp: farkas: an EQ row has no slack column")
	}
	if r < 0 || r >= len(tb.t) || len(tb.t) != len(p.rowRel) || tb.total < p.n+len(p.rowRel) {
		return errors.New("lp: farkas: tableau does not match the problem's layout")
	}
	row := tb.t[r]
	ymax := 0.0
	for k := range p.rowRel {
		ymax = max(ymax, row[p.n+k])
	}
	c, mag := sc.floats(p.n) // Σₖ yₖ·aₖ, and Σₖ |yₖ·aₖ|, the scale of c's rounding
	clear(c)
	clear(mag)
	yb, scale := 0.0, 0.0
	for k, rel := range p.rowRel {
		y := row[p.n+k]
		if y <= 1e-9*ymax {
			// Rounding level, on either side of zero (the ratio test
			// admits nothing below −eps). The check below validates
			// whatever y remains, so dropping these can fail a
			// certificate but never forge one.
			continue
		}
		if rel == GE {
			y = -y
		}
		row := p.rowCoef[k]
		for _, j := range p.rowNZ[k] {
			c[j] += y * row[j]
			mag[j] += math.Abs(y * row[j])
		}
		yb += y * p.rowRHS[k]
		scale += math.Abs(y * p.rowRHS[k])
	}
	least := 0.0
	for j, cj := range c {
		if math.Abs(cj) <= 1e-9*mag[j] {
			continue // cancelled to rounding: the combination drops x_j
		}
		bound := p.lo[j]
		if cj < 0 {
			bound = p.hi[j]
		}
		if math.IsInf(bound, 0) {
			return fmt.Errorf("lp: farkas: column %d is unbounded in the combined row", j)
		}
		least += cj * bound
		scale += math.Abs(cj * bound)
	}
	if least-yb <= 1e-9*(1+scale) {
		return fmt.Errorf("lp: farkas: combined row is satisfiable (%g ≤ %g)", least, yb)
	}
	return nil
}

// basisObj is cᵀx at tb's basic solution, feasible or not, under p's
// column bounds: nonbasic columns at the bound they sit on, basic columns
// at their values (cost is tb's working cost, so a complemented column
// counts down from its upper bound). On a dual-feasible basis it never
// exceeds p's optimum, which is what makes it a cutoff filter.
func (p *Problem) basisObj(tb *tableau, cost []float64) float64 {
	v := 0.0
	for j, c := range p.obj {
		switch {
		case c == 0:
		case tb.flip[j]:
			v += c * p.hi[j]
		default:
			v += c * p.lo[j]
		}
	}
	for i, j := range tb.basis {
		if j < p.n {
			v += cost[j] * tb.t[i][tb.total]
		}
	}
	return v
}

// cutBound builds a Lagrangian lower bound on p's optimum for a problem
// without EQ rows. Row k's multiplier is read off its slack column, as
// farkas reads y, from that column's reduced cost rₖ: yₖ = −rₖ on LE rows
// and +rₖ on GE rows. Every point satisfying p's rows then has
// cᵀx ≥ Σₖ yₖ·bₖ + Σⱼ dⱼ·xⱼ with dⱼ = cⱼ − Σₖ yₖ·aₖⱼ as long as no rₖ is
// negative, so a multiplier of the wrong sign is dropped, and so is a
// price at rounding level next to the largest (farkas' rule): read as a
// multiplier, such noise gives a column whose terms cancel a dⱼ too small
// to use and too large to call cancelled, and an unbounded column then
// refuses the bound. The bound is the least value of the right side over
// p's column bounds. It reads p's own rows and bounds, not the tableau's,
// so a stale or foreign tableau can weaken it but not forge it. ok is
// false when a column whose dⱼ is negative has no upper bound. On a
// dual-feasible basis the bound equals basisObj. reduced is only read:
// ResumeBelow passes the dual simplex's live buffer. dⱼ and its rounding
// scale are built in sc's storage.
func (p *Problem) cutBound(reduced []float64, sc *scratch) (bound float64, ok bool) {
	d, mag := sc.floats(p.n) // dⱼ
	copy(d, p.obj)
	for j, c := range p.obj {
		mag[j] = math.Abs(c) // with Σₖ |yₖ·aₖⱼ|, the scale of dⱼ's rounding
	}
	usable := func(r float64) bool { return r > 0 && r < math.Inf(1) }
	rmax := 0.0
	for k := range p.rowRel {
		if r := reduced[p.n+k]; usable(r) {
			rmax = max(rmax, r)
		}
	}
	for k, rel := range p.rowRel {
		r := reduced[p.n+k]
		if !usable(r) || r <= 1e-9*rmax {
			continue // zero, of the wrong sign, rounding noise, or not a number to trust
		}
		y := -r
		if rel == GE {
			y = r
		}
		row := p.rowCoef[k]
		for _, j := range p.rowNZ[k] {
			d[j] -= y * row[j]
			mag[j] += math.Abs(y * row[j])
		}
		bound += y * p.rowRHS[k]
	}
	for j, dj := range d {
		if math.Abs(dj) <= 1e-9*mag[j] {
			continue // cancelled to rounding: the combination drops x_j
		}
		x := p.lo[j]
		if dj < 0 {
			x = p.hi[j]
		}
		if math.IsInf(x, 0) {
			return math.Inf(-1), false
		}
		bound += dj * x
	}
	return bound, true
}

// stDualStall is dual simplex's internal "a reduced cost is negative"
// outcome: the supplied basis was not dual feasible (numerical drift or
// caller misuse), so the dual method's invariant is broken and the
// caller must fall back to the primal path.
const stDualStall Status = -2

// dualSimplex restores primal feasibility of a dual-feasible basis: the
// leaving row is the basic value furthest outside its bounds (a value
// above its upper bound is complemented first, so it reads as below
// zero), the entering column the dual ratio test over that row's
// negative coefficients. Fixed columns never enter. Returns Optimal once
// every basic value is within its bounds (primal feasible — not yet
// re-certified optimal), Infeasible when a violated row has no candidate
// column (no movable column can repair it; that row comes back with the
// status, -1 otherwise), stDualStall when a candidate column's reduced
// cost is negative, IterLimit or stCanceled. reduced must hold the
// tableau's reduced costs under cost on entry; each pivot updates them.
// A non-nil cut is asked before every iteration whether the basis in
// hand ends the walk; Cutoff when it does.
func dualSimplex(tb *tableau, cost, reduced []float64, cut func() bool, maxIter int, iters *int, done <-chan struct{}) (Status, int) {
	t, basis, total := tb.t, tb.basis, tb.total
	for {
		if cut != nil && cut() {
			return Cutoff, -1
		}
		if *iters >= maxIter {
			return IterLimit, -1
		}
		if done != nil && *iters%cancelCheckStride == 0 {
			select {
			case <-done:
				return stCanceled, -1
			default:
			}
		}
		*iters++

		leave := -1
		worst := 1e-7
		for i, row := range t {
			v := row[total]
			if -v > worst {
				worst, leave = -v, i
			}
			if over := v - tb.up[basis[i]]; over > worst {
				worst, leave = over, i
			}
		}
		if leave < 0 {
			return Optimal, -1 // primal feasible
		}
		if t[leave][total] > 0 {
			tb.complementBasic(leave, cost)
		}

		// Dual ratio test: minimize reduced[j] / |t[leave][j]| over the
		// leaving row's negative coefficients; lowest column index breaks
		// ties (Bland, so the dual walk cannot cycle).
		enter := -1
		bestRatio := math.Inf(1)
		for j, a := range t[leave][:total] {
			if a >= -eps || math.IsInf(cost[j], 1) || tb.up[j] == 0 {
				continue
			}
			r := reduced[j]
			if r < -1e-7 {
				return stDualStall, -1
			}
			ratio := max(r, 0) / -a
			if ratio < bestRatio-eps || (ratio < bestRatio+eps && (enter < 0 || j < enter)) {
				bestRatio = ratio
				enter = j
			}
		}
		if enter < 0 {
			return Infeasible, leave
		}
		tb.pivotPriced(leave, enter, reduced)
	}
}

// extract reads the structural variable values and objective off the
// tableau: basic columns from their rows, nonbasic columns at the bound
// they sit on.
func (p *Problem) extract(tb *tableau) ([]float64, float64) {
	x := make([]float64, p.n)
	for j := range x {
		x[j] = p.lo[j]
		if tb.flip[j] {
			x[j] = p.hi[j]
		}
	}
	for i, j := range tb.basis {
		if j < p.n {
			if y := tb.t[i][tb.total]; tb.flip[j] {
				x[j] = p.hi[j] - y
			} else {
				x[j] = p.lo[j] + y
			}
		}
	}
	return x, p.Objective(x)
}

// stCanceled is simplex's internal "the context died" outcome; Solve
// converts it to a wrapped context error and never lets it escape.
const stCanceled Status = -1

// cancelCheckStride is how many pivots run between context polls. A
// pivot over the placement tableaus costs tens of microseconds, so the
// solver reacts to cancellation within a few milliseconds while the
// no-deadline path pays one nil-channel comparison per pivot.
const cancelCheckStride = 64

// simplex optimizes the tableau in place for the given working-coordinate
// cost vector. Returns Optimal, Unbounded, IterLimit or stCanceled.
//
// Reduced costs are priced into reduced once and then updated with each
// pivot's row; before Optimal is declared they are re-priced from
// scratch, so the verdict never rests on accumulated rounding, and an
// Optimal return leaves reduced holding that fresh price.
func simplex(tb *tableau, cost, reduced []float64, maxIter int, iters *int, done <-chan struct{}) Status {
	t, basis, total := tb.t, tb.basis, tb.total
	m := len(t)
	tb.price(cost, reduced)
	fresh := true
	blandAfter := maxIter / 2

	// entering picks the most negative reduced cost (Dantzig), or the
	// lowest-index negative column (Bland) once we are past the
	// midpoint, which guarantees termination. Fixed columns cannot move
	// and never enter.
	entering := func() int {
		if *iters < blandAfter {
			enter, best := -1, -eps
			for j, d := range reduced {
				if d < best && tb.up[j] != 0 {
					enter, best = j, d
				}
			}
			return enter
		}
		for j, d := range reduced {
			if d < -eps && tb.up[j] != 0 {
				return j
			}
		}
		return -1
	}

	for {
		if *iters >= maxIter {
			return IterLimit
		}
		if done != nil && *iters%cancelCheckStride == 0 {
			select {
			case <-done:
				return stCanceled
			default:
			}
		}
		*iters++

		enter := entering()
		if enter < 0 && !fresh {
			tb.price(cost, reduced)
			fresh = true
			enter = entering()
		}
		if enter < 0 {
			return Optimal
		}

		// Ratio test over three limits: a basic value falling to its
		// lower bound, a basic value rising to its upper bound, and the
		// entering column reaching its own upper bound (a bound flip,
		// preferred on ties since it needs no pivot). Bland tie-break on
		// basis index among rows.
		leave, toUpper := -1, false
		bestRatio := tb.up[enter]
		for i := 0; i < m; i++ {
			a := t[i][enter]
			var ratio float64
			switch {
			case a > eps:
				ratio = t[i][total] / a
			case a < -eps && !math.IsInf(tb.up[basis[i]], 1):
				ratio = (tb.up[basis[i]] - t[i][total]) / -a
			default:
				continue
			}
			if ratio < bestRatio-eps ||
				(ratio < bestRatio+eps && leave >= 0 && basis[i] < basis[leave]) {
				bestRatio = ratio
				leave, toUpper = i, a < 0
			}
		}
		fresh = false
		switch {
		case leave >= 0:
			if toUpper {
				tb.complementBasic(leave, cost)
			}
			tb.pivotPriced(leave, enter, reduced)
		case math.IsInf(bestRatio, 1):
			return Unbounded
		default:
			tb.complement(enter, cost)
			reduced[enter] = -reduced[enter]
		}
	}
}

// price computes every column's reduced cost c_j − Σ c_basis[i]·t[i][j]
// into reduced, accumulated row-major. An infinite-cost column may still
// be basic (artificial at zero); it never enters, and a finite
// subtraction leaves its +Inf reduced cost intact.
func (tb *tableau) price(cost, reduced []float64) {
	copy(reduced, cost[:tb.total])
	for i, ti := range tb.t {
		cb := cost[tb.basis[i]]
		if math.IsInf(cb, 1) || cb == 0 {
			continue // an +Inf-cost basic column is an artificial at value 0
		}
		for j, a := range ti[:tb.total] {
			if a != 0 {
				reduced[j] -= cb * a
			}
		}
	}
}

// pivot performs a Gauss-Jordan pivot on t[row][col], making col basic
// in row. Only the pivot row's nonzero entries are eliminated — the
// placement tableaus are mostly zeros.
func (tb *tableau) pivot(row, col int) {
	t, total := tb.t, tb.total
	pr := t[row]
	inv := 1.0 / pr[col]
	nz := tb.nz[:0]
	for j := 0; j <= total; j++ {
		if pr[j] != 0 {
			pr[j] *= inv
			nz = append(nz, j)
		}
	}
	pr[col] = 1 // exact
	for i, ti := range t {
		if i == row {
			continue
		}
		f := ti[col]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			ti[j] -= f * pr[j]
		}
		ti[col] = 0 // exact
	}
	tb.nz = nz
	tb.basis[row] = col
}

// pivotPriced pivots on t[row][col] and carries the reduced costs along:
// each changes by the entering column's times the new pivot row.
func (tb *tableau) pivotPriced(row, col int, reduced []float64) {
	dq := reduced[col]
	tb.pivot(row, col)
	for _, j := range tb.nz {
		if j < tb.total {
			reduced[j] -= dq * tb.t[row][j]
		}
	}
	reduced[col] = 0
}
