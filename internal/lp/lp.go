// Package lp implements a primal simplex solver for the linear programs
// the placement model poses:
//
//	minimize    cᵀx
//	subject to  aᵢᵀx ≤ bᵢ,  bᵢ ≥ 0
//	            loⱼ ≤ xⱼ ≤ hiⱼ,  loⱼ ≥ 0
//
// It stands in for the GNU Linear Programming Kit the paper integrates
// (§4.3): the placement ILP's relaxations are solved here, driven by the
// branch-and-bound in internal/ilp.
//
// Every row is ≤ with a non-negative right-hand side, so at lower bounds
// of 0 the slack basis is feasible and no phase 1 is needed. The tableau
// is kept in dictionary (condensed) form: one column per nonbasic column
// and one for the basic values, m × (n+1) cells for m rows over n
// structural columns, since the m basic columns are unit vectors and need
// not be stored. A pivot swaps the entering and the leaving column's
// labels. Dantzig's rule selects entering columns, falling back to
// Bland's rule when progress stalls so cycling cannot occur. Column
// bounds never become rows: the upper-bounding technique keeps every
// nonbasic column at one of its bounds, lets the ratio test flip a column
// between them without a pivot, and lets a basic column leave at either
// bound. A 0/1 variable therefore costs no tableau row, and a branching
// fix is a bound edit that leaves the tableau layout untouched. Lower
// bounds that make the slack basis infeasible are reached through the
// dual simplex from lower bounds of 0.
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
	"slices"
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

	// lo and hi are the column bounds: lo finite and ≥ 0, hi possibly +Inf.
	lo, hi []float64

	// rowCoef holds each row's coefficients densely, length n, and rowNZ
	// its nonzero columns (c != 0: an explicit zero and −0 are left out,
	// a NaN kept) in ascending order. Rows never change once added, so a
	// Clone shares both. Every pass over a row's coefficients walks rowNZ:
	// most placement rows hold two or three nonzeros out of dozens.
	rowCoef [][]float64
	rowNZ   [][]int
	rowRHS  []float64

	// MaxIter bounds total simplex pivots and bound flips. Zero means the
	// default (50 per row+column, at least 10000).
	MaxIter int

	// err records the first construction mistake (negative variable
	// count, out-of-range variable or row, dense-row length mismatch,
	// empty, non-finite or negative lower bounds, a negative right-hand
	// side, bounds copied from a problem of another size). Builders stay
	// chainable — the error sticks and Solve reports it at entry, wrapped
	// around ErrBadProblem, instead of panicking mid-build.
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
	// performed.
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
// and the right-hand sides and bounds it was solved under. A later solve
// of a problem with identical coefficient rows, columns and objective
// but (possibly) changed RHS values or column bounds resumes from it via
// SolveFromState. The zero value is useless; States come only from
// Solution.State.
type State struct {
	tb     tableau
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
func (p *Problem) NumRows() int { return len(p.rowRHS) }

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
// out-of-range variable, a lower bound that is negative or not finite,
// or lo > hi records a sticky ErrBadProblem (reported by Solve) and
// leaves the bounds unchanged.
//
// Bound edits, like RHS edits, are a warm-restart move: SolveFromState
// refreshes a carried tableau for them without re-deriving the basis.
func (p *Problem) SetBounds(j int, lo, hi float64) {
	switch {
	case j < 0 || j >= p.n:
		p.fail("variable %d out of range [0,%d)", j, p.n)
	case math.IsInf(lo, 0) || math.IsNaN(lo):
		p.fail("variable %d lower bound %v not finite", j, lo)
	case lo < 0:
		p.fail("variable %d lower bound %v negative", j, lo)
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

// AddRow adds the constraint Σ coeffs[j]·x_j ≤ rhs. Variables absent
// from coeffs have coefficient zero. An out-of-range variable or a rhs
// that is negative or NaN records a sticky ErrBadProblem (reported by
// Solve) and drops the row.
func (p *Problem) AddRow(coeffs map[int]float64, rhs float64) {
	row := make([]float64, p.n)
	for j, c := range coeffs {
		if j < 0 || j >= p.n {
			p.fail("variable %d out of range [0,%d)", j, p.n)
			return
		}
		row[j] = c
	}
	p.addRow(row, rhs)
}

// AddDenseRow adds the constraint Σ coeffs[j]·x_j ≤ rhs from a dense
// coefficient slice. A length other than NumVars, or a rhs that is
// negative or NaN, records a sticky ErrBadProblem and drops the row.
func (p *Problem) AddDenseRow(coeffs []float64, rhs float64) {
	if len(coeffs) != p.n {
		p.fail("dense row length %d, want %d", len(coeffs), p.n)
		return
	}
	p.addRow(append([]float64(nil), coeffs...), rhs)
}

// addRow appends a row the problem owns, recording its nonzero columns.
func (p *Problem) addRow(row []float64, rhs float64) {
	if !(rhs >= 0) {
		p.fail("row %d right-hand side %v not ≥ 0", len(p.rowRHS), rhs)
		return
	}
	k := 0
	for _, c := range row {
		if c != 0 {
			k++
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
	p.rowRHS = append(p.rowRHS, rhs)
}

// SetRHS replaces row i's right-hand side. An out-of-range row, or a rhs
// that is negative or NaN, records a sticky ErrBadProblem (reported by
// Solve).
//
// RHS-only edits are a warm-restart move: a tableau from a previous
// Optimal solve stays dual feasible under them, so SolveFromState can
// repair the solution with a few dual pivots.
func (p *Problem) SetRHS(i int, rhs float64) {
	switch {
	case i < 0 || i >= len(p.rowRHS):
		p.fail("row %d out of range [0,%d)", i, len(p.rowRHS))
	case !(rhs >= 0):
		p.fail("row %d right-hand side %v not ≥ 0", i, rhs)
	default:
		p.rowRHS[i] = rhs
	}
}

// Clone copies the problem so bounds, RHS values or rows can be edited
// without disturbing the original. Row coefficients and their nonzero
// column lists never change once added, so the copy shares them, capped
// at their length: a row added to either problem appends to storage of
// its own.
func (p *Problem) Clone() *Problem {
	m := len(p.rowRHS)
	return &Problem{
		n:       p.n,
		obj:     slices.Clone(p.obj),
		lo:      slices.Clone(p.lo),
		hi:      slices.Clone(p.hi),
		rowCoef: p.rowCoef[:m:m],
		rowNZ:   p.rowNZ[:m:m],
		rowRHS:  slices.Clone(p.rowRHS),
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
		if v > p.rowRHS[i]+tol {
			return false
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

// Solve runs the primal simplex from the slack basis and returns the
// solution. Status Infeasible and Unbounded are reported in
// Solution.Status with a nil error. An iteration-limit trip reports
// Status IterLimit with the current basic feasible point in X — primal
// simplex never leaves the feasible region, so the point in hand is a
// valid (merely unproven) answer and discarding it would throw away the
// whole budget's work. Where lower bounds make the slack basis
// infeasible, the solve first reaches a feasible basis by the dual
// simplex (see solveShifted); a trip there has no feasible point and
// reports IterLimit with a nil X. Errors report either a construction
// mistake — the first one recorded by a builder, wrapping ErrBadProblem
// — or cancellation: when ctx is cancelled or its deadline expires,
// Solve stops within a few pivots and returns the context error wrapped.
func (p *Problem) Solve(ctx context.Context) (*Solution, error) {
	if p.err != nil {
		return nil, p.err
	}
	st := &State{tb: p.newTableau()}
	tb := &st.tb
	for _, row := range tb.t {
		if row[tb.n] < 0 {
			return p.solveShifted(ctx, st)
		}
	}
	iters := 0
	reduced := make([]float64, tb.total)
	status := simplex(tb, p.workCost(tb), reduced, p.maxIters(), &iters, ctx.Done())
	return p.finish(ctx, st, status, reduced, iters, false)
}

// solveShifted solves p from st, its slack-basis tableau, when p's lower
// bounds make that basis infeasible (some bᵢ − aᵢᵀlo < 0). The basic
// values are those of a layout at lower bounds of 0, where the slack
// basis is feasible, shifted to the real bounds as a warm resume applies
// a bound edit; the dual simplex repairs them. It runs under a zero
// objective, for which every basis is dual feasible, so it cannot stall
// on a negative reduced cost and needs no bounded relaxation to start
// from. Every ratio ties at 0 there, so the pass leaves by the lowest
// label (Bland's rule for the dual), which cannot cycle. The primal
// simplex then optimizes the real objective from the feasible basis it
// reaches. Every step works on p's own rows, so the verdicts need no
// certificate, and nothing falls back to another solve.
func (p *Problem) solveShifted(ctx context.Context, st *State) (*Solution, error) {
	tb := &st.tb
	maxIter, iters, done := p.maxIters(), 0, ctx.Done()
	zero := make([]float64, 2*tb.total) // cost and reduced costs
	switch dst, _ := dualSimplex(tb, zero[:tb.total], zero[tb.total:], nil, true, maxIter, &iters, done); dst {
	case stCanceled:
		return nil, fmt.Errorf("lp: solve interrupted: %w", ctx.Err())
	case Infeasible:
		return &Solution{Status: Infeasible, Iters: iters}, nil
	case Optimal:
		// Primal feasible: optimize the real objective from here.
	default:
		return &Solution{Status: IterLimit, Iters: iters}, nil // no feasible point yet
	}
	reduced := zero[tb.total:]
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
		st.rhs = append(st.rhs[:0], p.rowRHS...)
		st.lo = append(st.lo[:0], p.lo...)
		st.hi = append(st.hi[:0], p.hi...)
		st.reduced = reduced // fresh: simplex re-prices before it declares Optimal
		sol.State = st
	}
	return sol, nil
}

// tableau is the simplex working state in dictionary form: m rows ×
// (n+1) cells, one column per nonbasic column and, last, the basic
// values.
//
// Columns are known by label: a structural column j < n by j, row i's
// slack by n+i. The basic columns are unit vectors and are not stored;
// the n stored columns are the nonbasic ones. nonb[q] is the label of the
// column stored at position q, basis[i] the label basic in row i, and
// pos[j] where label j is: its position q < n when nonbasic, n+i when
// basic in row i. A pivot stores the leaving column where the entering
// one was and swaps the two labels.
//
// Every column works in shifted coordinates in which its lower bound is
// 0 and its upper bound up[j]: column j's working value is x_j − lo_j,
// or hi_j − x_j when the column is complemented (flip[j]). Nonbasic
// columns always sit at working value 0 — at their lower bound, or at
// their upper bound when complemented — so the last column holds the
// basic values and pivots are plain Gauss-Jordan steps. Moving a column
// to its other bound complements it: its tableau column and cost change
// sign and the basic values absorb the move.
type tableau struct {
	cells []float64   // the m × (n+1) cells, row-major, in one block
	t     [][]float64 // the rows: capped views into cells
	// lab is one block holding nonb (lab[:n]), basis (lab[n:total]) and
	// pos (lab[total:]); the three are views into it.
	lab              []int
	nonb, basis, pos []int
	up               []float64 // per label: range hi − lo; +Inf for slack columns
	flip             []bool    // per label: complement flag
	nz               []int     // pivot scratch: the pivot row's nonzero positions, cap n+1
	n, total         int       // positions (also the basic values' cell), labels n+m
}

// newTableau lays out the slack-basis tableau with every structural
// column nonbasic at its lower bound: row i's basic value is bᵢ − aᵢᵀlo,
// its slack n+i is basic, and structural column j is stored at position
// j. The basic values are subtracted column by column in ascending
// order, exactly as shifting a layout at lower bounds of 0 by each lo_j
// in turn would, bit for bit.
func (p *Problem) newTableau() tableau {
	lo := p.lo
	m, n := len(p.rowRHS), p.n
	total := n + m
	tb := tableau{n: n, total: total}
	tb.cells, tb.nz = make([]float64, m*(n+1)), make([]int, 0, n+1)
	tb.rows(m)
	for i, row := range p.rowCoef {
		ti := tb.t[i]
		v := p.rowRHS[i]
		for _, j := range p.rowNZ[i] {
			ti[j] = row[j]
			if lo[j] != 0 {
				v -= row[j] * lo[j]
			}
		}
		ti[n] = v
	}
	tb.lab = make([]int, 2*total)
	tb.views()
	for j := 0; j < total; j++ {
		tb.lab[j], tb.pos[j] = j, j
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

// rows points the m row views at consecutive (n+1)-cell stretches of
// cells, each capped so no row can grow into the next.
func (tb *tableau) rows(m int) {
	w := tb.n + 1
	tb.t = slices.Grow(tb.t[:0], m)[:m]
	for i := range tb.t {
		tb.t[i] = tb.cells[i*w : (i+1)*w : (i+1)*w]
	}
}

// views points nonb, basis and pos into lab.
func (tb *tableau) views() {
	tb.nonb, tb.basis, tb.pos = tb.lab[:tb.n], tb.lab[tb.n:tb.total], tb.lab[tb.total:]
}

// workCost returns the objective in the tableau's working coordinates: a
// complemented column runs downward from its upper bound, so its cost
// changes sign.
func (p *Problem) workCost(tb *tableau) []float64 {
	cost := make([]float64, tb.total)
	for j := 0; j < p.n; j++ {
		cost[j] = p.obj[j]
		if tb.flip[j] {
			cost[j] = -cost[j]
		}
	}
	return cost
}

// maxIters resolves the pivot budget: by default 50 per row and per
// column, slack columns included.
func (p *Problem) maxIters() int {
	if p.MaxIter != 0 {
		return p.MaxIter
	}
	m := len(p.rowRHS)
	return max(50*(m+p.n+m), 10000)
}

// shift moves the basic values as raising column j's working value by d
// would: by −d times its column (for a basic column, a unit vector, that
// re-expresses its own value against a bound moved by d).
func (tb *tableau) shift(j int, d float64) {
	if d == 0 {
		return
	}
	q := tb.pos[j]
	if q >= tb.n {
		tb.t[q-tb.n][tb.n] -= d
		return
	}
	for _, row := range tb.t {
		if a := row[q]; a != 0 {
			row[tb.n] -= a * d
		}
	}
}

// complement moves nonbasic column j to its other bound: the basic values
// absorb the move of up[j], and the column and its cost change sign.
func (tb *tableau) complement(j int, cost []float64) {
	tb.shift(j, tb.up[j])
	q := tb.pos[j]
	for _, row := range tb.t {
		row[q] = -row[q]
	}
	tb.flip[j] = !tb.flip[j]
	cost[j] = -cost[j]
}

// complementBasic re-expresses the basic column of row r against its
// other bound, so a column that leaves the basis at its upper bound
// leaves at working value 0 like any other. Its column stays the unit
// vector; the rest of row r and the cost change sign together, so every
// reduced cost is unchanged.
func (tb *tableau) complementBasic(r int, cost []float64) {
	l, row := tb.basis[r], tb.t[r]
	for q := range row[:tb.n] {
		row[q] = -row[q]
	}
	row[tb.n] = tb.up[l] - row[tb.n]
	tb.flip[l] = !tb.flip[l]
	cost[l] = -cost[l]
}

// cell is row r's entry in label j's column, basic columns included.
func (tb *tableau) cell(r, j int) float64 {
	switch q := tb.pos[j]; {
	case q < tb.n:
		return tb.t[r][q]
	case q-tb.n == r:
		return 1
	}
	return 0
}

// copyTo deep-copies tb into dst, building the copy in dst's own storage
// wherever it is large enough.
func (tb *tableau) copyTo(dst *tableau) {
	c := *dst
	*dst = *tb
	m := len(tb.basis)
	// The pivot scratch is sized once, for a pivot row's n+1 positions:
	// every pivot refills it before reading.
	dst.cells = append(c.cells[:0], tb.cells...)
	dst.nz = c.nz[:0]
	if cap(dst.nz) <= tb.n {
		dst.nz = make([]int, 0, tb.n+1)
	}
	dst.t = c.t
	dst.rows(m)
	dst.lab = append(c.lab[:0], tb.lab...)
	dst.views()
	dst.up = append(c.up[:0], tb.up...)
	dst.flip = append(c.flip[:0], tb.flip...)
}

// Copy returns a deep copy of st (nil for a nil st). The copy is built in
// spare's storage wherever that is large enough, so a caller recycling
// dead states copies without allocating; spare may be nil, and must not
// be used again otherwise.
func (st *State) Copy(spare *State) *State {
	if st == nil {
		return nil
	}
	if spare == nil {
		spare = new(State)
	}
	st.tb.copyTo(&spare.tb)
	spare.rhs = append(spare.rhs[:0], st.rhs...)
	spare.lo = append(spare.lo[:0], st.lo...)
	spare.hi = append(spare.hi[:0], st.hi...)
	spare.reduced = append(spare.reduced[:0], st.reduced...)
	return spare
}

// Bytes is the storage st holds: its tableau cells and the per-row and
// per-column vectors beside them.
func (st *State) Bytes() int {
	tb := &st.tb
	const word, header = 8, 24 // float64/int, and a row's slice header
	return word*(cap(tb.cells)+cap(tb.lab)+cap(tb.up)+cap(tb.nz)+
		cap(st.rhs)+cap(st.lo)+cap(st.hi)+cap(st.reduced)) +
		cap(tb.flip) + header*cap(tb.t)
}

// Cells is the number of cells in st's tableau, m × (n+1); 8·Cells is
// its size in bytes.
func (st *State) Cells() int { return len(st.tb.basis) * (st.tb.n + 1) }

// Bound says where a structural column sits in an end state.
type Bound int

// Column positions.
const (
	// Basic: in the basis, anywhere within its bounds.
	Basic Bound = iota
	// AtLower: nonbasic at its lower bound.
	AtLower
	// AtUpper: nonbasic at its upper bound.
	AtUpper
)

// Reduced returns structural column j's reduced cost in st, and where
// the column sits. The cost is signed for the way the column can move:
// the objective of st's problem rises by at least d for every unit the
// column moves off the bound it sits on, so at an optimum d ≥ 0 up to
// rounding (a fixed column's may take either sign). A basic column's is
// 0. st is only read.
func (st *State) Reduced(j int) (d float64, at Bound) {
	tb := &st.tb
	switch {
	case tb.pos[j] >= tb.n:
		return 0, Basic
	case tb.flip[j]:
		return st.reduced[j], AtUpper
	}
	return st.reduced[j], AtLower
}

// Penalties returns Driebeek's penalties for structural column j, basic
// in st at a fractional value: the objective rise the first dual simplex
// pivot would certify if the column were bounded down to the floor of
// its value, and if it were bounded up to its ceiling. Each is the
// distance the basic value must move times the least ratio of reduced
// cost to coefficient over the columns of its tableau row that can move
// it that way, so +Inf when none can. A column at a bound reads 0, 0.
// The penalties are a heuristic's estimate of the children's bounds, not
// a certificate of them. st is only read.
func (st *State) Penalties(j int) (down, up float64) {
	tb := &st.tb
	q := tb.pos[j]
	if q < tb.n {
		return 0, 0
	}
	row := tb.t[q-tb.n]
	// In working coordinates the basic value w falls as a column with a
	// positive coefficient enters and rises as one with a negative
	// coefficient does; x_j moves with w unless it is complemented.
	w := row[tb.n]
	x := st.lo[j] + w
	if tb.flip[j] {
		x = st.hi[j] - w
	}
	fall, rise := math.Inf(1), math.Inf(1) // least ratios that lower and raise w
	for p, a := range row[:tb.n] {
		l := tb.nonb[p]
		if tb.up[l] == 0 {
			continue // fixed: it cannot enter
		}
		r := max(st.reduced[l], 0)
		switch {
		case a > eps:
			fall = min(fall, r/a)
		case a < -eps:
			rise = min(rise, r/-a)
		}
	}
	if tb.flip[j] {
		fall, rise = rise, fall
	}
	penalty := func(dist, ratio float64) float64 {
		if dist == 0 {
			return 0
		}
		return dist * ratio
	}
	return penalty(x-math.Floor(x), fall), penalty(math.Ceil(x)-x, rise)
}

// SolveFromState re-solves the problem from the full end state of a
// previous Optimal solve of a problem with identical coefficient rows,
// columns and objective but (possibly) changed RHS values and column
// bounds. The donor tableau already embeds the basis inverse, so it is
// copied and only the basic values are refreshed, one axpy per changed
// RHS or bound; the dual simplex then repairs primal feasibility and a
// primal clean-up pass restores optimality. st itself is only read.
//
// Safety: a state of another row or column count falls back to the cold
// Solve, and a warm answer must pass a certificate against THIS problem
// before it is returned: an Optimal one the optimality certificate
// (Certify), an Infeasible one a Farkas certificate built from the
// violated row (cold fallback otherwise). A stale or foreign state can
// cost time, never correctness.
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
// can cost time, never a wrong Cutoff. A cutoff of +Inf disables the
// check, and a cold fallback solves without it.
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

	// The cutoff check: the basis objective is an O(n+m) filter, and only
	// a certified bound ends the resume.
	var bound float64
	var cut func() bool
	if cutoff < math.Inf(1) {
		cut = func() bool {
			if p.basisObj(tb, cost) < cutoff {
				return false
			}
			var ok bool
			bound, ok = p.cutBound(reduced, &sc)
			return ok && bound >= cutoff
		}
	}

	maxIter := p.maxIters()
	iters := 0
	done := ctx.Done()

	cold := func() (*Solution, error) {
		sol, err := p.Solve(ctx)
		if sol != nil {
			sol.Iters += iters
		}
		return sol, err
	}

	dst, row := dualSimplex(tb, cost, reduced, cut, false, maxIter, &iters, done)
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
	if err == nil && sol.Status == Optimal && p.certify(sol.X, tb, cost, reduced, &sc) != nil {
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
// false, leaving st dead, when st's row or column count does not fit p.
func (p *Problem) refresh(st *State) (cost, reduced []float64, ok bool) {
	if !st.fits(p) {
		return nil, nil, false
	}
	n := p.n
	tb := &st.tb

	// Refresh the basic values for every changed RHS. Row k's slack
	// column started as eₖ, so its current column is B⁻¹eₖ, and raising
	// b_k by d moves the basic values as lowering the slack by d would.
	for k, rhs := range p.rowRHS {
		tb.shift(n+k, st.rhs[k]-rhs)
	}

	// Refresh for every changed column bound: moving a column's bound by
	// d moves its working value by d, and the basic values by −d along
	// the tableau column (for a basic column, that is its own row). A
	// complemented column whose upper bound became infinite first returns
	// to its old lower bound.
	//
	// The carried price stays fresh through both refreshes: they move only
	// the basic values, which price does not read. Complementing a column
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
			if q := tb.pos[j]; q >= tb.n {
				tb.complementBasic(q-tb.n, cost)
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

// fits reports whether st is a dense state of p's row and column counts.
func (st *State) fits(p *Problem) bool {
	m := len(p.rowRHS)
	return st != nil && len(st.lo) == p.n && len(st.rhs) == m && len(st.tb.t) == m && len(st.tb.pos) == p.n+m
}

// Certify checks an Optimal solution's final tableau as an optimality
// certificate for p: X satisfies p's rows and column bounds, and on the
// tableau every reduced cost is ≥ 0 for a column at its lower bound, ≤ 0
// for a column at its upper bound, and ≈ 0 for a basic column (fixed
// columns may take either sign). Those signs are priced on the tableau's
// coefficients, which a state from another problem of the same layout
// does not share, so X's objective must also meet, within rounding, the
// Lagrangian bound cutBound builds from p's own rows and column bounds.
// It returns nil when the certificate holds and a description of the
// first violation otherwise.
//
// Certify prices the tableau itself. ResumeBelow checks the same
// certificate on the price its closing simplex pass has just computed
// (certify), which holds the same bits.
func (p *Problem) Certify(sol *Solution) error {
	if sol == nil || sol.Status != Optimal || sol.State == nil {
		return errors.New("lp: no optimal end state to certify")
	}
	if !sol.State.fits(p) {
		return errors.New("lp: end state does not match the problem's layout")
	}
	tb := &sol.State.tb
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
	for j, d := range reduced {
		tol := 1e-7 * (1 + math.Abs(cost[j]))
		if basic := tb.pos[j] >= tb.n; basic && math.Abs(d) > tol || !basic && tb.up[j] > 0 && d < -tol {
			return fmt.Errorf("lp: certificate: column %d has reduced cost %g", j, d)
		}
	}
	bound, ok := p.cutBound(reduced, sc)
	if obj := p.Objective(x); !ok || obj-bound > 1e-7*(1+math.Abs(obj)) {
		return fmt.Errorf("lp: certificate: objective %g is above the problem's own bound %g", obj, bound)
	}
	return nil
}

// farkas checks a warm Infeasible verdict on tableau row r as a Farkas
// certificate for p. The multipliers y are row r of the basis inverse,
// read off the slack columns (a slack basic in row r reads 1, one basic
// in another row 0); every point satisfying p's rows then satisfies
// Σₖ yₖ·aₖx ≤ Σₖ yₖ·bₖ, so p is infeasible when the least value of the
// left side over p's column bounds exceeds the right. The check reads
// p's own rows and bounds, not the tableau's, so a stale or foreign
// tableau cannot pass it. It returns nil when the certificate holds.
func (p *Problem) farkas(tb *tableau, r int, sc *scratch) error {
	m := len(p.rowRHS)
	if r < 0 || r >= len(tb.t) || len(tb.t) != m || tb.total != p.n+m {
		return errors.New("lp: farkas: tableau does not match the problem's layout")
	}
	ymax := 0.0
	for k := 0; k < m; k++ {
		ymax = max(ymax, tb.cell(r, p.n+k))
	}
	c, mag := sc.floats(p.n) // Σₖ yₖ·aₖ, and Σₖ |yₖ·aₖ|, the scale of c's rounding
	clear(c)
	clear(mag)
	yb, scale := 0.0, 0.0
	for k, rhs := range p.rowRHS {
		y := tb.cell(r, p.n+k)
		if y <= 1e-9*ymax {
			// Rounding level, on either side of zero (the ratio test
			// admits nothing below −eps). The check below validates
			// whatever y remains, so dropping these can fail a
			// certificate but never forge one.
			continue
		}
		row := p.rowCoef[k]
		for _, j := range p.rowNZ[k] {
			c[j] += y * row[j]
			mag[j] += math.Abs(y * row[j])
		}
		yb += y * rhs
		scale += math.Abs(y * rhs)
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
			v += cost[j] * tb.t[i][tb.n]
		}
	}
	return v
}

// cutBound builds a Lagrangian lower bound on p's optimum. Row k's
// multiplier is read off its slack column, as farkas reads y, from that
// column's reduced cost rₖ: yₖ = −rₖ. Every point satisfying p's rows
// then has cᵀx ≥ Σₖ yₖ·bₖ + Σⱼ dⱼ·xⱼ with dⱼ = cⱼ − Σₖ yₖ·aₖⱼ as long as
// no rₖ is negative, so a multiplier of the wrong sign is dropped, and so
// is a price at rounding level next to the largest (farkas' rule): read
// as a multiplier, such noise gives a column whose terms cancel a dⱼ too
// small to use and too large to call cancelled, and an unbounded column
// then refuses the bound. The bound is the least value of the right side
// over p's column bounds. It reads p's own rows and bounds, not the
// tableau's, so a stale or foreign tableau can weaken it but not forge
// it. ok is false when a column whose dⱼ is negative has no upper bound.
// On a dual-feasible basis the bound equals basisObj. reduced is only
// read: ResumeBelow passes the dual simplex's live buffer. dⱼ and its
// rounding scale are built in sc's storage.
func (p *Problem) cutBound(reduced []float64, sc *scratch) (bound float64, ok bool) {
	d, mag := sc.floats(p.n) // dⱼ
	copy(d, p.obj)
	for j, c := range p.obj {
		mag[j] = math.Abs(c) // with Σₖ |yₖ·aₖⱼ|, the scale of dⱼ's rounding
	}
	usable := func(r float64) bool { return r > 0 && r < math.Inf(1) }
	rmax := 0.0
	for k := range p.rowRHS {
		if r := reduced[p.n+k]; usable(r) {
			rmax = max(rmax, r)
		}
	}
	for k, rhs := range p.rowRHS {
		r := reduced[p.n+k]
		if !usable(r) || r <= 1e-9*rmax {
			continue // zero, of the wrong sign, rounding noise, or not a number to trust
		}
		y := -r
		row := p.rowCoef[k]
		for _, j := range p.rowNZ[k] {
			d[j] -= y * row[j]
			mag[j] += math.Abs(y * row[j])
		}
		bound += y * rhs
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
// leaving row is the basic value furthest outside its bounds, or with
// bland the one outside whose basic column has the lowest label (a value
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
//
// The ratio test breaks ties on the lowest label, so with bland the walk
// is Bland's rule for the dual and cannot cycle. Without it a degenerate
// walk can: under a zero objective every ratio ties at 0, and the most
// violated row may return to a basis already seen.
func dualSimplex(tb *tableau, cost, reduced []float64, cut func() bool, bland bool, maxIter int, iters *int, done <-chan struct{}) (Status, int) {
	t, basis, n := tb.t, tb.basis, tb.n
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
			v := row[n]
			if bland {
				if (-v > worst || v-tb.up[basis[i]] > worst) && (leave < 0 || basis[i] < basis[leave]) {
					leave = i
				}
				continue
			}
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
		if t[leave][n] > 0 {
			tb.complementBasic(leave, cost)
		}

		// Dual ratio test: minimize reduced[j] / |a_j| over the leaving
		// row's negative coefficients, walked in label order; lowest label
		// breaks ties, and which candidates count as tied depends on that
		// order.
		row := t[leave]
		enter := -1
		bestRatio := math.Inf(1)
		for j, q := range tb.pos {
			if q >= n {
				continue // basic: its cell is 1 in its own row, 0 here
			}
			a := row[q]
			if a >= -eps || tb.up[j] == 0 {
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
			if y := tb.t[i][tb.n]; tb.flip[j] {
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
	t, basis, n := tb.t, tb.basis, tb.n
	tb.price(cost, reduced)
	fresh := true
	blandAfter := maxIter / 2

	// entering picks the most negative reduced cost, lowest label on exact
	// ties (Dantzig), or the lowest-label negative column (Bland) once we
	// are past the midpoint, which guarantees termination. Basic columns
	// price at 0 and are not visited; fixed columns cannot move and never
	// enter.
	entering := func() int {
		enter, best := -1, -eps
		if *iters < blandAfter {
			for _, j := range tb.nonb {
				if d := reduced[j]; (d < best || d == best && j < enter) && tb.up[j] != 0 {
					enter, best = j, d
				}
			}
			return enter
		}
		for _, j := range tb.nonb {
			if reduced[j] < -eps && tb.up[j] != 0 && (enter < 0 || j < enter) {
				enter = j
			}
		}
		return enter
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
		// basis label among rows.
		q := tb.pos[enter]
		leave, toUpper := -1, false
		bestRatio := tb.up[enter]
		for i, row := range t {
			a := row[q]
			var ratio float64
			switch {
			case a > eps:
				ratio = row[n] / a
			case a < -eps && !math.IsInf(tb.up[basis[i]], 1):
				ratio = (tb.up[basis[i]] - row[n]) / -a
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

// price computes every column's reduced cost c_j − Σ c_basis[i]·a_ij into
// reduced, accumulated row-major: a basic column's own unit cell is
// counted in its row, so it prices at 0.
func (tb *tableau) price(cost, reduced []float64) {
	copy(reduced, cost[:tb.total])
	for i, ti := range tb.t {
		cb := cost[tb.basis[i]]
		if cb == 0 {
			continue
		}
		reduced[tb.basis[i]] -= cb
		for q, a := range ti[:tb.n] {
			if a != 0 {
				reduced[tb.nonb[q]] -= cb * a
			}
		}
	}
}

// pivot performs a Gauss-Jordan pivot on row and label col's column,
// making col basic in row. Only the pivot row's nonzero entries are
// eliminated — the placement tableaus are mostly zeros. The leaving
// column takes col's position with the cells the pivot makes of its unit
// vector, computed as they would be on a stored one: 1·inv in the pivot
// row and 0 − f·inv in every other row.
func (tb *tableau) pivot(row, col int) {
	t, n := tb.t, tb.n
	q := tb.pos[col]
	pr := t[row]
	inv := 1.0 / pr[q]
	nz := tb.nz[:0]
	for j, a := range pr {
		if a != 0 {
			pr[j] = a * inv
			nz = append(nz, j)
		}
	}
	pr[q] = inv // the leaving column's unit cell, 1·inv
	for i, ti := range t {
		if i == row {
			continue
		}
		f := ti[q]
		if f == 0 {
			continue
		}
		ti[q] = 0 // the leaving column's zero cell, less f·inv below
		for _, j := range nz {
			ti[j] -= f * pr[j]
		}
	}
	tb.nz = nz
	old := tb.basis[row]
	tb.basis[row], tb.nonb[q] = col, old
	tb.pos[col], tb.pos[old] = n+row, q
}

// pivotPriced pivots on row and label col and carries the reduced costs
// along: each changes by the entering column's times the new pivot row.
func (tb *tableau) pivotPriced(row, col int, reduced []float64) {
	dq := reduced[col]
	tb.pivot(row, col)
	pr := tb.t[row]
	for _, q := range tb.nz {
		if q < tb.n {
			reduced[tb.nonb[q]] -= dq * pr[q]
		}
	}
	reduced[col] = 0
}
