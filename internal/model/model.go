// Package model implements the paper's energy cost model and its ILP
// formulation (§4): per-block parameters Sb, Cb, Fb, Kb, Tb, Lb and
// Succ(b) are extracted from the program, and the minimization of Eq. 1
// under the RAM constraint (Eq. 7) and the execution-time constraint
// (Eq. 9) is linearized over the variables
//
//	r_b    — block b is placed in RAM                 (the set R)
//	i^f_b  — block b is instrumented and in flash     (I ∖ R)
//	i^r_b  — block b is instrumented and in RAM       (I ∩ R)
//
// Eq. 5's "b ∈ I iff some successor is in a different memory" becomes,
// per distinct successor s ≠ b (call edges included, since a call cannot
// span the flash↔RAM distance either), i^f_b ≥ r_s − r_b and
// i^r_b ≥ r_b − r_s. Instrumentation is priced by the memory it runs
// from: F·T·E_flash on i^f and F·T·E_RAM on i^r in the objective,
// K·i^r in Eq. 7 (only code in RAM takes RAM) and F·T·(i^f + i^r) in
// Eq. 9.
//
// Exactness: E_flash > E_RAM ≥ 0 (Build rejects anything else), so every
// coefficient of i^f and i^r is ≥ 0 in the minimized objective and in
// the ≤ rows of Eq. 7 and Eq. 9, and −1 in the Eq. 5 rows that bound
// them from below. Lowering one to its bound keeps a point feasible and
// does not raise the objective, so an optimum may take i^f_b =
// max(0, max_s r_s − r_b) and i^r_b = max(0, max_s r_b − r_s). With r
// integral these are 0/1 and say exactly whether b is instrumented in
// flash or in RAM. Only the r_b variables need to be branched on.
//
// The relaxation is at least as tight as the McCormick one, which gives
// each block one i_b ≥ |r_b − r_s| plus a product p_b = r_b·i_b tied to
// r_b and i_b by p ≤ r, p ≤ i and p ≥ r + i − 1. Per block, i = i^f + i^r
// and p = i^r with both at their bounds above satisfy those rows
// (i^r ≤ r_b, and r_b + i^f ≤ 1 since r_s ≤ 1) and give the McCormick
// objective term and Eq. 7/9 terms exactly the split's, so the McCormick
// root can only be lower. It can be strictly lower: at r_b = ½ with one
// successor in RAM and one in flash, the split charges
// ½·F·T·(E_flash + E_RAM) where p = i = ½ charges only ½·F·T·E_RAM.
package model

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/cfg"
	"repro/internal/freq"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/lp"
	"repro/internal/power"
	"repro/internal/transform"
)

// Params are the developer- and hardware-supplied model inputs (§4.1).
type Params struct {
	// EFlash and ERAM are the energy cost coefficients per cycle
	// (nJ/cycle) of executing from flash and RAM.
	EFlash, ERAM float64
	// Rspare is the RAM budget for code, in bytes.
	Rspare float64
	// Xlimit is the maximum allowed execution-time ratio (Eq. 9);
	// 1.1 permits 10% slowdown. Values below 1 are rejected.
	Xlimit float64
	// MaxCandidates caps how many blocks receive r variables, keeping the
	// ILP tractable; the hottest blocks by potential saving are kept and
	// the rest are pinned to flash. 0 means DefaultMaxCandidates.
	MaxCandidates int
	// IncludeLibrary implements the paper's future-work extension: run
	// the optimization at link time with full visibility of library code
	// (soft-float and friends), so those blocks become placement
	// candidates too ("the optimization could be moved into the linker,
	// allowing it to have a full view of the program", §8).
	IncludeLibrary bool
	// CkptNJPerByte is the intermittent-computing checkpoint term
	// (DESIGN.md §6l): every byte placed in RAM is volatile, so it must
	// be journaled to flash at each checkpoint and copied back on each
	// restore. This is that journal traffic amortized over the run, in
	// nJ per RAM-placed byte, derived from the expected checkpoint and
	// outage counts. Zero (the default) is the always-powered model —
	// the ILP and Evaluate are then bit-identical to the paper's Eq. 1.
	CkptNJPerByte float64
}

// DefaultMaxCandidates bounds the branching variables of the ILP.
const DefaultMaxCandidates = 64

// BlockData carries one block's extracted parameters (Figure 3).
type BlockData struct {
	Block *ir.Block
	S     float64 // size in bytes, including its literal pool
	C     float64 // cycles per execution (Cb)
	F     float64 // execution frequency (Fb)
	K     float64 // instrumentation bytes incl. pool words (Kb)
	T     float64 // instrumentation cycles (Tb)
	L     float64 // RAM-contention stall cycles per execution (Lb)
	Edges []*ir.Block
	// Movable is false for library blocks and blocks cut by the
	// candidate cap.
	Movable bool
}

// Model is one point of a cost-model family: the extracted blocks and
// their ILP lowering, which depend only on the program, the frequency
// estimate and the family parameters (energy coefficients, candidate
// cap, link-time visibility, checkpoint term), plus the two constraint
// bounds of Eq. 7 and Eq. 9 in Params.Rspare and Params.Xlimit. Build
// assembles a family once; WithBounds derives further points of it that
// share everything but the bounds. A Model and everything it hands out
// (Blocks, Vars, the BlockData) are read-only.
type Model struct {
	Params Params
	Blocks []*BlockData

	// BaseCycles is Σ Fb·Cb: the all-flash weighted cycle count (the
	// denominator of Eq. 9).
	BaseCycles float64
	// BaseEnergyNJ is Σ Fb·Cb·EFlash: the all-flash model energy.
	BaseEnergyNJ float64

	fam *family
}

// family is the bound-independent part of a model, shared by every
// point WithBounds derives.
type family struct {
	byLabel map[string]int // block label → index into Blocks
	succ    [][]int        // per block: its Edges as block indices

	// vars and prob are the ILP lowering; ramRow and timeRow index the
	// Eq. 7 and Eq. 9 rows of prob (-1 when the row is empty), the only
	// rows whose right-hand side differs between points.
	vars            *Vars
	prob            *lp.Problem
	ramRow, timeRow int
}

// checkBounds validates the constraint bounds of one model point.
func checkBounds(rspare, xlimit float64) error {
	if xlimit < 1 {
		return fmt.Errorf("model: Xlimit %.3f < 1 can never be satisfied", xlimit)
	}
	if rspare < 0 {
		return fmt.Errorf("model: negative Rspare %.0f", rspare)
	}
	return nil
}

// Build extracts the model from a program and lowers its ILP: the
// family every WithBounds point shares. graphs must come from
// cfg.BuildAll on the same program; est supplies Fb.
func Build(p *ir.Program, graphs map[string]*cfg.Graph, est freq.Estimate, params Params) (*Model, error) {
	if err := checkBounds(params.Rspare, params.Xlimit); err != nil {
		return nil, err
	}
	if params.EFlash <= params.ERAM {
		return nil, fmt.Errorf("model: EFlash %.3f ≤ ERAM %.3f leaves nothing to optimize",
			params.EFlash, params.ERAM)
	}
	if params.ERAM < 0 {
		return nil, fmt.Errorf("model: negative ERAM %.3f", params.ERAM)
	}
	if params.CkptNJPerByte < 0 {
		return nil, fmt.Errorf("model: negative checkpoint cost %.3f nJ/byte", params.CkptNJPerByte)
	}
	if params.MaxCandidates == 0 {
		params.MaxCandidates = DefaultMaxCandidates
	}

	f := &family{byLabel: make(map[string]int)}
	m := &Model{Params: params, fam: f}
	for _, fn := range p.Funcs {
		g := graphs[fn.Name]
		for _, b := range fn.Blocks {
			cost := transform.InstrumentationCost(b)
			bd := &BlockData{
				Block:   b,
				S:       float64(b.SizeWithLiterals()),
				F:       est.Of(b),
				K:       float64(cost.Total()),
				T:       float64(cost.Cycles),
				Movable: !fn.Library || params.IncludeLibrary,
			}
			// Cb runs every instruction from flash; Lb is what a RAM
			// fetch adds to the loads that read RAM. Two approximations
			// remain: every instruction counts as executed, so a
			// conditional b is priced taken, and a pop's stall is left
			// out of Lb.
			for i := range b.Instrs {
				in := &b.Instrs[i]
				bd.C += float64(power.Cycles(in, power.Flash, power.RAM, isa.Executed))
				if in.Op != isa.POP {
					bd.L += float64(power.Cycles(in, power.RAM, power.RAM, isa.Executed) - power.Cycles(in, power.Flash, power.RAM, isa.Executed))
				}
			}
			if g != nil {
				bd.Edges = append(bd.Edges, g.Succs(b)...)
				bd.Edges = append(bd.Edges, g.CallsOut[b]...)
			}
			f.byLabel[b.Label] = len(m.Blocks)
			m.Blocks = append(m.Blocks, bd)
			m.BaseCycles += bd.F * bd.C
			m.BaseEnergyNJ += bd.F * bd.C * params.EFlash
		}
	}
	nEdges := 0
	for _, bd := range m.Blocks {
		nEdges += len(bd.Edges)
	}
	f.succ = make([][]int, len(m.Blocks))
	flat := make([]int, 0, nEdges)
	for i, bd := range m.Blocks {
		start := len(flat)
		for _, s := range bd.Edges {
			j, ok := f.byLabel[s.Label]
			if !ok {
				return nil, fmt.Errorf("model: %s: edge to %s, which is not a block of the program", bd.Block.Label, s.Label)
			}
			flat = append(flat, j)
		}
		f.succ[i] = flat[start:len(flat):len(flat)]
	}

	// Candidate cap: keep the blocks with the highest potential saving
	// F·C·(EFlash−ERAM); pin the rest.
	var movable []*BlockData
	for _, bd := range m.Blocks {
		if bd.Movable {
			movable = append(movable, bd)
		}
	}
	if len(movable) > params.MaxCandidates {
		sort.Slice(movable, func(i, j int) bool {
			return movable[i].F*movable[i].C > movable[j].F*movable[j].C
		})
		for _, bd := range movable[params.MaxCandidates:] {
			bd.Movable = false
		}
	}
	m.lower()
	return m, nil
}

// WithBounds returns the point of m's family at the given RAM budget and
// execution-time limit, validated as Build validates them. The result
// shares m's blocks, edge indices and ILP lowering; only Params.Rspare
// and Params.Xlimit differ.
func (m *Model) WithBounds(rspare, xlimit float64) (*Model, error) {
	if err := checkBounds(rspare, xlimit); err != nil {
		return nil, err
	}
	v := *m
	v.Params.Rspare, v.Params.Xlimit = rspare, xlimit
	return &v, nil
}

// Data returns the extracted parameters for a block label.
func (m *Model) Data(label string) *BlockData {
	if i, ok := m.fam.byLabel[label]; ok {
		return m.Blocks[i]
	}
	return nil
}

// Vars maps model variables to LP column indices. R, IF and IR are
// indexed like Model.Blocks; -1 marks a block without that variable.
type Vars struct {
	R  []int // r_b: block b is placed in RAM
	IF []int // i^f_b: block b is instrumented and in flash
	IR []int // i^r_b: block b is instrumented and in RAM
	// Binaries lists the r columns in ascending order: the branching
	// variables internal/ilp consumes.
	Binaries []int
	N        int
}

// BuildILP returns the model's LP relaxation plus its variable map —
// exactly what internal/ilp consumes. The problem is a copy of the
// family's lowering with this point's Eq. 7 and Eq. 9 right-hand sides;
// the Vars are the family's and must not be modified.
func (m *Model) BuildILP() (*lp.Problem, *Vars) {
	f := m.fam
	prob := f.prob.Clone()
	if f.ramRow >= 0 {
		prob.SetRHS(f.ramRow, m.Params.Rspare)
	}
	if f.timeRow >= 0 {
		prob.SetRHS(f.timeRow, (m.Params.Xlimit-1)*m.BaseCycles)
	}
	return prob, f.vars
}

// lower builds the family's LP: the variables, objective, column bounds
// and every row, with the Eq. 7 and Eq. 9 right-hand sides of m's own
// point.
func (m *Model) lower() {
	f := m.fam
	nb := len(m.Blocks)
	vars := &Vars{R: make([]int, nb), IF: make([]int, nb), IR: make([]int, nb)}
	next := 0
	for b, bd := range m.Blocks {
		vars.R[b], vars.IF[b], vars.IR[b] = -1, -1, -1
		if bd.Movable {
			vars.R[b] = next
			vars.Binaries = append(vars.Binaries, next)
			next++
		}
	}
	// i^f for a block with a movable successor other than itself (only
	// that successor can be in RAM while the block is in flash), i^r for
	// a movable block with any successor other than itself.
	for b, bd := range m.Blocks {
		for _, s := range f.succ[b] {
			if s != b && m.Blocks[s].Movable {
				vars.IF[b] = next
				next++
				break
			}
		}
		if bd.Movable && slices.ContainsFunc(f.succ[b], func(s int) bool { return s != b }) {
			vars.IR[b] = next
			next++
		}
	}
	vars.N = next

	prob := lp.NewProblem(next)
	ef, er := m.Params.EFlash, m.Params.ERAM

	// Objective: Σ F[C(Er−Ef)r + L·Er·r + T(Ef·i^f + Er·i^r)], plus the
	// checkpoint term Σ Q(S·r + K·i^r) — Q nJ per RAM-placed byte of
	// journal traffic (instrumentation bytes join the journal exactly
	// when they join the RAM footprint, i.e. on i^r). Q = 0 restores the
	// paper's always-powered objective bit for bit.
	q := m.Params.CkptNJPerByte
	for b, bd := range m.Blocks {
		if j := vars.R[b]; j >= 0 {
			obj := bd.F * (bd.C*(er-ef) + bd.L*er)
			if q != 0 {
				obj += q * bd.S
			}
			prob.SetObj(j, obj)
		}
		if j := vars.IF[b]; j >= 0 {
			prob.SetObj(j, bd.F*bd.T*ef)
		}
		if j := vars.IR[b]; j >= 0 {
			obj := bd.F * bd.T * er
			if q != 0 {
				obj += q * bd.K
			}
			prob.SetObj(j, obj)
		}
	}

	// Branching variables are bounded to [0, 1] as column bounds (no
	// tableau rows); internal/ilp branches by editing them.
	for _, j := range vars.Binaries {
		prob.SetBounds(j, 0, 1)
	}

	// Eq. 5, per distinct successor s ≠ b, in block and edge order — row
	// order must be deterministic or degenerate simplex ties (and with
	// them the branch-and-bound node count) follow map iteration order:
	// i^f_b ≥ r_s − r_b when s is movable, and i^r_b ≥ r_b − r_s when b
	// is. Every flash-pinned s gives the same i^r_b ≥ r_b, added once.
	seen := make([]int, nb) // b+1 once s is seen among b's successors
	for b := range m.Blocks {
		rb, pinned := vars.R[b], false
		for _, s := range f.succ[b] {
			if s == b || seen[s] == b+1 {
				continue
			}
			seen[s] = b + 1
			rs := vars.R[s]
			if rs < 0 {
				if rb >= 0 && !pinned {
					pinned = true
					prob.AddRow(map[int]float64{rb: 1, vars.IR[b]: -1}, 0)
				}
				continue
			}
			row := map[int]float64{rs: 1, vars.IF[b]: -1}
			if rb >= 0 {
				row[rb] = -1
			}
			prob.AddRow(row, 0) // r_s − r_b − i^f_b ≤ 0
			if rb >= 0 {
				prob.AddRow(map[int]float64{rb: 1, rs: -1, vars.IR[b]: -1}, 0) // r_b − r_s − i^r_b ≤ 0
			}
		}
	}

	// Eq. 7: Σ S·r + K·i^r ≤ Rspare.
	ramRow := map[int]float64{}
	for b, bd := range m.Blocks {
		if j := vars.R[b]; j >= 0 {
			ramRow[j] += bd.S
		}
		if j := vars.IR[b]; j >= 0 {
			ramRow[j] += bd.K
		}
	}
	f.ramRow = -1
	if len(ramRow) > 0 {
		f.ramRow = prob.NumRows()
		prob.AddRow(ramRow, m.Params.Rspare)
	}

	// Eq. 9: Σ F(L·r + T(i^f + i^r)) ≤ (Xlimit−1)·BaseCycles.
	timeRow := map[int]float64{}
	for b, bd := range m.Blocks {
		if j := vars.R[b]; j >= 0 {
			timeRow[j] += bd.F * bd.L
		}
		for _, j := range []int{vars.IF[b], vars.IR[b]} {
			if j >= 0 {
				timeRow[j] += bd.F * bd.T
			}
		}
	}
	f.timeRow = -1
	if len(timeRow) > 0 {
		f.timeRow = prob.NumRows()
		prob.AddRow(timeRow, (m.Params.Xlimit-1)*m.BaseCycles)
	}

	f.vars, f.prob = vars, prob
}

// Outcome is the model's prediction for one placement.
type Outcome struct {
	EnergyNJ float64 // Eq. 1 total
	Cycles   float64 // Σ F(C + Oc + Or)
	RAMBytes float64 // Eq. 7 left-hand side
	Feasible bool    // within Rspare and Xlimit
}

// Evaluate computes the model's objective for an explicit placement
// given as a set of block labels. Labels that name no block of the
// model, like blocks that are not movable, render the placement
// infeasible; otherwise it is EvaluateIn of the same set.
func (m *Model) Evaluate(inRAM map[string]bool) Outcome {
	in, known := m.membership(inRAM)
	out := m.EvaluateIn(in)
	if !known {
		out.Feasible = false
	}
	return out
}

// EvaluateIn computes the model's objective for an explicit placement —
// used by the Figure 6 point clouds, the exhaustive solver and the ILP
// rounder. in[b] reports whether m.Blocks[b] is in RAM (len(in) ==
// len(m.Blocks)); a block in RAM that is not movable renders the
// placement infeasible.
func (m *Model) EvaluateIn(in []bool) Outcome {
	var out Outcome
	out.Feasible = true
	succ := m.fam.succ
	for b, bd := range m.Blocks {
		r := in[b]
		if r && !bd.Movable {
			out.Feasible = false
		}
		instrumented := false
		for _, s := range succ[b] {
			if in[s] != r {
				instrumented = true
				break
			}
		}
		cyc := bd.C
		if instrumented {
			cyc += bd.T
		}
		if r {
			cyc += bd.L
		}
		mem := m.Params.EFlash
		if r {
			mem = m.Params.ERAM
		}
		out.Cycles += bd.F * cyc
		out.EnergyNJ += bd.F * cyc * mem
		if r {
			out.RAMBytes += bd.S
			if instrumented {
				out.RAMBytes += bd.K
			}
			// Checkpoint term, mirroring the ILP objective: RAM-placed
			// bytes are journaled, instrumentation bytes included iff
			// they are materialized (instrumented ∧ RAM, the i^r variable).
			if q := m.Params.CkptNJPerByte; q != 0 {
				out.EnergyNJ += q * bd.S
				if instrumented {
					out.EnergyNJ += q * bd.K
				}
			}
		}
	}
	if out.RAMBytes > m.Params.Rspare+1e-9 {
		out.Feasible = false
	}
	if m.BaseCycles > 0 && out.Cycles > m.Params.Xlimit*m.BaseCycles+1e-6 {
		out.Feasible = false
	}
	return out
}

// membership converts a label set into the per-block vector EvaluateIn
// reads; known is false when some label in RAM names no block.
func (m *Model) membership(inRAM map[string]bool) (in []bool, known bool) {
	in, known = make([]bool, len(m.Blocks)), true
	for lbl, r := range inRAM {
		if !r {
			continue
		}
		if b, ok := m.fam.byLabel[lbl]; ok {
			in[b] = true
		} else {
			known = false
		}
	}
	return in, known
}

// PlacementFromX converts an ILP solution vector into the RAM block set.
func (m *Model) PlacementFromX(vars *Vars, x []float64) map[string]bool {
	inRAM := make(map[string]bool)
	for b, j := range vars.R {
		if j >= 0 && x[j] > 0.5 {
			inRAM[m.Blocks[b].Block.Label] = true
		}
	}
	return inRAM
}

// Rounder returns a heuristic for ilp.Solver: it rounds the fractional r
// variables, drops the least-beneficial blocks until the placement is
// feasible, and materializes a consistent full variable vector.
func (m *Model) Rounder(vars *Vars) func(x []float64) ([]float64, bool) {
	return func(x []float64) ([]float64, bool) {
		in := make([]bool, len(m.Blocks))
		for b, j := range vars.R {
			if j >= 0 && x[j] >= 0.5 {
				in[b] = true
			}
		}
		for !m.EvaluateIn(in).Feasible {
			// Drop the least beneficial selected block. Ties break on the
			// label so the heuristic — and with it the branch-and-bound
			// node count — does not depend on block order.
			worst, worstVal := -1, math.Inf(1)
			for b, r := range in {
				if !r {
					continue
				}
				bd := m.Blocks[b]
				v := bd.F * bd.C * (m.Params.EFlash - m.Params.ERAM)
				if v < worstVal || (v == worstVal && (worst < 0 || bd.Block.Label < m.Blocks[worst].Block.Label)) {
					worstVal = v
					worst = b
				}
			}
			if worst < 0 {
				return nil, false
			}
			in[worst] = false
		}
		return m.materialize(vars, in), true
	}
}

// MaterializeX builds the full LP vector (r, i^f, i^r) implied by a
// placement.
func (m *Model) MaterializeX(vars *Vars, inRAM map[string]bool) []float64 {
	in, _ := m.membership(inRAM)
	return m.materialize(vars, in)
}

// materialize is MaterializeX over a per-block membership vector.
func (m *Model) materialize(vars *Vars, in []bool) []float64 {
	x := make([]float64, vars.N)
	for b := range m.Blocks {
		r := in[b]
		if j := vars.R[b]; j >= 0 && r {
			x[j] = 1
		}
		if !slices.ContainsFunc(m.fam.succ[b], func(s int) bool { return in[s] != r }) {
			continue
		}
		iv := vars.IF[b]
		if r {
			iv = vars.IR[b]
		}
		if iv >= 0 {
			x[iv] = 1
		}
	}
	return x
}
