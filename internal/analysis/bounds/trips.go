package bounds

import (
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/isa"
)

// Loop trip-count inference: recover the constant iteration count of the
// compiler's counted-loop shape,
//
//	preheader:  iv ← i0                  (register or stack slot)
//	header:     …; cmp iv, bound; b<cc> exit
//	update:     iv ← iv + s              (the only writer, dominates
//	                                      every latch, at loop depth)
//
// via a small block-local abstract evaluator whose value domain is
// {const c, loc+c, unknown}: loc names either a register's value at block
// entry or an sp-relative stack slot (the compiler spills induction
// variables under register pressure). Everything outside the shape is an
// explicit ⊤ with a reason — the composition then keeps the lower bound
// finite and widens only the upper.

// inferTrips brackets how many body iterations one entry to the loop
// executes.
func inferTrips(g *cfg.Graph, l *cfg.Loop) TripBound {
	top := func(reason string) TripBound { return TripBound{Reason: reason} }
	f := g.Func
	header := l.Header

	// The exit test: a conditional branch terminating the header with
	// exactly one edge leaving the loop.
	t := header.Terminator()
	if t == nil || t.Op != isa.B || t.Cond == isa.AL {
		return top("exit not a conditional branch at header " + header.Label)
	}
	taken := blockByLabel(f, t.Sym)
	if taken == nil || header.Index+1 >= len(f.Blocks) {
		return top("malformed header branch in " + header.Label)
	}
	fallthru := f.Blocks[header.Index+1]
	exitCond := t.Cond
	switch {
	case !l.Blocks[taken] && l.Blocks[fallthru]:
		// exit on the taken edge: cond as written
	case l.Blocks[taken] && !l.Blocks[fallthru]:
		exitCond = exitCond.Invert()
	default:
		return top("header " + header.Label + " does not test the exit")
	}

	// Evaluate the header up to its compare to name the induction
	// variable location and the constant bound.
	cmpIdx := -1
	for i := len(header.Instrs) - 1; i >= 0; i-- {
		if header.Instrs[i].Op == isa.CMP {
			cmpIdx = i
			break
		}
	}
	if cmpIdx < 0 {
		return top("no compare in header " + header.Label)
	}
	st := newEvalState()
	st.run(header.Instrs[:cmpIdx])
	cmp := &header.Instrs[cmpIdx]
	va := st.reg(cmp.Rn)
	vb := st.operand2(cmp)

	var iv loc
	var bound int64
	switch {
	case va.kind == vLoc && vb.kind == vConst:
		iv, bound = va.loc, vb.c-va.c // iv+k REL B  ⇔  iv REL B−k
	case va.kind == vConst && vb.kind == vLoc:
		iv, bound = vb.loc, va.c-vb.c
		exitCond = mirror(exitCond)
	default:
		return top("compare operands not (induction, constant) in " + header.Label)
	}

	// Stack-slot variables need a stable frame: any SP adjustment inside
	// the loop would re-base the slot.
	if iv.slot {
		for b := range l.Blocks {
			if writesSP(b) {
				return top("frame moves inside loop " + header.Label)
			}
		}
	}

	// Initial value from the preheader(s).
	i0 := int64(0)
	haveInit := false
	for _, p := range g.Preds(header) {
		if l.Blocks[p] {
			continue
		}
		ps := newEvalState()
		ps.run(p.Instrs)
		v := ps.loc(iv)
		if v.kind != vConst {
			return top("init of " + header.Label + " not constant")
		}
		if haveInit && v.c != i0 {
			return top("conflicting inits for " + header.Label)
		}
		i0, haveInit = v.c, true
	}
	if !haveInit {
		return top("no preheader for " + header.Label)
	}

	// The step: exactly one block in the loop may write the variable; it
	// must sit at the loop's own depth (not inside an inner loop, or the
	// per-iteration advance is not constant) and dominate every latch (or
	// some iterations skip it).
	var update *ir.Block
	for b := range l.Blocks {
		if writesLoc(b, iv) {
			if update != nil {
				return top("multiple writers of the induction variable of " + header.Label)
			}
			update = b
		}
	}
	if update == nil {
		return top("no writer of the induction variable of " + header.Label)
	}
	if g.LoopDepth(update) != l.Depth {
		return top("induction update of " + header.Label + " inside an inner loop")
	}
	for _, p := range g.Preds(header) {
		if l.Blocks[p] && !g.Dominates(update, p) {
			return top("induction update of " + header.Label + " does not dominate a latch")
		}
	}
	us := newEvalState()
	us.run(update.Instrs)
	uv := us.loc(iv)
	if uv.kind != vLoc || uv.loc != iv || uv.c == 0 {
		return top("step of " + header.Label + " not a constant advance")
	}
	step := uv.c

	n, ok := tripCount(i0, bound, step, exitCond)
	if !ok {
		return top("exit condition of " + header.Label + " not resolvable")
	}

	// Extra exit edges (breaks) can leave early: the count stays a valid
	// maximum; the minimum collapses to zero.
	minTrips := n
	for b := range l.Blocks {
		if b == header {
			continue
		}
		for _, s := range g.Succs(b) {
			if !l.Blocks[s] {
				minTrips = 0
			}
		}
	}
	return TripBound{Min: minTrips, Max: n, Bounded: true}
}

// tripCount solves for the number of body iterations of a counted loop:
// starting at i0, advancing by step per iteration, exiting the first time
// `iv exitCond bound` holds at the top. Conditions are signed compares;
// the unsigned ones map onto them where the walk provably stays in
// non-negative int32 range.
func tripCount(i0, bound, step int64, exitCond isa.Cond) (int64, bool) {
	const limit = int64(1) << 31
	if i0 < -limit || i0 > limit || bound < -limit || bound > limit {
		return 0, false
	}
	switch exitCond {
	case isa.CS, isa.HI: // unsigned ≥ / > exits an up-counting walk
		if i0 < 0 || bound < 0 || step <= 0 {
			return 0, false
		}
		if exitCond == isa.CS {
			exitCond = isa.GE
		} else {
			exitCond = isa.GT
		}
	case isa.LS, isa.CC: // unsigned ≤ / < needs an exact down-count hit
		if i0 < bound || bound < 0 || step >= 0 || (i0-bound)%(-step) != 0 {
			return 0, false
		}
		if exitCond == isa.LS {
			exitCond = isa.LE
		} else {
			exitCond = isa.LT
		}
	}
	ceilDiv := func(a, b int64) int64 { return (a + b - 1) / b }
	var n int64
	switch exitCond {
	case isa.GE: // run while iv < bound
		if i0 >= bound {
			return 0, true
		}
		if step <= 0 {
			return 0, false
		}
		n = ceilDiv(bound-i0, step)
	case isa.GT: // run while iv ≤ bound
		if i0 > bound {
			return 0, true
		}
		if step <= 0 {
			return 0, false
		}
		n = (bound-i0)/step + 1
	case isa.LE: // run while iv > bound (down-counting)
		if i0 <= bound {
			return 0, true
		}
		if step >= 0 {
			return 0, false
		}
		n = ceilDiv(i0-bound, -step)
	case isa.LT: // run while iv ≥ bound
		if i0 < bound {
			return 0, true
		}
		if step >= 0 {
			return 0, false
		}
		n = (i0-bound)/(-step) + 1
	case isa.EQ: // run while iv ≠ bound: must hit exactly
		d := bound - i0
		if d == 0 {
			return 0, true
		}
		if step == 0 || d%step != 0 || d/step < 0 {
			return 0, false
		}
		n = d / step
	case isa.NE: // run while iv == bound
		if i0 != bound {
			return 0, true
		}
		if step == 0 {
			return 0, false
		}
		return 1, true
	default:
		return 0, false
	}
	if n < 0 || n > limit {
		return 0, false
	}
	return n, true
}

// mirror swaps the operand order of a comparison: a REL b ⇔ b mirror(REL) a.
func mirror(c isa.Cond) isa.Cond {
	switch c {
	case isa.GE:
		return isa.LE
	case isa.LE:
		return isa.GE
	case isa.GT:
		return isa.LT
	case isa.LT:
		return isa.GT
	case isa.CS:
		return isa.LS
	case isa.LS:
		return isa.CS
	case isa.HI:
		return isa.CC
	case isa.CC:
		return isa.HI
	default: // EQ, NE are symmetric; anything else stays unresolvable
		return c
	}
}

func blockByLabel(f *ir.Function, label string) *ir.Block {
	for _, b := range f.Blocks {
		if b.Label == label {
			return b
		}
	}
	return nil
}

func writesSP(b *ir.Block) bool {
	for i := range b.Instrs {
		for _, d := range b.Instrs[i].Defs() {
			if d == isa.SP {
				return true
			}
		}
	}
	return false
}

// writesLoc reports whether the block assigns the location: any def of
// the register, or a store to the sp-relative slot. Stack slots are
// compiler temporaries that are never address-taken, so only sp-based
// stores can reach them.
func writesLoc(b *ir.Block, l loc) bool {
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if l.slot {
			if (in.Op == isa.STR || in.Op == isa.STRB || in.Op == isa.STRH) &&
				in.Mode == isa.AddrOffset && in.Rn == isa.SP && int32(in.Imm) == l.off {
				return true
			}
			continue
		}
		for _, d := range in.Defs() {
			if d == l.reg {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------
// The abstract evaluator.

type valKind uint8

const (
	vUnknown valKind = iota
	vConst           // the constant c
	vLoc             // (value of loc at block entry) + c
)

// loc names a storage location: a register, or an sp-relative stack slot.
type loc struct {
	reg  isa.Reg
	slot bool
	off  int32
}

type val struct {
	kind valKind
	c    int64
	loc  loc
}

type evalState struct {
	regs  [isa.NumRegs]val
	slots map[int32]val
}

func newEvalState() *evalState {
	s := &evalState{slots: make(map[int32]val)}
	for r := range s.regs {
		s.regs[r] = val{kind: vLoc, loc: loc{reg: isa.Reg(r)}}
	}
	return s
}

func (s *evalState) reg(r isa.Reg) val {
	if r == isa.NoReg || int(r) >= len(s.regs) {
		return val{}
	}
	return s.regs[r]
}

func (s *evalState) loc(l loc) val {
	if l.slot {
		if v, ok := s.slots[l.off]; ok {
			return v
		}
		return val{kind: vLoc, loc: l}
	}
	return s.reg(l.reg)
}

func (s *evalState) setReg(r isa.Reg, v val) {
	if r != isa.NoReg && int(r) < len(s.regs) {
		s.regs[r] = v
	}
}

// operand2 evaluates an instruction's flexible second operand.
func (s *evalState) operand2(in *isa.Instr) val {
	if in.HasImm {
		return val{kind: vConst, c: int64(in.Imm)}
	}
	return s.reg(in.Rm)
}

func add(a val, k int64) val {
	switch a.kind {
	case vConst:
		return val{kind: vConst, c: a.c + k}
	case vLoc:
		return val{kind: vLoc, c: a.c + k, loc: a.loc}
	}
	return val{}
}

// run interprets the instruction sequence abstractly. Unknown effects
// clobber conservatively; an SP adjustment re-bases the frame, so all
// slot knowledge is dropped (later stores track the new frame, which is
// the one the block hands its successors).
func (s *evalState) run(instrs []isa.Instr) {
	for i := range instrs {
		in := &instrs[i]
		switch in.Op {
		case isa.MOV:
			if in.Cond == isa.AL {
				s.setReg(in.Rd, s.operand2(in))
				continue
			}
		case isa.ADD, isa.SUB:
			if in.Rd != isa.SP && in.Rn != isa.SP {
				a := s.reg(in.Rn)
				b := s.operand2(in)
				neg := int64(1)
				if in.Op == isa.SUB {
					neg = -1
				}
				switch {
				case b.kind == vConst:
					s.setReg(in.Rd, add(a, neg*b.c))
					continue
				case a.kind == vConst && in.Op == isa.ADD:
					s.setReg(in.Rd, add(b, a.c))
					continue
				}
			}
		case isa.LDRLIT:
			if in.Sym == "" {
				s.setReg(in.Rd, val{kind: vConst, c: int64(in.Imm)})
				continue
			}
		case isa.LDR:
			if in.Mode == isa.AddrOffset && in.Rn == isa.SP {
				s.setReg(in.Rd, s.loc(loc{slot: true, off: int32(in.Imm)}))
				continue
			}
		case isa.STR, isa.STRB, isa.STRH:
			if in.Mode == isa.AddrOffset && in.Rn == isa.SP {
				if in.Op == isa.STR {
					s.slots[int32(in.Imm)] = s.reg(in.Rd)
				} else {
					// Partial store: the slot's word value is no longer
					// known.
					s.slots[int32(in.Imm)] = val{}
				}
				continue
			}
		}
		for _, d := range in.Defs() {
			if d == isa.SP {
				s.slots = make(map[int32]val)
			}
			s.setReg(d, val{})
		}
	}
}
