package transform

import (
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/isa"
)

// Register liveness at the machine level, used to scavenge a dead low
// register for the Figure 4 conditional instrumentation sequences. With a
// low register the two predicated ldr literals get 16-bit encodings and
// the rewrite costs exactly what the paper's figure prints (8/10 bytes);
// when nothing is provably dead we fall back to r12, the AAPCS scratch
// register, at 12 bytes.

// LiveSet is a register bitmask over r0..pc.
type LiveSet uint16

// Has reports whether the register is in the set.
func (s LiveSet) Has(r isa.Reg) bool { return s&(1<<r) != 0 }
func (s *LiveSet) add(r isa.Reg)     { *s |= 1 << r }

// returnLive is the conservative live-out set of a returning block: the
// result registers, every callee-saved register, SP and LR.
const returnLive = LiveSet(1<<isa.R0 | 1<<isa.R1 |
	1<<isa.R4 | 1<<isa.R5 | 1<<isa.R6 | 1<<isa.R7 |
	1<<isa.R8 | 1<<isa.R9 | 1<<isa.R10 | 1<<isa.R11 |
	1<<isa.SP | 1<<isa.LR)

// UsesOf returns the registers an instruction reads, augmented for
// liveness soundness: calls consume the argument registers, returns
// consume the conservative return-live set.
func UsesOf(in *isa.Instr) LiveSet {
	var s LiveSet
	for _, r := range in.Uses() {
		s.add(r)
	}
	switch in.Op {
	case isa.BL, isa.BLX:
		// AAPCS arguments.
		s.add(isa.R0)
		s.add(isa.R1)
		s.add(isa.R2)
		s.add(isa.R3)
	case isa.BX:
		if in.Rm == isa.LR {
			s |= returnLive
		}
	case isa.POP:
		if in.RegList&(1<<isa.PC) != 0 {
			s |= returnLive
		}
	}
	return s
}

// DefsOf returns the registers the instruction writes.
func DefsOf(in *isa.Instr) LiveSet {
	var s LiveSet
	for _, r := range in.Defs() {
		s.add(r)
	}
	return s
}

// LiveOut computes per-block live-out register sets for one function
// using its CFG. Blocks with indirect terminators whose targets are
// unknown are given the conservative return-live set. The scavenger uses
// it, so a verifier comparing against it sees exactly the facts the
// transformation relied on.
func LiveOut(p *ir.Program, f *ir.Function) (map[*ir.Block]LiveSet, error) {
	g, err := cfg.Build(p, f)
	if err != nil {
		return nil, err
	}

	gen := make(map[*ir.Block]LiveSet, len(f.Blocks))
	kill := make(map[*ir.Block]LiveSet, len(f.Blocks))
	for _, b := range f.Blocks {
		var g, k LiveSet
		for i := range b.Instrs {
			in := &b.Instrs[i]
			g |= UsesOf(in) &^ k
			k |= DefsOf(in)
		}
		gen[b], kill[b] = g, k
	}

	liveIn := make(map[*ir.Block]LiveSet, len(f.Blocks))
	liveOut := make(map[*ir.Block]LiveSet, len(f.Blocks))
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			var out LiveSet
			succs := g.Succs(b)
			if len(succs) == 0 && !b.IsReturn() {
				// Unknown indirect successors (bx reg): be conservative.
				out = returnLive
			}
			for _, s := range succs {
				out |= liveIn[s]
			}
			in := gen[b] | (out &^ kill[b])
			if out != liveOut[b] || in != liveIn[b] {
				changed = true
			}
			liveOut[b], liveIn[b] = out, in
		}
	}
	return liveOut, nil
}

// scavenge returns a provably dead low register at the end of block b, or
// (ScratchReg, false) when none can be proven dead.
func scavenge(liveOut LiveSet) (isa.Reg, bool) {
	for r := isa.R0; r <= isa.R7; r++ {
		if !liveOut.Has(r) {
			return r, true
		}
	}
	return ScratchReg, false
}
