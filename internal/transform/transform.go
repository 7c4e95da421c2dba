// Package transform implements the paper's code transformation (§5): given
// the set R of basic blocks chosen for RAM, it relocates them (by marking;
// internal/layout does the address assignment) and rewrites every control
// transfer that crosses between flash and RAM into a long-range indirect
// form, following Figure 4:
//
//	unconditional b label   →  ldr pc, =label
//	b<cc> label             →  it<cc,e>; ldr<cc> rS,=label; ldr<cc'> rS,=fallthrough; bx rS
//	fall-through            →  ldr pc, =next
//	bl callee               →  ldr rS, =callee; blx rS
//
// rS is r12 (IP), the AAPCS scratch register reserved for exactly this
// kind of veneer; the paper's figure shows r5 for illustration. (Figure 4
// also rewrites cbz/cbnz; no producer here emits them.) The
// package also computes the per-block instrumentation costs Kb (bytes) and
// Tb (cycles) the ILP model needs (§4.1).
package transform

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isa"
)

// ScratchReg is the register used by the indirect-branch sequences.
const ScratchReg = isa.R12

// Shape classifies a block's terminator for instrumentation purposes.
type Shape int

// Terminator shapes (Figure 4 rows).
const (
	ShapeReturn      Shape = iota // bx lr / pop {...,pc}: never instrumented
	ShapeUncond                   // b label
	ShapeCond                     // b<cc> label with fall-through
	ShapeFallThrough              // no terminator
	ShapeIndirect                 // bx reg / ldr pc: already long-range
)

func (s Shape) String() string {
	switch s {
	case ShapeReturn:
		return "return"
	case ShapeUncond:
		return "unconditional"
	case ShapeCond:
		return "conditional"
	case ShapeFallThrough:
		return "fall-through"
	case ShapeIndirect:
		return "indirect"
	}
	return "shape(?)"
}

// ShapeOf classifies a block.
func ShapeOf(b *ir.Block) Shape {
	t := b.Terminator()
	if t == nil {
		return ShapeFallThrough
	}
	switch t.Op {
	case isa.B:
		if t.Cond == isa.AL {
			return ShapeUncond
		}
		return ShapeCond
	case isa.BX:
		if t.Rm == isa.LR {
			return ShapeReturn
		}
		return ShapeIndirect
	case isa.POP:
		return ShapeReturn
	case isa.LDRLIT:
		return ShapeIndirect
	}
	return ShapeFallThrough
}

// Cost is the instrumentation overhead of one block.
type Cost struct {
	// Bytes is the extra instruction bytes (the paper's Kb, Figure 4).
	Bytes int
	// PoolBytes is the extra literal-pool bytes the new ldr =sym
	// instructions require; the model adds these to Kb because they
	// occupy RAM alongside the block.
	PoolBytes int
	// Cycles is the extra cycles on the executed path (the paper's Tb).
	Cycles int
}

// Total returns instruction plus pool bytes — the RAM the instrumentation
// actually occupies.
func (c Cost) Total() int { return c.Bytes + c.PoolBytes }

// shapeCost returns the Figure 4 delta for a terminator shape, using the
// given scratch register (encoding width depends on it: the paper's
// illustration uses low r5, our emission uses r12).
func shapeCost(s Shape, scratch isa.Reg) Cost {
	ldrW := 2 // narrow ldr rd, [pc, #imm]
	if !scratch.IsLow() {
		ldrW = 4
	}
	switch s {
	case ShapeUncond:
		// b(2B,3cy) → ldr pc,=l (4B,4cy) + 1 pool word
		return Cost{Bytes: 4 - 2, PoolBytes: 4, Cycles: 4 - 3}
	case ShapeCond:
		// b<cc>(2B,3cy taken) → it(2)+ldr+ldr+bx(2) (7cy executed path)
		return Cost{Bytes: 2 + 2*ldrW + 2 - 2, PoolBytes: 8, Cycles: 7 - 3}
	case ShapeFallThrough:
		// nothing → ldr pc,=l (4B,4cy)
		return Cost{Bytes: 4, PoolBytes: 4, Cycles: 4}
	default:
		return Cost{}
	}
}

// callCost is the delta for rewriting one direct call:
// bl(4B,4cy) → ldr rS,=f + blx rS (2B, ldr 2cy + blx 4cy).
func callCost(scratch isa.Reg) Cost {
	ldrW := 2
	if !scratch.IsLow() {
		ldrW = 4
	}
	return Cost{Bytes: ldrW + 2 - 4, PoolBytes: 4, Cycles: 2 + 4 - 4}
}

// InstrumentationCost returns the worst-case cost of instrumenting the
// block: the terminator rewrite plus a rewrite of every direct call it
// contains. This is the constant Kb/Tb the model uses; the actual
// transformation only rewrites the transfers that really cross memories,
// so the model is conservative for multi-call blocks.
func InstrumentationCost(b *ir.Block) Cost {
	c := shapeCost(ShapeOf(b), ScratchReg)
	nCalls := len(b.Calls())
	if nCalls > 0 {
		cc := callCost(ScratchReg)
		c.Bytes += nCalls * cc.Bytes
		c.PoolBytes += nCalls * cc.PoolBytes
		c.Cycles += nCalls * cc.Cycles
	}
	return c
}

// Report summarizes what Apply changed.
type Report struct {
	Moved        []string // labels placed in RAM
	Instrumented []string // labels whose control flow was rewritten
	ExtraBytes   int      // instruction + pool bytes added program-wide
	ExtraCycles  int      // per-execution extra cycles (sum over blocks)
	// Scavenged counts conditional rewrites that found a dead low
	// register (16-bit ldr encodings, the paper's r5-style costs) rather
	// than falling back to r12.
	Scavenged int
}

// Options adjust the transformation.
type Options struct {
	// LinkTime permits relocating library-function blocks (§8).
	LinkTime bool
	// NoScavenge disables dead-register scavenging, forcing every
	// conditional sequence to use r12 (for the encoding-cost ablation).
	NoScavenge bool
}

// Apply rewrites the program in place for the given placement and returns
// a report. The program should be a Clone if the caller still needs the
// original. Apply refuses placements that move library-function blocks;
// ApplyLinkTime lifts that restriction (the paper's §8 future work).
func Apply(p *ir.Program, inRAM map[string]bool) (*Report, error) {
	return ApplyWithOptions(p, inRAM, Options{})
}

// ApplyLinkTime is Apply with full link-time visibility: library-function
// blocks may be relocated and instrumented like any other code.
func ApplyLinkTime(p *ir.Program, inRAM map[string]bool) (*Report, error) {
	return ApplyWithOptions(p, inRAM, Options{LinkTime: true})
}

// ApplyWithOptions is the general entry point.
func ApplyWithOptions(p *ir.Program, inRAM map[string]bool, o Options) (*Report, error) {
	return apply(p, inRAM, o)
}

func apply(p *ir.Program, inRAM map[string]bool, o Options) (*Report, error) {
	linkTime := o.LinkTime
	rep := &Report{}

	// Map every label to its memory.
	blockRAM := func(label string) bool { return inRAM[label] }

	for _, f := range p.Funcs {
		if f.Library && !linkTime {
			for _, b := range f.Blocks {
				if inRAM[b.Label] {
					return nil, fmt.Errorf(
						"transform: block %q belongs to library function %q and cannot move",
						b.Label, f.Name)
				}
			}
			continue
		}
		// Liveness for dead-register scavenging (computed on the original
		// CFG; rewrites do not change block-level successor sets). Only a
		// conditional edge that crosses memories inside the function
		// scavenges, so a function in one memory needs none.
		var liveOut map[*ir.Block]LiveSet
		if !o.NoScavenge && spansMemories(f, inRAM) {
			lo, err := LiveOut(p, f)
			if err != nil {
				return nil, fmt.Errorf("transform: liveness for %s: %w", f.Name, err)
			}
			liveOut = lo
		}

		for bi, b := range f.Blocks {
			if inRAM[b.Label] {
				rep.Moved = append(rep.Moved, b.Label)
			}
			myRAM := blockRAM(b.Label)
			changed := false
			oldBytes, oldCycles := b.SizeWithLiterals(), b.Cycles()

			// Rewrite crossing calls first (mid-block, indexes stable as
			// we replace 1 instruction with 2 going backwards).
			for ii := len(b.Instrs) - 1; ii >= 0; ii-- {
				in := b.Instrs[ii]
				if in.Op != isa.BL {
					continue
				}
				callee := p.Func(in.Sym)
				if callee == nil || callee.Entry() == nil {
					continue
				}
				calleeRAM := blockRAM(callee.Entry().Label)
				if calleeRAM == myRAM {
					continue
				}
				seq := []isa.Instr{
					{Op: isa.LDRLIT, Rd: ScratchReg, Sym: in.Sym},
					{Op: isa.BLX, Rm: ScratchReg},
				}
				b.Instrs = append(b.Instrs[:ii], append(seq, b.Instrs[ii+1:]...)...)
				changed = true
			}

			// Terminator rewrite if any control edge crosses.
			shape := ShapeOf(b)
			switch shape {
			case ShapeReturn, ShapeIndirect:
				// Long-range already.
			case ShapeUncond:
				t := &b.Instrs[len(b.Instrs)-1]
				if blockRAM(t.Sym) != myRAM {
					*t = isa.Instr{Op: isa.LDRLIT, Rd: isa.PC, Sym: t.Sym}
					changed = true
				}
			case ShapeCond, ShapeFallThrough:
				if bi+1 >= len(f.Blocks) {
					return nil, fmt.Errorf("transform: %s falls off function end", b.Label)
				}
				fallthru := f.Blocks[bi+1].Label
				if shape == ShapeFallThrough {
					if blockRAM(fallthru) != myRAM {
						b.Instrs = append(b.Instrs, isa.Instr{Op: isa.LDRLIT, Rd: isa.PC, Sym: fallthru})
						changed = true
					}
					break
				}
				t := b.Instrs[len(b.Instrs)-1]
				if blockRAM(t.Sym) == myRAM && blockRAM(fallthru) == myRAM {
					break // both edges stay local
				}
				b.Instrs = b.Instrs[:len(b.Instrs)-1]
				scratch := ScratchReg
				if liveOut != nil {
					if r, ok := scavenge(liveOut[b]); ok {
						scratch = r
						rep.Scavenged++
					}
				}
				b.Instrs = append(b.Instrs,
					isa.Instr{Op: isa.IT, Cond: t.Cond, ITMask: "e"},
					isa.Instr{Op: isa.LDRLIT, Cond: t.Cond, Rd: scratch, Sym: t.Sym},
					isa.Instr{Op: isa.LDRLIT, Cond: t.Cond.Invert(), Rd: scratch, Sym: fallthru},
					isa.Instr{Op: isa.BX, Rm: scratch},
				)
				changed = true
			}

			if changed {
				rep.Instrumented = append(rep.Instrumented, b.Label)
				rep.ExtraBytes += b.SizeWithLiterals() - oldBytes
				rep.ExtraCycles += b.Cycles() - oldCycles
			}
		}
	}
	p.Reindex()
	if err := ir.Verify(p); err != nil {
		return nil, fmt.Errorf("transform: produced invalid program: %w", err)
	}
	return rep, nil
}

// spansMemories reports whether f has blocks in both flash and RAM.
func spansMemories(f *ir.Function, inRAM map[string]bool) bool {
	for _, b := range f.Blocks {
		if inRAM[b.Label] != inRAM[f.Blocks[0].Label] {
			return true
		}
	}
	return false
}
