package analysis

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/transform"
)

// InstrumentationPass verifies the §5 transformation's two obligations on
// every flash↔RAM boundary: (1) no direct transfer survives across the
// memories — every cross edge must go through a Figure 4 long-branch
// sequence, because no direct Thumb-2 branch can span the 0x18000000
// flash↔RAM distance — and (2) the scratch register each sequence clobbers
// was provably dead at the instrumentation point, cross-checked against
// the same liveness analysis (transform.LiveOut) the scavenger used.
//
// Codes:
//
//	IC001  direct call (bl) crosses between flash and RAM
//	IC002  direct branch (b) crosses between flash and RAM
//	IC003  fall-through edge crosses between flash and RAM
//	IC004  instrumentation scratch register is live at the rewrite point
//	IC005  malformed long-branch sequence (it/ldr/ldr/bx shape broken)
type InstrumentationPass struct{}

// Name implements Pass.
func (InstrumentationPass) Name() string { return "instrumentation" }

// condSeq is a recognized it/ldr/ldr/bx tail: the Figure 4 conditional
// long branch. start is the index of the IT instruction.
type condSeq struct {
	start   int
	scratch isa.Reg
	taken   string // target of the condition-true ldr
	fallthr string // target of the condition-false ldr
}

// matchCondSeq recognizes the conditional instrumentation tail of a block,
// returning nil when the block does not end in bx through a non-LR
// register. A malformed tail is reported through the diag callback.
func matchCondSeq(b *ir.Block, diag func(code string, idx int, format string, args ...interface{})) *condSeq {
	n := len(b.Instrs)
	if n == 0 {
		return nil
	}
	last := &b.Instrs[n-1]
	if last.Op != isa.BX || last.Rm == isa.LR {
		return nil
	}
	if n < 4 {
		diag("IC005", n-1, "bx %s has no preceding it/ldr/ldr sequence", last.Rm)
		return nil
	}
	l2, l1, it := &b.Instrs[n-2], &b.Instrs[n-3], &b.Instrs[n-4]
	if it.Op != isa.IT || l1.Op != isa.LDRLIT || l2.Op != isa.LDRLIT {
		// A plain indirect branch from the source program (bx through a
		// computed register) — not instrumentation, nothing to validate.
		return nil
	}
	seq := &condSeq{start: n - 4, scratch: last.Rm, taken: l1.Sym, fallthr: l2.Sym}
	switch {
	case l1.Rd != last.Rm || l2.Rd != last.Rm:
		diag("IC005", n-1, "long-branch loads %s/%s but branches through %s",
			l1.Rd, l2.Rd, last.Rm)
	case l1.Cond == isa.AL || l2.Cond == isa.AL:
		diag("IC005", n-3, "long-branch ldr pair is unconditional")
	case l1.Cond != it.Cond || l2.Cond != l1.Cond.Invert():
		diag("IC005", n-3, "long-branch conditions %s/%s do not match it %s and its inverse",
			l1.Cond, l2.Cond, it.Cond)
	case b.Func.Block(l1.Sym) == nil || b.Func.Block(l2.Sym) == nil:
		diag("IC005", n-3, "long-branch targets %q/%q are not blocks of %s",
			l1.Sym, l2.Sym, b.Func.Name)
	}
	return seq
}

// Run implements Pass.
func (p InstrumentationPass) Run(ctx *Context) ([]Diagnostic, error) {
	var diags []Diagnostic

	for _, f := range ctx.Prog.Funcs {
		// Live-out sets of the pre-transformation function: the facts that
		// must justify every scratch-register clobber. Nil when no original
		// program (baseline lint) or the function is new.
		var origLive map[string]transform.LiveSet
		var origF *ir.Function
		if ctx.Original != nil {
			if origF = ctx.Original.Func(f.Name); origF != nil {
				lo, err := transform.LiveOut(ctx.Original, origF)
				if err != nil {
					return diags, fmt.Errorf("liveness of original %s: %v", f.Name, err)
				}
				origLive = lo
			}
		}

		for bi, b := range f.Blocks {
			myRAM := ctx.memOf(b.Label)
			diag := func(code string, idx int, format string, args ...interface{}) {
				diags = append(diags, Diagnostic{
					Pass: p.Name(), Code: code, Severity: Error,
					Func: f.Name, Block: b.Label, Instr: idx,
					Message: fmt.Sprintf(format, args...),
				})
			}

			// (1) Direct calls must not cross memories.
			callOrdinal := 0
			for ii := 0; ii < len(b.Instrs); ii++ {
				in := &b.Instrs[ii]
				switch in.Op {
				case isa.BL:
					if callee := ctx.Prog.Func(in.Sym); callee != nil && callee.Entry() != nil {
						if ctx.memOf(callee.Entry().Label) != myRAM {
							diag("IC001", ii,
								"direct bl %s crosses %s→%s without a long call",
								in.Sym, memName(myRAM), memName(!myRAM))
						}
					}
					callOrdinal++
				case isa.BLX:
					// A rewritten call: ldr rS, =callee; blx rS. The scratch
					// must have been dead across the original call.
					if ii > 0 && b.Instrs[ii-1].Op == isa.LDRLIT &&
						b.Instrs[ii-1].Rd == in.Rm && b.Instrs[ii-1].Sym != "" {
						if origLive != nil {
							if live, ok := liveBeforeCall(origF, b.Label, callOrdinal, origLive); ok && live.Has(in.Rm) {
								diag("IC004", ii,
									"call rewrite clobbers %s, which is live across the original bl %s",
									in.Rm, b.Instrs[ii-1].Sym)
							}
						}
					}
					callOrdinal++
				}
			}

			// (2) The terminator must not cross memories directly.
			if t := b.Terminator(); t != nil {
				ti := len(b.Instrs) - 1
				switch t.Op {
				case isa.B:
					if ctx.memOf(t.Sym) != myRAM {
						diag("IC002", ti,
							"direct %s %s crosses %s→%s; needs ldr pc / it-ldr-ldr-bx instrumentation",
							t.Op, t.Sym, memName(myRAM), memName(!myRAM))
					}
				}
			}

			// (3) A fall-through edge must land in the same memory.
			if b.FallsThrough() && bi+1 < len(f.Blocks) {
				next := f.Blocks[bi+1]
				if ctx.memOf(next.Label) != myRAM {
					diag("IC003", len(b.Instrs)-1,
						"fall-through to %s crosses %s→%s; placement severed the edge",
						next.Label, memName(myRAM), memName(!myRAM))
				}
			}

			// (4) Conditional long-branch tails: shape and scratch liveness.
			if seq := matchCondSeq(b, diag); seq != nil && origLive != nil {
				if origLive[b.Label].Has(seq.scratch) {
					diag("IC004", seq.start,
						"long-branch sequence clobbers %s, which is live out of the original block",
						seq.scratch)
				}
			}
		}
	}
	return diags, nil
}

// liveBeforeCall computes the registers live immediately before the n-th
// call (0-based) of the named block in the original function, by walking
// the block backwards from its live-out set. Returns ok=false when the
// block or call does not exist in the original (structure divergence is
// the CFG-equivalence pass's finding, not ours).
func liveBeforeCall(f *ir.Function, label string, n int, liveOut map[string]transform.LiveSet) (transform.LiveSet, bool) {
	b := f.Block(label)
	if b == nil {
		return 0, false
	}
	// Index of the n-th call instruction.
	callIdx := -1
	seen := 0
	for i := range b.Instrs {
		if b.Instrs[i].Op == isa.BL || b.Instrs[i].Op == isa.BLX {
			if seen == n {
				callIdx = i
				break
			}
			seen++
		}
	}
	if callIdx < 0 {
		return 0, false
	}
	live := liveOut[label]
	for i := len(b.Instrs) - 1; i > callIdx; i-- {
		in := &b.Instrs[i]
		live &^= transform.DefsOf(in)
		live |= transform.UsesOf(in)
	}
	// The call's own argument uses keep those registers live into it.
	live |= transform.UsesOf(&b.Instrs[callIdx])
	return live, true
}
