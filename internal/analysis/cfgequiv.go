package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
	"repro/internal/isa"
)

// CFGEquivalencePass proves the transformation preserved control flow:
// the original and transformed programs must be isomorphic modulo the
// instrumentation — same functions, same blocks, the same successor set
// per block (with long-branch sequences resolved back to their targets),
// the same call sequence, and an untouched computational instruction
// stream outside the rewritten transfers.
//
// Codes:
//
//	CF001  program or function structure differs (functions/blocks)
//	CF002  a block's successor set changed
//	CF003  a block's call sequence changed
//	CF004  non-control instructions were altered
type CFGEquivalencePass struct{}

// Name implements Pass.
func (CFGEquivalencePass) Name() string { return "cfg-equivalence" }

// Run implements Pass.
func (p CFGEquivalencePass) Run(ctx *Context) ([]Diagnostic, error) {
	if ctx.Original == nil || ctx.Original == ctx.Prog {
		return nil, nil // baseline lint: nothing to compare against
	}
	var diags []Diagnostic
	report := func(code, fn, block string, format string, args ...interface{}) {
		diags = append(diags, Diagnostic{
			Pass: p.Name(), Code: code, Severity: Error,
			Func: fn, Block: block, Instr: -1,
			Message: fmt.Sprintf(format, args...),
		})
	}

	orig, prog := ctx.Original, ctx.Prog
	if len(orig.Funcs) != len(prog.Funcs) {
		report("CF001", "", "", "function count changed: %d → %d", len(orig.Funcs), len(prog.Funcs))
		return diags, nil
	}
	for fi, of := range orig.Funcs {
		tf := prog.Funcs[fi]
		if of.Name != tf.Name || of.Library != tf.Library {
			report("CF001", of.Name, "", "function %d changed identity: %s → %s", fi, of.Name, tf.Name)
			continue
		}
		if len(of.Blocks) != len(tf.Blocks) {
			report("CF001", of.Name, "", "block count changed: %d → %d", len(of.Blocks), len(tf.Blocks))
			continue
		}
		for bi, ob := range of.Blocks {
			tb := tf.Blocks[bi]
			if ob.Label != tb.Label {
				report("CF001", of.Name, ob.Label, "block %d relabeled: %s → %s", bi, ob.Label, tb.Label)
				continue
			}
			oSucc := successorSet(of, bi, ob)
			tSucc := successorSet(tf, bi, tb)
			if !sameSet(oSucc, tSucc) {
				report("CF002", of.Name, ob.Label, "successors changed: {%s} → {%s}",
					setString(oSucc), setString(tSucc))
			}
			oCalls := callSequence(ob)
			tCalls := callSequence(tb)
			if strings.Join(oCalls, ",") != strings.Join(tCalls, ",") {
				report("CF003", of.Name, ob.Label, "call sequence changed: [%s] → [%s]",
					strings.Join(oCalls, " "), strings.Join(tCalls, " "))
			}
			if msg := compareComputation(ob, tb); msg != "" {
				report("CF004", of.Name, ob.Label, "%s", msg)
			}
		}
	}
	return diags, nil
}

// successorSet resolves a block's intraprocedural successor labels,
// understanding both the plain terminators and the Figure 4 long-branch
// forms the instrumentation substitutes for them.
func successorSet(f *ir.Function, bi int, b *ir.Block) map[string]bool {
	out := map[string]bool{}
	next := ""
	if bi+1 < len(f.Blocks) {
		next = f.Blocks[bi+1].Label
	}
	n := len(b.Instrs)
	if n == 0 {
		if next != "" {
			out[next] = true
		}
		return out
	}
	t := &b.Instrs[n-1]
	switch t.Op {
	case isa.B:
		out[t.Sym] = true
		if t.Cond != isa.AL && next != "" {
			out[next] = true
		}
	case isa.LDRLIT:
		if t.Rd == isa.PC {
			out[t.Sym] = true
		} else if next != "" {
			out[next] = true // data load in terminal position: falls through
		}
	case isa.BX:
		if t.Rm != isa.LR && n >= 4 {
			// Instrumented conditional: it; ldr<c> rS,=taken; ldr<c'> rS,=ft; bx rS.
			l2, l1, it := &b.Instrs[n-2], &b.Instrs[n-3], &b.Instrs[n-4]
			if it.Op == isa.IT && l1.Op == isa.LDRLIT && l2.Op == isa.LDRLIT &&
				l1.Rd == t.Rm && l2.Rd == t.Rm {
				out[l1.Sym] = true
				out[l2.Sym] = true
			}
		}
		// bx lr (return) and unrecognized indirect branches: no successors.
	case isa.POP:
		// pop {...,pc}: return, no successors.
		if t.RegList&(1<<isa.PC) == 0 && next != "" {
			out[next] = true
		}
	default:
		if next != "" {
			out[next] = true
		}
	}
	return out
}

// callSequence lists a block's callees in order, resolving the rewritten
// ldr rS,=callee; blx rS idiom back to a direct call.
func callSequence(b *ir.Block) []string {
	var out []string
	for i := range b.Instrs {
		in := &b.Instrs[i]
		switch in.Op {
		case isa.BL:
			out = append(out, in.Sym)
		case isa.BLX:
			if i > 0 && b.Instrs[i-1].Op == isa.LDRLIT &&
				b.Instrs[i-1].Rd == in.Rm && b.Instrs[i-1].Sym != "" {
				out = append(out, b.Instrs[i-1].Sym)
			} else {
				out = append(out, "<indirect>")
			}
		}
	}
	return out
}

// compareComputation checks that outside the rewritten control transfers
// the instruction streams are identical. It strips each block's terminator
// construct, then walks both streams, matching a bl against its rewritten
// ldr+blx pair. Returns "" when equivalent, else a description.
func compareComputation(ob, tb *ir.Block) string {
	oBody := stripTerminator(ob)
	tBody := stripTerminator(tb)

	oi, ti := 0, 0
	for oi < len(oBody) && ti < len(tBody) {
		o, t := oBody[oi], tBody[ti]
		if o == t {
			oi, ti = oi+1, ti+1
			continue
		}
		// bl f  ↔  ldr rS, =f; blx rS
		if o.Op == isa.BL && t.Op == isa.LDRLIT && ti+1 < len(tBody) {
			nx := tBody[ti+1]
			if nx.Op == isa.BLX && nx.Rm == t.Rd && t.Sym == o.Sym {
				oi, ti = oi+1, ti+2
				continue
			}
		}
		return fmt.Sprintf("computation diverges at original[%d] %q vs transformed[%d] %q",
			oi, o.String(), ti, t.String())
	}
	if oi != len(oBody) || ti != len(tBody) {
		return fmt.Sprintf("computation length diverges: %d original vs %d transformed instructions left",
			len(oBody)-oi, len(tBody)-ti)
	}
	return ""
}

// stripTerminator returns the block's instructions with the trailing
// control-transfer construct removed: a plain terminator, or the whole
// it/ldr/ldr/bx instrumentation tail.
func stripTerminator(b *ir.Block) []isa.Instr {
	n := len(b.Instrs)
	if n == 0 {
		return nil
	}
	t := &b.Instrs[n-1]
	switch t.Op {
	case isa.B:
		return b.Instrs[:n-1]
	case isa.LDRLIT:
		if t.Rd == isa.PC {
			return b.Instrs[:n-1]
		}
	case isa.BX:
		if t.Rm == isa.LR {
			return b.Instrs[:n-1]
		}
		if n >= 4 {
			l2, l1, it := &b.Instrs[n-2], &b.Instrs[n-3], &b.Instrs[n-4]
			if it.Op == isa.IT && l1.Op == isa.LDRLIT && l2.Op == isa.LDRLIT &&
				l1.Rd == t.Rm && l2.Rd == t.Rm {
				return b.Instrs[:n-4]
			}
		}
		return b.Instrs[:n-1]
	case isa.POP:
		if t.RegList&(1<<isa.PC) != 0 {
			return b.Instrs[:n-1]
		}
	}
	return b.Instrs
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func setString(s map[string]bool) string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}
