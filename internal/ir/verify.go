package ir

import (
	"fmt"

	"repro/internal/isa"
)

// Verify checks structural invariants of a program:
//
//   - every instruction's (op, form, predicated) triple is in the
//     modeled instruction set (isa.OpForms)
//   - every block label is unique program-wide
//   - every branch target (b, ldr pc,=label, conditional ldr =label used
//     by instrumentation) resolves to a block label; every bl target
//     resolves to a function; every ldr =sym data reference resolves to a
//     global, function or block
//   - blocks referenced by literal loads carry fresh Reindex back-pointers,
//     and predicated (instrumentation) literals stay within their function
//   - control-transfer instructions appear only as block terminators
//   - a block that can fall through has a following block
//   - the entry function exists and is non-empty
//
// It returns the first violation found, or nil.
func Verify(p *Program) error {
	if p.Entry == "" {
		return fmt.Errorf("ir: program has no entry name")
	}
	entry := p.Func(p.Entry)
	if entry == nil {
		return fmt.Errorf("ir: entry function %q not defined", p.Entry)
	}
	if len(entry.Blocks) == 0 {
		return fmt.Errorf("ir: entry function %q has no blocks", p.Entry)
	}

	labels := make(map[string]*Block)
	funcs := make(map[string]*Function)
	globals := make(map[string]*Global)
	for _, f := range p.Funcs {
		if _, dup := funcs[f.Name]; dup {
			return fmt.Errorf("ir: duplicate function %q", f.Name)
		}
		funcs[f.Name] = f
		for _, b := range f.Blocks {
			if _, dup := labels[b.Label]; dup {
				return fmt.Errorf("ir: duplicate block label %q", b.Label)
			}
			labels[b.Label] = b
		}
	}
	for _, g := range p.Globals {
		if _, dup := globals[g.Name]; dup {
			return fmt.Errorf("ir: duplicate global %q", g.Name)
		}
		if g.Size <= 0 {
			return fmt.Errorf("ir: global %q has non-positive size %d", g.Name, g.Size)
		}
		if len(g.Init) > g.Size {
			return fmt.Errorf("ir: global %q init (%d bytes) exceeds size %d",
				g.Name, len(g.Init), g.Size)
		}
		globals[g.Name] = g
	}

	symExists := func(sym string) bool {
		if _, ok := labels[sym]; ok {
			return true
		}
		if _, ok := funcs[sym]; ok {
			return true
		}
		_, ok := globals[sym]
		return ok
	}

	for _, f := range p.Funcs {
		for bi, b := range f.Blocks {
			if b.Func != f || b.Index != bi {
				return fmt.Errorf("ir: block %q has stale back-pointers (call Reindex)", b.Label)
			}
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				last := ii == len(b.Instrs)-1
				if !isa.Emitted(in) {
					return fmt.Errorf("ir: %s/%s: %q is outside the modeled instruction set (%v, %v form, predicated %v)",
						f.Name, b.Label, in.String(), in.Op, isa.FormOf(in), in.Cond != isa.AL)
				}
				switch in.Op {
				case isa.B:
					if !last {
						return fmt.Errorf("ir: %s/%s: branch %q not at block end",
							f.Name, b.Label, in.String())
					}
					tgt, ok := labels[in.Sym]
					if !ok {
						return fmt.Errorf("ir: %s/%s: branch to unknown label %q",
							f.Name, b.Label, in.Sym)
					}
					if tgt.Func != f {
						return fmt.Errorf("ir: %s/%s: branch crosses into function %s",
							f.Name, b.Label, tgt.Func.Name)
					}
				case isa.BL:
					if _, ok := funcs[in.Sym]; !ok {
						return fmt.Errorf("ir: %s/%s: call to unknown function %q",
							f.Name, b.Label, in.Sym)
					}
				case isa.BX:
					// bx through a register; the only structural rule is
					// that it terminates its block.
					if !last {
						return fmt.Errorf("ir: %s/%s: bx not at block end", f.Name, b.Label)
					}
				case isa.LDRLIT:
					if in.Rd == isa.PC {
						if !last {
							return fmt.Errorf("ir: %s/%s: ldr pc not at block end",
								f.Name, b.Label)
						}
						tgt, ok := labels[in.Sym]
						if !ok {
							return fmt.Errorf("ir: %s/%s: ldr pc to unknown label %q",
								f.Name, b.Label, in.Sym)
						}
						if tgt.Func != f {
							return fmt.Errorf("ir: %s/%s: ldr pc crosses into function %s",
								f.Name, b.Label, tgt.Func.Name)
						}
					} else if !in.HasImm {
						if !symExists(in.Sym) {
							return fmt.Errorf("ir: %s/%s: ldr =%s references unknown symbol",
								f.Name, b.Label, in.Sym)
						}
						// Instrumentation literals resolve through the
						// target's back-pointers at layout time; a stale
						// clone would silently address the wrong block.
						if tgt, ok := labels[in.Sym]; ok {
							if tgt.Func == nil || tgt.Index >= len(tgt.Func.Blocks) ||
								tgt.Func.Blocks[tgt.Index] != tgt {
								return fmt.Errorf("ir: %s/%s: ldr =%s references block with stale back-pointers (call Reindex)",
									f.Name, b.Label, in.Sym)
							}
							if in.Cond != isa.AL && tgt.Func != f {
								return fmt.Errorf("ir: %s/%s: predicated ldr =%s targets a block of function %s",
									f.Name, b.Label, in.Sym, tgt.Func.Name)
							}
						}
					}
				case isa.POP:
					if in.RegList&(1<<isa.PC) != 0 && !last {
						return fmt.Errorf("ir: %s/%s: pop {..,pc} not at block end",
							f.Name, b.Label)
					}
				}
			}
			if b.FallsThrough() && bi == len(f.Blocks)-1 {
				return fmt.Errorf("ir: %s/%s: final block falls off the function",
					f.Name, b.Label)
			}
		}
	}
	return nil
}

// MustVerify panics on a verification failure; for use in tests and
// generators whose inputs are supposed to be well-formed by construction.
func MustVerify(p *Program) {
	if err := Verify(p); err != nil {
		panic(err)
	}
}
