package bounds

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/power"
)

// blockCost brackets one execution of the block labelled like b in the
// placed image, plus the full cost of everything it calls. b is the
// pristine block (structure); the charged instructions are the placed
// block's, which may carry Figure 4 instrumentation.
func (c *computer) blockCost(b *ir.Block) (Interval, error) {
	pl, ok := c.img.PlacedBlock(b.Label)
	if !ok {
		return Interval{}, fmt.Errorf("bounds: block %q not in image", b.Label)
	}
	fetchMem := power.Flash
	if pl.InRAM {
		fetchMem = power.RAM
	}
	iv := Exact(0, 0)
	for i := range pl.Block.Instrs {
		iv = iv.Plus(c.instrCost(pl, i, fetchMem))
	}

	// Calls compose from the pristine block: the transformer rewrites a
	// crossing bl into ldr+blx of the same symbol (CF003 guarantees the
	// sequence), so the original stream is the reliable call list, while
	// the rewritten stream above already charged the extra transfer cost.
	var lastLit string
	lastLitReg := isa.NoReg
	for ii := range b.Instrs {
		in := &b.Instrs[ii]
		switch in.Op {
		case isa.LDRLIT:
			if in.Sym != "" && in.Rd != isa.PC {
				lastLit, lastLitReg = in.Sym, in.Rd
				continue
			}
		case isa.BL:
			callee, err := c.function(in.Sym)
			if err != nil {
				return Interval{}, err
			}
			iv = iv.Plus(callee)
		case isa.BLX:
			// Resolve the `ldr rX, =f; blx rX` idiom the same way the
			// stack analysis does; an unresolvable target could reach
			// anything, including recursion into the caller.
			if lastLitReg == in.Rm && lastLit != "" && c.prog.Func(lastLit) != nil {
				callee, err := c.function(lastLit)
				if err != nil {
					return Interval{}, err
				}
				iv = iv.Plus(callee)
			} else {
				iv = iv.Plus(Unbounded(fmt.Sprintf("unresolved indirect call in %s", b.Label)))
			}
		}
		for _, d := range in.Defs() {
			if d == lastLitReg {
				lastLit, lastLitReg = "", isa.NoReg
			}
		}
	}
	return iv, nil
}

// instrCost brackets one placed instruction over the data memories and
// outcomes the static analysis cannot decide, each priced as the
// simulator prices it: power.Cycles at the per-cycle energy of
// InstrPower(fetch, class, data).
func (c *computer) instrCost(pl *layout.Placed, i int, fetchMem power.Memory) Interval {
	in := &pl.Block.Instrs[i]
	price := func(dm power.Memory, o isa.Outcome) Interval {
		cy := float64(power.Cycles(in, fetchMem, dm, o))
		return Exact(cy, cy*c.prof.EnergyPerCycle(c.prof.InstrPower(fetchMem, isa.ClassOf(in.Op), dm)))
	}
	iv := price(c.img.DataMem(pl, i), isa.Executed)
	if in.Op.IsLoad() && in.Mode == isa.AddrOffset && in.Rn != isa.SP {
		// A load through a register other than sp may read flash instead.
		iv = iv.Union(price(power.Flash, isa.Executed))
	}
	// A conditional b that falls through, or a failed predicate, has no
	// data access.
	if o, ok := isa.Alternative(in); ok {
		iv = iv.Union(price(power.None, o))
	}
	return iv
}
