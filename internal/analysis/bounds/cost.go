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

// instrCost brackets one placed instruction over every outcome the static
// analysis cannot decide, mirroring the simulator's charging exactly:
// cycles from isa.Cycles/CyclesNotTaken plus the RAM contention stall,
// energy as cycles × EnergyPerCycle(InstrPower(fetch, class, data)) — the
// same expression the predecoder builds its per-slot tables from.
func (c *computer) instrCost(pl *layout.Placed, i int, fetchMem power.Memory) Interval {
	in := &pl.Block.Instrs[i]
	cl := isa.ClassOf(in.Op)
	charge := func(cycles int, dm power.Memory) Interval {
		cy := float64(cycles)
		return Exact(cy, cy*c.prof.EnergyPerCycle(c.prof.InstrPower(fetchMem, cl, dm)))
	}
	// chargeLoad adds the single-port contention stall the simulator adds:
	// RAM-fetched code loading RAM data.
	chargeLoad := func(cycles int, dm power.Memory) Interval {
		if fetchMem == power.RAM && dm == power.RAM {
			cycles += isa.RAMContentionStall
		}
		return charge(cycles, dm)
	}

	cy := isa.Cycles(in)
	var iv Interval
	switch in.Op {
	case isa.B:
		if in.Cond == isa.AL {
			iv = charge(cy, power.None)
		} else {
			iv = charge(cy, power.None).Union(charge(isa.CyclesNotTaken(in), power.None))
		}
	case isa.LDR, isa.LDRB, isa.LDRH, isa.LDRSB, isa.LDRSH:
		if in.Mode == isa.AddrOffset && in.Rn == isa.SP {
			// Stack access: the stack lives in RAM by construction.
			iv = chargeLoad(cy, power.RAM)
		} else {
			iv = chargeLoad(cy, power.Flash).Union(chargeLoad(cy, power.RAM))
		}
	case isa.LDRLIT:
		iv = chargeLoad(cy, c.litMem(pl, i, fetchMem))
	case isa.STR, isa.STRB, isa.STRH, isa.PUSH:
		// Data stores always hit RAM (flash writes fault); plain charge,
		// no contention stall — the store buffers.
		iv = charge(cy, power.RAM)
	case isa.POP:
		iv = chargeLoad(cy, power.RAM)
	default:
		iv = charge(cy, power.None)
	}

	// A predicated instruction whose condition fails still costs its
	// not-taken cycles at no-data power (conditional b handles its own
	// two outcomes above).
	if in.Cond != isa.AL && in.Op != isa.B {
		iv = iv.Union(charge(isa.CyclesNotTaken(in), power.None))
	}
	return iv
}

// litMem resolves where a literal load's pool word lives: with its block
// unless the laid-out slot address resolves elsewhere — the predecoder's
// rule, verbatim.
func (c *computer) litMem(pl *layout.Placed, i int, fetchMem power.Memory) power.Memory {
	lm := fetchMem
	if la := pl.LitAddrs[i]; la != 0 {
		if mm, ok := c.img.MemoryOf(la); ok {
			lm = mm
		}
	}
	return lm
}
