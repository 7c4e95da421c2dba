package power

import (
	"math/bits"

	"repro/internal/isa"
)

// Cycle timing for a Cortex-M3-class core (three-stage pipeline, single
// cycle flash and RAM at value-line clock rates).
//
// The constants are chosen to make the Figure 4 instrumentation sequences
// cost exactly what the paper prints:
//
//	ldr pc, =label                      4 cycles, 4 bytes
//	it cc; ldrcc r5,=a; ldrcc' r5,=b;
//	bx r5                               7 cycles, 8 bytes
//
// (load-to-PC = 2-cycle load + 2-cycle pipeline refill; a predicated
// instruction whose condition fails still costs 1 cycle; bx = 1 + 2.)
const (
	// BranchRefillCycles is the pipeline refill penalty paid by every
	// taken control-flow change.
	BranchRefillCycles = 2
	// LoadCycles is the base cost of a load (address + data phase).
	LoadCycles = 2
	// StoreCycles is the base cost of a store.
	StoreCycles = 2
	// DivCycles approximates SDIV/UDIV (2-12 data dependent on the M3).
	DivCycles = 6
	// RAMContentionStall is the extra stall per load executed while
	// fetching from RAM with the load also targeting RAM (single RAM
	// port; this is the paper's Lb effect).
	RAMContentionStall = 1
)

// Cycles is the board's timing: the cycles one execution of in costs when
// fetched from fetch, with its data access (if any) hitting data, in
// outcome o. A conditional b that falls through and an instruction whose
// IT predicate fails cost one issue cycle. A load fetched from RAM that
// reads RAM stalls on the single RAM port. The model, the Figure 4
// rewrite, the energy bounds and the simulator all price instructions
// here.
func Cycles(in *isa.Instr, fetch, data Memory, o isa.Outcome) int {
	if o != isa.Executed {
		return 1
	}
	c := 1
	switch in.Op {
	case isa.SDIV, isa.UDIV:
		c = DivCycles
	case isa.LDR, isa.LDRB, isa.LDRH, isa.LDRSB, isa.LDRSH, isa.LDRLIT:
		c = LoadCycles
	case isa.STR, isa.STRB, isa.STRH:
		c = StoreCycles
	case isa.PUSH, isa.POP:
		c = 1 + bits.OnesCount16(in.RegList)
	case isa.B, isa.BX:
		c = 1 + BranchRefillCycles
	case isa.BL, isa.BLX:
		c = 1 + BranchRefillCycles + 1 // extra cycle for the LR write
	}
	if in.Op == isa.LDRLIT && in.Rd == isa.PC || in.Op == isa.POP && in.RegList&(1<<isa.PC) != 0 {
		c += BranchRefillCycles // a load into pc refills the pipeline
	}
	if in.Op.IsLoad() && fetch == RAM && data == RAM {
		c += RAMContentionStall
	}
	return c
}
