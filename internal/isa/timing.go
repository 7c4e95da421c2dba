package isa

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

// Cycles returns the base execution cost of the instruction in cycles,
// assuming its condition passes and, for conditional branches, that the
// branch is taken. Memory-system stalls (RAMContentionStall) are added by
// the simulator and by the model's Lb term, not here.
func Cycles(in *Instr) int {
	switch in.Op {
	case NOP, IT:
		return 1
	case MUL:
		return 1
	case SDIV, UDIV:
		return DivCycles
	case LDR, LDRB, LDRH, LDRSB, LDRSH:
		return LoadCycles
	case LDRLIT:
		if in.Rd == PC {
			return LoadCycles + BranchRefillCycles
		}
		return LoadCycles
	case STR, STRB, STRH:
		return StoreCycles
	case PUSH, POP:
		n := 0
		for r := Reg(0); r < NumRegs; r++ {
			if in.RegList&(1<<r) != 0 {
				n++
			}
		}
		c := 1 + n
		if in.Op == POP && in.RegList&(1<<PC) != 0 {
			c += BranchRefillCycles
		}
		return c
	case B:
		return 1 + BranchRefillCycles
	case BL:
		return 1 + BranchRefillCycles + 1 // extra cycle for LR write
	case BLX:
		return 1 + BranchRefillCycles + 1
	case BX:
		return 1 + BranchRefillCycles
	default:
		return 1
	}
}

// CyclesNotTaken returns the cost when a conditional branch falls through
// or a predicated instruction's condition fails: one issue cycle.
func CyclesNotTaken(in *Instr) int {
	return 1
}
