// Package isa defines the subset of the ARMv7-M Thumb-2 instruction set
// used throughout the reproduction: opcodes, condition codes, operand
// shapes, encoding sizes (16- or 32-bit) and base cycle timings for a
// Cortex-M3-class three-stage pipeline.
//
// The subset covers everything the mini-C compiler emits plus the
// long-range indirect-branch idioms the flash/RAM instrumentation inserts
// (Figure 4 of the paper): ldr pc, =label and it/ldr/ldr/bx sequences.
package isa

import "fmt"

// Reg is a machine register number. R0-R12 are general purpose; SP, LR and
// PC have their architectural roles.
type Reg uint8

// Architectural registers.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	SP // R13
	LR // R14
	PC // R15
)

// NoReg marks an unused register operand slot.
const NoReg Reg = 0xFF

// NumRegs is the number of architectural registers (R0..PC).
const NumRegs = 16

// String returns the conventional assembly name of the register.
func (r Reg) String() string {
	switch r {
	case SP:
		return "sp"
	case LR:
		return "lr"
	case PC:
		return "pc"
	case NoReg:
		return "<none>"
	default:
		return fmt.Sprintf("r%d", uint8(r))
	}
}

// IsLow reports whether the register is addressable by most 16-bit Thumb
// encodings (r0-r7).
func (r Reg) IsLow() bool { return r <= R7 }

// Cond is an ARM condition code. AL (always) is the default for
// unconditional execution.
type Cond uint8

// Condition codes. AL is zero so the zero-value Instr executes
// unconditionally; the remaining codes keep the ARM pairing so Invert can
// flip the low bit.
const (
	AL Cond = 0  // always
	EQ Cond = 2  // Z set
	NE Cond = 3  // Z clear
	CS Cond = 4  // C set (HS)
	CC Cond = 5  // C clear (LO)
	MI Cond = 6  // N set
	PL Cond = 7  // N clear
	VS Cond = 8  // V set
	VC Cond = 9  // V clear
	HI Cond = 10 // C set and Z clear
	LS Cond = 11 // C clear or Z set
	GE Cond = 12 // N == V
	LT Cond = 13 // N != V
	GT Cond = 14 // Z clear and N == V
	LE Cond = 15 // Z set or N != V
)

var condNames = [...]string{
	AL: "",
	EQ: "eq", NE: "ne", CS: "cs", CC: "cc", MI: "mi", PL: "pl",
	VS: "vs", VC: "vc", HI: "hi", LS: "ls", GE: "ge", LT: "lt",
	GT: "gt", LE: "le",
}

// String returns the assembly suffix for the condition ("" for AL).
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// Invert returns the logical negation of the condition. Inverting AL is a
// programming error and panics.
func (c Cond) Invert() Cond {
	if c == AL {
		panic("isa: cannot invert AL condition")
	}
	return c ^ 1
}

// Holds reports whether the condition is satisfied by the given flags.
func (c Cond) Holds(n, z, cf, v bool) bool {
	switch c {
	case EQ:
		return z
	case NE:
		return !z
	case CS:
		return cf
	case CC:
		return !cf
	case MI:
		return n
	case PL:
		return !n
	case VS:
		return v
	case VC:
		return !v
	case HI:
		return cf && !z
	case LS:
		return !cf || z
	case GE:
		return n == v
	case LT:
		return n != v
	case GT:
		return !z && n == v
	case LE:
		return z || n != v
	case AL:
		return true
	}
	panic(fmt.Sprintf("isa: unknown condition %d", uint8(c)))
}

// Op is an operation mnemonic.
type Op uint8

// Operation mnemonics. Terminator-capable operations (branches) are grouped
// at the end; see IsBranch.
const (
	NOP Op = iota

	// Data processing.
	MOV  // mov rd, rm / mov rd, #imm
	MVN  // mvn rd, rm
	ADD  // add rd, rn, rm / add rd, rn, #imm
	ADC  // add with carry
	SUB  // sub rd, rn, rm / sub rd, rn, #imm
	SBC  // subtract with carry
	RSB  // reverse subtract (rd = op2 - rn)
	MUL  // mul rd, rn, rm
	MLA  // multiply accumulate rd = ra + rn*rm
	SDIV // signed divide
	UDIV // unsigned divide
	AND  // bitwise and
	ORR  // bitwise or
	EOR  // bitwise xor
	BIC  // bit clear
	LSL  // logical shift left
	LSR  // logical shift right
	ASR  // arithmetic shift right
	ROR  // rotate right
	SXTB // sign extend byte
	SXTH // sign extend halfword
	UXTB // zero extend byte
	UXTH // zero extend halfword
	CLZ  // count leading zeros

	// Comparison (set flags only).
	CMP // compare rn, op2
	CMN // compare negative
	TST // test bits

	// Memory.
	LDR    // load word
	LDRB   // load byte (zero extend)
	LDRH   // load halfword (zero extend)
	LDRSB  // load signed byte
	LDRSH  // load signed halfword
	STR    // store word
	STRB   // store byte
	STRH   // store halfword
	LDRLIT // ldr rd, =sym  (literal-pool load of an address or constant)
	ADR    // adr rd, label (PC-relative address; flash only, short range)
	PUSH   // push {reglist}
	POP    // pop {reglist}

	// IT block marker: predicates the following 1-4 instructions. We model
	// only the single-instruction and two-instruction (then/else) forms the
	// instrumentation needs; the simulator honours per-instruction Cond
	// fields and charges the IT's cycle.
	IT

	// Control flow.
	B    // b{cond} label
	CBZ  // cbz rn, label (forward only, short range)
	CBNZ // cbnz rn, label
	BL   // bl label (direct call)
	BLX  // blx rm  (indirect call)
	BX   // bx rm   (indirect branch; bx lr = return)

	numOps
)

var opNames = [...]string{
	NOP: "nop", MOV: "mov", MVN: "mvn", ADD: "add", ADC: "adc", SUB: "sub",
	SBC: "sbc", RSB: "rsb", MUL: "mul", MLA: "mla", SDIV: "sdiv",
	UDIV: "udiv", AND: "and", ORR: "orr", EOR: "eor", BIC: "bic",
	LSL: "lsl", LSR: "lsr", ASR: "asr", ROR: "ror", SXTB: "sxtb",
	SXTH: "sxth", UXTB: "uxtb", UXTH: "uxth", CLZ: "clz", CMP: "cmp",
	CMN: "cmn", TST: "tst", LDR: "ldr", LDRB: "ldrb", LDRH: "ldrh",
	LDRSB: "ldrsb", LDRSH: "ldrsh", STR: "str", STRB: "strb", STRH: "strh",
	LDRLIT: "ldr", ADR: "adr", PUSH: "push", POP: "pop", IT: "it",
	B: "b", CBZ: "cbz", CBNZ: "cbnz", BL: "bl", BLX: "blx", BX: "bx",
}

// String returns the base mnemonic (without condition suffix).
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsBranch reports whether the operation redirects control flow.
func (o Op) IsBranch() bool {
	switch o {
	case B, CBZ, CBNZ, BL, BLX, BX:
		return true
	}
	return false
}

// IsLoad reports whether the operation reads data memory.
func (o Op) IsLoad() bool {
	switch o {
	case LDR, LDRB, LDRH, LDRSB, LDRSH, LDRLIT, POP:
		return true
	}
	return false
}

// IsStore reports whether the operation writes data memory.
func (o Op) IsStore() bool {
	switch o {
	case STR, STRB, STRH, PUSH:
		return true
	}
	return false
}

// Class buckets instructions by the power they draw per cycle; this is the
// granularity of Figure 1 of the paper.
type Class uint8

// Power classes.
const (
	ClassALU    Class = iota // mov/add/cmp/shift/...
	ClassNOP                 // nop, it
	ClassLoad                // memory reads
	ClassStore               // memory writes
	ClassMul                 // mul/mla/div
	ClassBranch              // control flow
	NumClasses
)

var classNames = [...]string{
	ClassALU: "alu", ClassNOP: "nop", ClassLoad: "load",
	ClassStore: "store", ClassMul: "mul", ClassBranch: "branch",
}

// String returns the class name used in reports.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ClassOf returns the power class of an operation.
func ClassOf(o Op) Class {
	switch {
	case o == NOP || o == IT:
		return ClassNOP
	case o == MUL || o == MLA || o == SDIV || o == UDIV:
		return ClassMul
	case o.IsBranch():
		return ClassBranch
	case o.IsLoad():
		return ClassLoad
	case o.IsStore():
		return ClassStore
	default:
		return ClassALU
	}
}
