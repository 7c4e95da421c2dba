// Package isa defines the subset of the ARMv7-M Thumb-2 instruction set
// used throughout the reproduction: opcodes, condition codes, operand
// shapes, encoding sizes (16- or 32-bit) and execution outcomes. The
// cycles an instruction costs in each outcome are power.Cycles.
//
// The subset is exactly what the system's producers emit: the mini-C
// compiler (with the soft-float runtime it compiles), the long-range
// indirect-branch idioms the flash/RAM instrumentation inserts (Figure 4
// of the paper: ldr pc, =label and it/ldr/ldr/bx sequences) and the
// hand-built Figure 1 and Figure 2 programs. OpForms lists its (op, form,
// predicated) triples; a producer-set test compiles and transforms every
// benchmark and kernel source to pin that the list is neither wider nor
// narrower than what they emit.
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

// Outcome is how one execution of an instruction went; with its fetch and
// data memories it selects the instruction's cost (power.Cycles).
type Outcome uint8

// Execution outcomes.
const (
	Executed        Outcome = iota // it ran; a conditional b was taken
	NotTaken                       // a conditional b fell through
	PredicateFailed                // an IT-predicated instruction was skipped
)

// Alternative returns the outcome in takes when its condition fails: a
// conditional b falls through, an IT-predicated instruction is skipped.
// ok is false when in always executes (an it itself included).
func Alternative(in *Instr) (o Outcome, ok bool) {
	switch {
	case in.Cond == AL || in.Op == IT:
		return Executed, false
	case in.Op == B:
		return NotTaken, true
	}
	return PredicateFailed, true
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
	SUB  // sub rd, rn, rm / sub rd, rn, #imm
	RSB  // rsb rd, rn, #imm (reverse subtract: rd = imm - rn)
	MUL  // mul rd, rn, rm
	SDIV // signed divide
	UDIV // unsigned divide
	AND  // bitwise and
	ORR  // bitwise or
	EOR  // bitwise xor
	LSL  // logical shift left
	LSR  // logical shift right
	ASR  // arithmetic shift right
	SXTB // sign extend byte
	SXTH // sign extend halfword
	UXTB // zero extend byte
	UXTH // zero extend halfword

	// Comparison (set flags only).
	CMP // compare rn, op2

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
	PUSH   // push {reglist}
	POP    // pop {reglist}

	// IT block marker: predicates the following instructions. We model
	// only the forms the producers emit — it<c> over one mov<c>, and
	// it<c>e over the instrumentation's ldr<c>/ldr<c'> pair; the simulator
	// honours per-instruction Cond fields and charges the IT's cycle.
	IT

	// Control flow.
	B   // b{cond} label
	BL  // bl label (direct call)
	BLX // blx rm  (indirect call)
	BX  // bx rm   (indirect branch; bx lr = return)

	numOps
)

var opNames = [...]string{
	NOP: "nop", MOV: "mov", MVN: "mvn", ADD: "add", SUB: "sub", RSB: "rsb",
	MUL: "mul", SDIV: "sdiv", UDIV: "udiv", AND: "and", ORR: "orr",
	EOR: "eor", LSL: "lsl", LSR: "lsr", ASR: "asr", SXTB: "sxtb",
	SXTH: "sxth", UXTB: "uxtb", UXTH: "uxth", CMP: "cmp", LDR: "ldr",
	LDRB: "ldrb", LDRH: "ldrh", LDRSB: "ldrsb", LDRSH: "ldrsh", STR: "str",
	STRB: "strb", STRH: "strh", LDRLIT: "ldr", PUSH: "push", POP: "pop",
	IT: "it", B: "b", BL: "bl", BLX: "blx", BX: "bx",
}

// String returns the base mnemonic (without condition suffix).
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Form is the shape of an instruction's operands: what its last operand
// is.
type Form uint8

// Operand forms.
const (
	FormReg Form = iota // registers or none: add rd, rn, rm; bx rm; push {...}; nop
	FormImm             // an immediate: add rd, rn, #imm; ldr rd, [rn, #imm]; ldr rd, =const
	FormSym             // a symbol: b label; bl fn; ldr rd, =sym
	numForms
)

var formNames = [...]string{FormReg: "reg", FormImm: "imm", FormSym: "sym"}

// String returns the form name used in diagnostics.
func (f Form) String() string {
	if int(f) < len(formNames) {
		return formNames[f]
	}
	return fmt.Sprintf("form(%d)", uint8(f))
}

// FormOf returns the operand form of in. A load or store is FormImm: its
// one addressing mode is [rn, #imm].
func FormOf(in *Instr) Form {
	switch {
	case in.HasImm || in.Mode == AddrOffset:
		return FormImm
	case in.Sym != "":
		return FormSym
	}
	return FormReg
}

// OpForm is one (op, form, predicated) triple of the modeled instruction
// set. Pred is whether the instruction carries a condition other than AL.
type OpForm struct {
	Op   Op
	Form Form
	Pred bool
}

// Form bits of the emitted table: a predicated form's bit sits numForms
// above its unpredicated one.
const (
	regF = 1 << FormReg
	immF = 1 << FormImm
	symF = 1 << FormSym
	regP = regF << numForms
	immP = immF << numForms
	symP = symF << numForms
)

// emitted is the modeled instruction set: per op, the forms some producer
// emits, unpredicated and predicated — mcc's code generator (and the
// soft-float runtime it compiles), the Figure 4 transform, the Figure 1
// micro-programs and Figure 2's hand-built program. Only four forms take a
// condition: b<c> label, mcc's it<c>; mov<c> rd, #1 for a comparison used
// as a value, and the transform's it<c>e; ldr<c> rS, =l; ldr<c'> rS, =l'.
// ir.Verify rejects everything else, so a new producer adds its form here
// together with the simulator, encoder and tests that cover it.
var emitted = [numOps]uint8{
	NOP: regF, IT: regP,
	MOV: regF | immF | immP, MVN: regF, SXTB: regF, SXTH: regF, UXTB: regF, UXTH: regF,
	ADD: regF | immF, SUB: regF | immF, RSB: immF,
	MUL: regF, SDIV: regF, UDIV: regF,
	AND: regF, ORR: regF, EOR: regF, LSL: regF, LSR: regF, ASR: regF,
	CMP: regF | immF,
	LDR: immF, LDRB: immF, LDRH: immF, LDRSB: immF, LDRSH: immF,
	STR: immF, STRB: immF, STRH: immF,
	LDRLIT: immF | symF | symP, PUSH: regF, POP: regF,
	B: symF | symP, BL: symF, BLX: regF, BX: regF,
}

// Emitted reports whether in is in the modeled instruction set: its
// (op, form, predicated) triple is in the table, a predicated ldr =sym
// does not load pc, and an it's mask is "" or "e".
func Emitted(in *Instr) bool {
	if in.Op >= numOps {
		return false
	}
	bit := FormOf(in)
	if in.Cond != AL {
		if in.Op == LDRLIT && in.Rd == PC {
			return false
		}
		bit += numForms
	}
	if in.Op == IT && in.ITMask != "" && in.ITMask != "e" {
		return false
	}
	return emitted[in.Op]&(1<<bit) != 0
}

// OpForms lists the modeled instruction set's (op, form, predicated)
// triples in op order, unpredicated before predicated.
func OpForms() []OpForm {
	var out []OpForm
	for op := range numOps {
		for bit := range 2 * numForms {
			if emitted[op]&(1<<bit) != 0 {
				out = append(out, OpForm{op, bit % numForms, bit >= numForms})
			}
		}
	}
	return out
}

// IsBranch reports whether the operation redirects control flow.
func (o Op) IsBranch() bool {
	switch o {
	case B, BL, BLX, BX:
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
	ClassMul                 // mul/div
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
	case o == MUL || o == SDIV || o == UDIV:
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
