package isa

import (
	"fmt"
	"strings"
)

// AddrMode selects the addressing mode of a memory instruction.
type AddrMode uint8

// Addressing modes.
const (
	AddrNone   AddrMode = iota
	AddrOffset          // [rn, #imm]
)

// Instr is one machine instruction. The zero value is a NOP.
//
// Operand use by shape:
//
//	data processing:  Rd, Rn, Rm or Imm (HasImm)
//	compare:          Rn, Rm or Imm
//	memory:           Rd (data), Rn (base), Imm (offset)
//	ldr rd, =sym:     Rd, Sym (address of symbol) or Imm (constant)
//	push/pop:         RegList bitmask
//	b{cond}:          Sym (target label), Cond
//	bl:               Sym (callee)
//	blx/bx:           Rm
//	it:               Cond (condition of the then-clause), ITMask
type Instr struct {
	Op   Op
	Cond Cond // execution condition (AL unless inside an IT block, or B)

	Rd Reg
	Rn Reg
	Rm Reg

	Imm    int32
	HasImm bool // Imm is a valid immediate operand

	Sym string // symbol operand: branch target label or literal symbol

	Mode    AddrMode
	RegList uint16 // push/pop register bitmask (bit i = Ri)

	ITMask string // for IT: "" (it, then only) or "e" (ite, then and else)
}

// NewInstr returns an instruction with sensible zero operands.
func NewInstr(op Op) Instr {
	return Instr{Op: op, Cond: AL, Rd: NoReg, Rn: NoReg, Rm: NoReg}
}

// Uses reports the registers read by the instruction (excluding PC fetch).
func (in *Instr) Uses() []Reg {
	var u []Reg
	add := func(r Reg) {
		if r != NoReg {
			u = append(u, r)
		}
	}
	// addRm adds the register operand only when the instruction actually
	// has one (immediate forms leave Rm at its zero value, which is R0).
	addRm := func() {
		if !in.HasImm {
			add(in.Rm)
		}
	}
	switch in.Op {
	case NOP, IT, B, BL, LDRLIT:
	case MOV, MVN, SXTB, SXTH, UXTB, UXTH:
		addRm()
	case CMP:
		add(in.Rn)
		addRm()
	case LDR, LDRB, LDRH, LDRSB, LDRSH:
		add(in.Rn)
	case STR, STRB, STRH:
		add(in.Rd)
		add(in.Rn)
	case PUSH:
		add(SP)
		for r := Reg(0); r < NumRegs; r++ {
			if in.RegList&(1<<r) != 0 {
				add(r)
			}
		}
	case POP:
		add(SP)
	case BLX, BX:
		add(in.Rm)
	default:
		add(in.Rn)
		addRm()
	}
	return u
}

// Defs reports the registers written by the instruction.
func (in *Instr) Defs() []Reg {
	var d []Reg
	switch in.Op {
	case NOP, IT, CMP, B, BX:
	case STR, STRB, STRH:
	case PUSH:
		d = append(d, SP)
	case POP:
		d = append(d, SP)
		for r := Reg(0); r < NumRegs; r++ {
			if in.RegList&(1<<r) != 0 {
				d = append(d, r)
			}
		}
	case BL, BLX:
		d = append(d, LR, R0, R1, R2, R3, R12) // caller-saved clobbers
	default:
		if in.Rd != NoReg {
			d = append(d, in.Rd)
		}
	}
	return d
}

// String renders the instruction in GNU-style assembly.
func (in *Instr) String() string {
	var b strings.Builder
	b.WriteString(in.Op.String())
	if in.Op == IT {
		b.WriteString(in.ITMask)
		b.WriteString(" ")
		b.WriteString(in.Cond.String())
		return b.String()
	}
	if in.Cond != AL {
		b.WriteString(in.Cond.String())
	}
	sp := func() { b.WriteString(" ") }
	switch in.Op {
	case NOP:
	case MOV, MVN, SXTB, SXTH, UXTB, UXTH:
		sp()
		fmt.Fprintf(&b, "%s, ", in.Rd)
		if in.HasImm {
			fmt.Fprintf(&b, "#%d", in.Imm)
		} else {
			b.WriteString(in.Rm.String())
		}
	case CMP:
		sp()
		fmt.Fprintf(&b, "%s, ", in.Rn)
		if in.HasImm {
			fmt.Fprintf(&b, "#%d", in.Imm)
		} else {
			b.WriteString(in.Rm.String())
		}
	case LDR, LDRB, LDRH, LDRSB, LDRSH, STR, STRB, STRH:
		sp()
		fmt.Fprintf(&b, "%s, ", in.Rd)
		switch in.Mode {
		case AddrOffset:
			if in.Imm == 0 {
				fmt.Fprintf(&b, "[%s]", in.Rn)
			} else {
				fmt.Fprintf(&b, "[%s, #%d]", in.Rn, in.Imm)
			}
		default:
			fmt.Fprintf(&b, "[%s]", in.Rn)
		}
	case LDRLIT:
		sp()
		if in.Sym != "" {
			fmt.Fprintf(&b, "%s, =%s", in.Rd, in.Sym)
		} else {
			fmt.Fprintf(&b, "%s, =%d", in.Rd, in.Imm)
		}
	case PUSH, POP:
		sp()
		b.WriteString("{")
		first := true
		for r := Reg(0); r < NumRegs; r++ {
			if in.RegList&(1<<r) != 0 {
				if !first {
					b.WriteString(", ")
				}
				b.WriteString(r.String())
				first = false
			}
		}
		b.WriteString("}")
	case B, BL:
		sp()
		b.WriteString(in.Sym)
	case BLX, BX:
		sp()
		b.WriteString(in.Rm.String())
	default:
		sp()
		fmt.Fprintf(&b, "%s, %s, ", in.Rd, in.Rn)
		if in.HasImm {
			fmt.Fprintf(&b, "#%d", in.Imm)
		} else {
			b.WriteString(in.Rm.String())
		}
	}
	return b.String()
}
