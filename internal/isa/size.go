package isa

// Size returns the encoding size of the instruction in bytes (2 for a
// 16-bit Thumb encoding, 4 for a 32-bit Thumb-2 encoding).
//
// The rules are the standard Thumb-2 narrow-encoding conditions,
// simplified to what this instruction subset can express. Branch
// instructions conservatively use the narrow encoding; the layout engine
// widens them when a target is out of narrow range (see internal/layout).
func Size(in *Instr) int {
	lowDN := in.Rd.IsLow() && in.Rn.IsLow()
	switch in.Op {
	case NOP, IT:
		return 2
	case MOV:
		if in.HasImm {
			if in.Rd.IsLow() && in.Imm >= 0 && in.Imm <= 255 {
				return 2
			}
			return 4
		}
		return 2 // register mov has a 16-bit any-register encoding
	case MVN, SXTB, SXTH, UXTB, UXTH:
		if in.Rd.IsLow() && in.Rm.IsLow() {
			return 2
		}
		return 4
	case SDIV, UDIV:
		return 4
	case RSB:
		if lowDN && in.Imm == 0 {
			return 2 // negs rd, rn
		}
		return 4
	case ADD, SUB:
		if in.HasImm {
			if lowDN && in.Imm >= 0 && in.Imm <= 7 {
				return 2
			}
			if in.Rd == in.Rn && in.Rd.IsLow() && in.Imm >= 0 && in.Imm <= 255 {
				return 2
			}
			if (in.Rd == SP || in.Rn == SP) && in.Imm >= 0 && in.Imm <= 508 && in.Imm%4 == 0 {
				return 2
			}
			return 4
		}
		if lowDN && in.Rm.IsLow() {
			return 2
		}
		return 4
	case MUL, AND, ORR, EOR, LSL, LSR, ASR:
		if lowDN && in.Rd == in.Rn && in.Rm.IsLow() {
			return 2
		}
		return 4
	case CMP:
		if in.HasImm {
			if in.Rn.IsLow() && in.Imm >= 0 && in.Imm <= 255 {
				return 2
			}
			return 4
		}
		return 2 // cmp rn, rm has a 16-bit any-register encoding
	case LDR, STR:
		return memSize(in, 124, 4)
	case LDRB, STRB:
		return memSize(in, 31, 1)
	case LDRH, STRH:
		return memSize(in, 62, 2)
	case LDRSB, LDRSH:
		return 4 // the only narrow forms take a register offset
	case LDRLIT:
		if in.Rd.IsLow() {
			return 2 // ldr rd, [pc, #imm8<<2]
		}
		return 4 // includes ldr pc, =label / ldr.w
	case PUSH:
		if in.RegList&^uint16(0x40FF) == 0 { // low regs + LR
			return 2
		}
		return 4
	case POP:
		if in.RegList&^uint16(0x80FF) == 0 { // low regs + PC
			return 2
		}
		return 4
	case B:
		return 2
	case BL:
		return 4
	case BLX, BX:
		return 2
	}
	return 2
}

// memSize applies the narrow-encoding rule for load/store: low registers
// and an immediate offset within maxImm and aligned to align.
func memSize(in *Instr, maxImm int32, align int32) int {
	if !in.Rd.IsLow() {
		return 4
	}
	if in.Rn == SP && (in.Op == LDR || in.Op == STR) &&
		in.Imm >= 0 && in.Imm <= 1020 && in.Imm%4 == 0 {
		return 2
	}
	if in.Rn.IsLow() && in.Imm >= 0 && in.Imm <= maxImm && in.Imm%align == 0 {
		return 2
	}
	return 4
}

// LiteralBytes returns the number of bytes the instruction contributes to
// the literal pool (a 32-bit word for each ldr =sym/=const).
func LiteralBytes(in *Instr) int {
	if in.Op == LDRLIT {
		return 4
	}
	return 0
}
