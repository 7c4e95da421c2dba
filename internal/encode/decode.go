package encode

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/layout"
)

// Decoded is one disassembled instruction: the structural fields recovered
// from the bit pattern. Symbolic information (label names) is gone; PC-
// relative operands are materialized as absolute Target addresses.
type Decoded struct {
	Op     isa.Op
	Cond   isa.Cond
	Rd     isa.Reg
	Rn     isa.Reg
	Rm     isa.Reg
	Imm    int32
	HasImm bool
	// Target is the absolute address of a branch destination or
	// literal-pool slot.
	Target  uint32
	RegList uint16
	Size    int
}

// Decode disassembles the instruction at data[0:], fetched from addr.
// It covers exactly the encodings the encoder emits.
func Decode(data []byte, addr uint32) (*Decoded, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("decode: truncated stream")
	}
	hw1 := uint16(data[0]) | uint16(data[1])<<8
	if isWidePrefix(hw1) {
		if len(data) < 4 {
			return nil, fmt.Errorf("decode: truncated 32-bit instruction")
		}
		hw2 := uint16(data[2]) | uint16(data[3])<<8
		return decodeWide(hw1, hw2, addr)
	}
	return decodeNarrow(hw1, addr)
}

// isWidePrefix reports whether hw1 begins a 32-bit Thumb-2 encoding.
func isWidePrefix(hw1 uint16) bool {
	top := hw1 >> 11
	return top == 0b11101 || top == 0b11110 || top == 0b11111
}

func reg(v uint16) isa.Reg { return isa.Reg(v & 15) }

func mk(op isa.Op, size int) *Decoded {
	return &Decoded{Op: op, Cond: isa.AL, Rd: isa.NoReg, Rn: isa.NoReg,
		Rm: isa.NoReg, Size: size}
}

func decodeNarrow(h uint16, addr uint32) (*Decoded, error) {
	switch {
	case h == 0xBF00:
		d := mk(isa.NOP, 2)
		return d, nil

	case h&0xFF00 == 0xBF00: // IT
		d := mk(isa.IT, 2)
		d.Cond = condFromBits(h >> 4 & 0xF)
		return d, nil

	case h&0xF800 == 0x2000: // MOVS rd, #imm8
		d := mk(isa.MOV, 2)
		d.Rd = reg(h >> 8 & 7)
		d.Imm = int32(h & 0xFF)
		d.HasImm = true
		return d, nil

	case h&0xFF00 == 0x4600: // MOV rd, rm (T1)
		d := mk(isa.MOV, 2)
		d.Rd = reg(h&7 | h>>4&8)
		d.Rm = reg(h >> 3 & 15)
		return d, nil

	case h&0xFE00 == 0x1800 || h&0xFE00 == 0x1A00: // ADDS/SUBS reg
		op := isa.ADD
		if h&0x0200 != 0 {
			op = isa.SUB
		}
		d := mk(op, 2)
		d.Rd = reg(h & 7)
		d.Rn = reg(h >> 3 & 7)
		d.Rm = reg(h >> 6 & 7)
		return d, nil

	case h&0xFE00 == 0x1C00 || h&0xFE00 == 0x1E00: // ADDS/SUBS imm3
		op := isa.ADD
		if h&0x0200 != 0 {
			op = isa.SUB
		}
		d := mk(op, 2)
		d.Rd = reg(h & 7)
		d.Rn = reg(h >> 3 & 7)
		d.Imm = int32(h >> 6 & 7)
		d.HasImm = true
		return d, nil

	case h&0xF800 == 0x3000 || h&0xF800 == 0x3800: // ADDS/SUBS imm8
		op := isa.ADD
		if h&0x0800 != 0 {
			op = isa.SUB
		}
		d := mk(op, 2)
		d.Rd = reg(h >> 8 & 7)
		d.Rn = d.Rd
		d.Imm = int32(h & 0xFF)
		d.HasImm = true
		return d, nil

	case h&0xFF80 == 0xB000 || h&0xFF80 == 0xB080: // ADD/SUB sp, #imm7
		op := isa.ADD
		if h&0x0080 != 0 {
			op = isa.SUB
		}
		d := mk(op, 2)
		d.Rd, d.Rn = isa.SP, isa.SP
		d.Imm = int32(h&0x7F) * 4
		d.HasImm = true
		return d, nil

	case h&0xF800 == 0xA800: // ADD rd, sp, #imm8
		d := mk(isa.ADD, 2)
		d.Rd = reg(h >> 8 & 7)
		d.Rn = isa.SP
		d.Imm = int32(h&0xFF) * 4
		d.HasImm = true
		return d, nil

	case h&0xF800 == 0x2800: // CMP rn, #imm8
		d := mk(isa.CMP, 2)
		d.Rn = reg(h >> 8 & 7)
		d.Imm = int32(h & 0xFF)
		d.HasImm = true
		return d, nil

	case h&0xFF00 == 0x4500: // CMP rn, rm (T2, high)
		d := mk(isa.CMP, 2)
		d.Rn = reg(h&7 | h>>4&8)
		d.Rm = reg(h >> 3 & 15)
		return d, nil

	case h&0xFC00 == 0x4000: // data-processing register (T1)
		return decodeALU(h)

	case h&0xF800 == 0x4800: // LDR literal
		d := mk(isa.LDRLIT, 2)
		d.Rd = reg(h >> 8 & 7)
		d.Target = ((addr + 4) &^ 3) + uint32(h&0xFF)*4
		return d, nil

	case h&0xE000 == 0x6000: // LDR/STR word/byte imm5
		d := mk(isa.LDR, 2)
		if h&0x1000 != 0 { // byte form
			if h&0x0800 != 0 {
				d.Op = isa.LDRB
			} else {
				d.Op = isa.STRB
			}
			d.Imm = int32(h >> 6 & 31)
		} else {
			if h&0x0800 != 0 {
				d.Op = isa.LDR
			} else {
				d.Op = isa.STR
			}
			d.Imm = int32(h>>6&31) * 4
		}
		d.Rd = reg(h & 7)
		d.Rn = reg(h >> 3 & 7)
		d.HasImm = true
		return d, nil

	case h&0xF000 == 0x8000: // LDRH/STRH imm5
		d := mk(isa.STRH, 2)
		if h&0x0800 != 0 {
			d.Op = isa.LDRH
		}
		d.Rd = reg(h & 7)
		d.Rn = reg(h >> 3 & 7)
		d.Imm = int32(h>>6&31) * 2
		d.HasImm = true
		return d, nil

	case h&0xF000 == 0x9000: // LDR/STR sp-relative
		d := mk(isa.STR, 2)
		if h&0x0800 != 0 {
			d.Op = isa.LDR
		}
		d.Rd = reg(h >> 8 & 7)
		d.Rn = isa.SP
		d.Imm = int32(h&0xFF) * 4
		d.HasImm = true
		return d, nil

	case h&0xFF00 == 0xB200: // SXTH/SXTB/UXTH/UXTB
		ops := [4]isa.Op{isa.SXTH, isa.SXTB, isa.UXTH, isa.UXTB}
		d := mk(ops[h>>6&3], 2)
		d.Rd = reg(h & 7)
		d.Rm = reg(h >> 3 & 7)
		return d, nil

	case h&0xFE00 == 0xB400: // PUSH
		d := mk(isa.PUSH, 2)
		d.RegList = h & 0xFF
		if h&0x100 != 0 {
			d.RegList |= 1 << isa.LR
		}
		return d, nil

	case h&0xFE00 == 0xBC00: // POP
		d := mk(isa.POP, 2)
		d.RegList = h & 0xFF
		if h&0x100 != 0 {
			d.RegList |= 1 << isa.PC
		}
		return d, nil

	case h&0xFF80 == 0x4700: // BX
		d := mk(isa.BX, 2)
		d.Rm = reg(h >> 3 & 15)
		return d, nil
	case h&0xFF80 == 0x4780: // BLX
		d := mk(isa.BLX, 2)
		d.Rm = reg(h >> 3 & 15)
		return d, nil

	case h&0xF000 == 0xD000 && h>>8&0xF < 14: // B<cond> T1
		d := mk(isa.B, 2)
		d.Cond = condFromBits(h >> 8 & 0xF)
		off := int32(int8(h&0xFF)) * 2
		d.Target = uint32(int64(addr) + 4 + int64(off))
		return d, nil

	case h&0xF800 == 0xE000: // B T2
		d := mk(isa.B, 2)
		off := int32(h&0x7FF) << 21 >> 20 // sign-extend imm11, ×2
		d.Target = uint32(int64(addr) + 4 + int64(off))
		return d, nil
	}
	return nil, fmt.Errorf("decode: unrecognized 16-bit encoding %04X", h)
}

// decodeALU decodes the 16-bit data-processing register group (T1). The
// six slots outside the modeled set are zero here and do not decode.
func decodeALU(h uint16) (*Decoded, error) {
	ops := [16]isa.Op{
		0: isa.AND, 1: isa.EOR, 2: isa.LSL, 3: isa.LSR, 4: isa.ASR,
		9: isa.RSB, 10: isa.CMP, 12: isa.ORR, 13: isa.MUL, 15: isa.MVN,
	}
	op := ops[h>>6&0xF]
	if op == isa.NOP {
		return nil, fmt.Errorf("decode: unrecognized 16-bit encoding %04X", h)
	}
	d := mk(op, 2)
	rdn := reg(h & 7)
	rm := reg(h >> 3 & 7)
	switch op {
	case isa.CMP:
		d.Rn, d.Rm = rdn, rm
	case isa.MVN:
		d.Rd, d.Rm = rdn, rm
	case isa.RSB: // NEGS rd, rn
		d.Rd, d.Rn = rdn, rm
		d.Imm, d.HasImm = 0, true
	case isa.MUL:
		d.Rd, d.Rn, d.Rm = rdn, rdn, rm
	default:
		d.Rd, d.Rn, d.Rm = rdn, rdn, rm
	}
	return d, nil
}

func decodeWide(hw1, hw2 uint16, addr uint32) (*Decoded, error) {
	switch {
	case hw1 == 0xE92D: // PUSH.W (stmdb sp!)
		d := mk(isa.PUSH, 4)
		d.RegList = hw2
		return d, nil
	case hw1 == 0xE8BD: // POP.W (ldmia sp!)
		d := mk(isa.POP, 4)
		d.RegList = hw2
		return d, nil

	case hw1&0xFBF0 == 0xF240: // MOVW
		d := mk(isa.MOV, 4)
		d.Rd = reg(hw2 >> 8)
		imm := uint32(hw1&0xF)<<12 | uint32(hw1>>10&1)<<11 |
			uint32(hw2>>12&7)<<8 | uint32(hw2&0xFF)
		d.Imm = int32(imm)
		d.HasImm = true
		return d, nil

	case hw1&0xFBF0 == 0xF200 || hw1&0xFBF0 == 0xF2A0: // ADDW/SUBW
		op := isa.ADD
		if hw1&0x0080 != 0 { // 0xF2A0 bit pattern
			op = isa.SUB
		}
		d := mk(op, 4)
		d.Rn = reg(hw1)
		d.Rd = reg(hw2 >> 8)
		d.Imm = int32(uint32(hw1>>10&1)<<11 | uint32(hw2>>12&7)<<8 | uint32(hw2&0xFF))
		d.HasImm = true
		return d, nil

	case hw1&0xFBF0 == 0xF1B0 && hw2&0x0F00 == 0x0F00: // CMP.W imm
		d := mk(isa.CMP, 4)
		d.Rn = reg(hw1)
		enc := uint16(hw1>>10&1)<<11 | hw2>>12&7<<8 | hw2&0xFF
		d.Imm = int32(thumbContractImmDecode(enc))
		d.HasImm = true
		return d, nil

	case hw1&0xFBF0 == 0xF1C0: // RSB.W imm
		d := mk(isa.RSB, 4)
		d.Rn = reg(hw1)
		d.Rd = reg(hw2 >> 8)
		enc := uint16(hw1>>10&1)<<11 | hw2>>12&7<<8 | hw2&0xFF
		d.Imm = int32(thumbContractImmDecode(enc))
		d.HasImm = true
		return d, nil

	case hw1&0xFFE0 == 0xEB00, hw1&0xFFE0 == 0xEBA0, hw1&0xFFE0 == 0xEA00,
		hw1&0xFFE0 == 0xEA40, hw1&0xFFE0 == 0xEA80:
		// Register forms (T2/T3) with an unshifted rm: a shifted operand
		// or rn = pc (mov.w and its shifts) is not in the modeled set.
		if hw2&0x70F0 != 0 || hw1&0xF == 0xF {
			return nil, fmt.Errorf("decode: unrecognized 32-bit encoding %04X %04X", hw1, hw2)
		}
		op := isa.ADD
		switch hw1 & 0xFFE0 {
		case 0xEBA0:
			op = isa.SUB
		case 0xEA00:
			op = isa.AND
		case 0xEA40:
			op = isa.ORR
		case 0xEA80:
			op = isa.EOR
		}
		d := mk(op, 4)
		d.Rn = reg(hw1)
		d.Rd = reg(hw2 >> 8)
		d.Rm = reg(hw2)
		return d, nil

	case hw1 == 0xEA6F: // MVN.W
		d := mk(isa.MVN, 4)
		d.Rd = reg(hw2 >> 8)
		d.Rm = reg(hw2)
		return d, nil

	case (hw1&0xFFE0 == 0xFA00 || hw1&0xFFE0 == 0xFA20 || hw1&0xFFE0 == 0xFA40) &&
		hw2&0xF0F0 == 0xF000 && hw1&0xF != 0xF:
		// register-shift forms; rn=15 with a 0xF08x second halfword is the
		// extend group handled below
		ops := map[uint16]isa.Op{0xFA00: isa.LSL, 0xFA20: isa.LSR, 0xFA40: isa.ASR}
		d := mk(ops[hw1&0xFFE0], 4)
		d.Rn = reg(hw1)
		d.Rd = reg(hw2 >> 8)
		d.Rm = reg(hw2)
		return d, nil

	case hw1&0xFFF0 == 0xFB00 && hw2&0xF0F0 == 0xF000: // MUL
		d := mk(isa.MUL, 4)
		d.Rn = reg(hw1)
		d.Rd = reg(hw2 >> 8)
		d.Rm = reg(hw2)
		return d, nil

	case hw1&0xFFF0 == 0xFB90: // SDIV
		d := mk(isa.SDIV, 4)
		d.Rn = reg(hw1)
		d.Rd = reg(hw2 >> 8)
		d.Rm = reg(hw2)
		return d, nil
	case hw1&0xFFF0 == 0xFBB0: // UDIV
		d := mk(isa.UDIV, 4)
		d.Rn = reg(hw1)
		d.Rd = reg(hw2 >> 8)
		d.Rm = reg(hw2)
		return d, nil

	case hw1 == 0xFA0F, hw1 == 0xFA1F, hw1 == 0xFA4F, hw1 == 0xFA5F:
		ops := map[uint16]isa.Op{
			0xFA0F: isa.SXTH, 0xFA1F: isa.UXTH, 0xFA4F: isa.SXTB, 0xFA5F: isa.UXTB,
		}
		d := mk(ops[hw1], 4)
		d.Rd = reg(hw2 >> 8)
		d.Rm = reg(hw2)
		return d, nil

	case hw1&0xFF7F == 0xF85F: // LDR.W literal
		d := mk(isa.LDRLIT, 4)
		d.Rd = reg(hw2 >> 12)
		off := int64(hw2 & 0xFFF)
		if hw1&0x0080 == 0 {
			off = -off
		}
		d.Target = uint32(int64((addr+4)&^3) + off)
		return d, nil

	case hw1&0xFF00 == 0xF800 || hw1&0xFF00 == 0xF900:
		return decodeWideMem(hw1, hw2)

	case hw1&0xF800 == 0xF000 && hw2&0x9000 == 0x9000:
		// BL / B.W (T4): hw2 = 1 L J1 1 J2 imm11
		op := isa.B
		if hw2&0x4000 != 0 {
			op = isa.BL
		}
		d := mk(op, 4)
		s := int64(hw1>>10) & 1
		imm10 := int64(hw1) & 0x3FF
		j1 := int64(hw2>>13) & 1
		j2 := int64(hw2>>11) & 1
		imm11 := int64(hw2) & 0x7FF
		i1 := (^(j1 ^ s)) & 1
		i2 := (^(j2 ^ s)) & 1
		v := s<<24 | i1<<23 | i2<<22 | imm10<<12 | imm11<<1
		v = v << (64 - 25) >> (64 - 25)
		d.Target = uint32(int64(addr) + 4 + v)
		return d, nil

	case hw1&0xF800 == 0xF000 && hw2&0x9000 == 0x8000:
		// B<cond>.W (T3): hw2 = 1 0 J1 0 J2 imm11
		d := mk(isa.B, 4)
		d.Cond = condFromBits(hw1 >> 6 & 0xF)
		s := int64(hw1>>10) & 1
		imm6 := int64(hw1) & 0x3F
		j1 := int64(hw2>>13) & 1
		j2 := int64(hw2>>11) & 1
		imm11 := int64(hw2) & 0x7FF
		v := s<<20 | j2<<19 | j1<<18 | imm6<<12 | imm11<<1
		v = v << (64 - 21) >> (64 - 21)
		d.Target = uint32(int64(addr) + 4 + v)
		return d, nil
	}
	return nil, fmt.Errorf("decode: unrecognized 32-bit encoding %04X %04X", hw1, hw2)
}

func decodeWideMem(hw1, hw2 uint16) (*Decoded, error) {
	immForm := map[uint16]isa.Op{
		0xF8D0: isa.LDR, 0xF8C0: isa.STR, 0xF890: isa.LDRB, 0xF880: isa.STRB,
		0xF8B0: isa.LDRH, 0xF8A0: isa.STRH, 0xF990: isa.LDRSB, 0xF9B0: isa.LDRSH,
	}
	base := hw1 & 0xFFF0
	if op, ok := immForm[base]; ok {
		d := mk(op, 4)
		d.Rn = reg(hw1)
		d.Rd = reg(hw2 >> 12)
		d.Imm = int32(hw2 & 0xFFF)
		d.HasImm = true
		return d, nil
	}
	return nil, fmt.Errorf("decode: unrecognized memory encoding %04X %04X", hw1, hw2)
}

func condFromBits(b uint16) isa.Cond {
	conds := [14]isa.Cond{
		isa.EQ, isa.NE, isa.CS, isa.CC, isa.MI, isa.PL, isa.VS, isa.VC,
		isa.HI, isa.LS, isa.GE, isa.LT, isa.GT, isa.LE,
	}
	if int(b) < len(conds) {
		return conds[b]
	}
	return isa.AL
}

// thumbContractImmDecode expands a 12-bit modified immediate (same as the
// test helper; duplicated here so production code does not depend on test
// files).
func thumbContractImmDecode(enc uint16) uint32 {
	imm12 := uint32(enc)
	if imm12>>10 == 0 {
		b := imm12 & 0xFF
		switch (imm12 >> 8) & 3 {
		case 0:
			return b
		case 1:
			return b | b<<16
		case 2:
			return b<<8 | b<<24
		default:
			return b | b<<8 | b<<16 | b<<24
		}
	}
	rot := imm12 >> 7
	v := uint32(0x80) | imm12&0x7F
	return v>>rot | v<<(32-rot)
}

// Disassemble renders the encoded form of every instruction in the image,
// in address order per block — the view a debugger would show of the
// flashed binary.
func Disassemble(img *layout.Image) ([]string, error) {
	var out []string
	for _, pl := range img.Blocks {
		out = append(out, fmt.Sprintf("%08x <%s>:", pl.Addr, pl.Block.Label))
		for i := range pl.Block.Instrs {
			bytes, err := EncodeInstr(img, pl, i)
			if err != nil {
				return nil, err
			}
			d, err := Decode(bytes, pl.InstrAddrs[i])
			if err != nil {
				return nil, err
			}
			hex := ""
			for j := 0; j+1 < len(bytes); j += 2 {
				hex += fmt.Sprintf("%02x%02x ", bytes[j+1], bytes[j])
			}
			src := pl.Block.Instrs[i].String()
			tgt := ""
			if d.Target != 0 {
				tgt = fmt.Sprintf(" ; -> %08x", d.Target)
			}
			out = append(out, fmt.Sprintf("%8x:  %-10s %s%s", pl.InstrAddrs[i], hex, src, tgt))
		}
	}
	return out, nil
}
