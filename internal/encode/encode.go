// Package encode emits real ARMv7-M Thumb-2 machine code for the laid-out
// program image: the instruction encodings a flash programmer would burn
// onto the paper's STM32. Besides producing a flashable image, the
// encoder is a cross-check of the whole sizing chain: every instruction's
// encoded length must equal internal/isa's Size() — the number the layout
// engine, the cost model (Sb, Kb) and the RAM budget all rely on.
package encode

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/power"
)

// EncodeInstr encodes one instruction located at addr within the image.
// The image resolves branch targets and literal-pool slots. The result is
// 2 or 4 bytes, little-endian halfwords per the Thumb instruction stream.
func EncodeInstr(img *layout.Image, pl *layout.Placed, idx int) ([]byte, error) {
	in := &pl.Block.Instrs[idx]
	addr := pl.InstrAddrs[idx]
	size := pl.InstrSize(idx)

	if !isa.Emitted(in) {
		return nil, fmt.Errorf("encode: %s at %#x: outside the modeled instruction set", in.String(), addr)
	}
	enc := &encoder{img: img, pl: pl, idx: idx, in: in, addr: addr, wide: size == 4}
	hw, err := enc.encode()
	if err != nil {
		return nil, fmt.Errorf("encode: %s at %#x: %w", in.String(), addr, err)
	}
	out := make([]byte, 0, 4)
	for _, h := range hw {
		var b [2]byte
		binary.LittleEndian.PutUint16(b[:], h)
		out = append(out, b[:]...)
	}
	if len(out) != size {
		return nil, fmt.Errorf("encode: %s at %#x: encoded %d bytes but Size says %d",
			in.String(), addr, len(out), size)
	}
	return out, nil
}

type encoder struct {
	img  *layout.Image
	pl   *layout.Placed
	idx  int
	in   *isa.Instr
	addr uint32
	wide bool
}

func (e *encoder) narrow(h uint16) []uint16    { return []uint16{h} }
func (e *encoder) pair(h1, h2 uint16) []uint16 { return []uint16{h1, h2} }

func lo3(r isa.Reg) uint16 { return uint16(r) & 7 }
func r4(r isa.Reg) uint16  { return uint16(r) & 15 }

// targetAddr resolves a label to its block address.
func (e *encoder) targetAddr(sym string) (uint32, error) {
	a, ok := e.img.Symbols[sym]
	if !ok {
		return 0, fmt.Errorf("unresolved symbol %q", sym)
	}
	return a, nil
}

func (e *encoder) encode() ([]uint16, error) {
	in := e.in
	switch in.Op {
	case isa.NOP:
		return e.narrow(0xBF00), nil

	case isa.IT:
		// 1011 1111 cond mask; mask encodes the then/else pattern.
		cond := condBits(in.Cond)
		var mask uint16
		switch in.ITMask {
		case "":
			mask = 0b1000
		default: // "e"; isa.Emitted admits no other mask
			mask = ((cond&1)^1)<<3 | 0b0100
		}
		return e.narrow(0xBF00 | cond<<4 | mask), nil

	case isa.MOV:
		if in.HasImm {
			if !e.wide {
				return e.narrow(0x2000 | lo3(in.Rd)<<8 | uint16(in.Imm)&0xFF), nil
			}
			// MOVW (T3): up to 16-bit immediates.
			if in.Imm < 0 || in.Imm > 0xFFFF {
				return nil, fmt.Errorf("mov immediate %d not encodable", in.Imm)
			}
			imm := uint32(in.Imm)
			hw1 := uint16(0xF240) | uint16(imm>>11&1)<<10 | uint16(imm>>12)&0xF
			hw2 := uint16(imm>>8&7)<<12 | r4(in.Rd)<<8 | uint16(imm&0xFF)
			return e.pair(hw1, hw2), nil
		}
		// MOV register (T1): works for any registers.
		d := uint16(in.Rd)
		return e.narrow(0x4600 | (d&8)<<4 | uint16(in.Rm)<<3 | (d & 7)), nil

	case isa.ADD, isa.SUB:
		return e.addSub()

	case isa.CMP:
		if in.HasImm {
			if !e.wide {
				return e.narrow(0x2800 | lo3(in.Rn)<<8 | uint16(in.Imm)&0xFF), nil
			}
			imm, ok := thumbExpandImm(uint32(in.Imm))
			if !ok {
				return nil, fmt.Errorf("cmp immediate %d not encodable", in.Imm)
			}
			hw1 := uint16(0xF1B0) | uint16(imm>>11&1)<<10 | r4(in.Rn)
			hw2 := uint16(imm>>8&7)<<12 | 0x0F00 | uint16(imm&0xFF)
			return e.pair(hw1, hw2), nil
		}
		n := uint16(in.Rn)
		if in.Rn.IsLow() && in.Rm.IsLow() {
			return e.narrow(0x4280 | lo3(in.Rm)<<3 | lo3(in.Rn)), nil
		}
		return e.narrow(0x4500 | (n&8)<<4 | uint16(in.Rm)<<3 | (n & 7)), nil

	case isa.AND, isa.ORR, isa.EOR:
		return e.logic()

	case isa.LSL, isa.LSR, isa.ASR:
		return e.shift()

	case isa.RSB:
		if in.Imm == 0 && !e.wide {
			return e.narrow(0x4240 | lo3(in.Rn)<<3 | lo3(in.Rd)), nil // NEGS
		}
		imm, ok := thumbExpandImm(uint32(in.Imm))
		if !ok {
			return nil, fmt.Errorf("rsb immediate %d not encodable", in.Imm)
		}
		hw1 := uint16(0xF1C0) | uint16(imm>>11&1)<<10 | r4(in.Rn)
		hw2 := uint16(imm>>8&7)<<12 | r4(in.Rd)<<8 | uint16(imm&0xFF)
		return e.pair(hw1, hw2), nil

	case isa.MVN:
		if !e.wide {
			return e.narrow(0x43C0 | lo3(in.Rm)<<3 | lo3(in.Rd)), nil
		}
		return e.pair(0xEA6F, r4(in.Rd)<<8|r4(in.Rm)), nil

	case isa.MUL:
		if !e.wide {
			return e.narrow(0x4340 | lo3(in.Rm)<<3 | lo3(in.Rd)), nil
		}
		return e.pair(0xFB00|r4(in.Rn), 0xF000|r4(in.Rd)<<8|r4(in.Rm)), nil

	case isa.SDIV:
		return e.pair(0xFB90|r4(in.Rn), 0xF0F0|r4(in.Rd)<<8|r4(in.Rm)), nil
	case isa.UDIV:
		return e.pair(0xFBB0|r4(in.Rn), 0xF0F0|r4(in.Rd)<<8|r4(in.Rm)), nil

	case isa.SXTB, isa.SXTH, isa.UXTB, isa.UXTH:
		return e.extend()

	case isa.LDR, isa.STR, isa.LDRB, isa.STRB, isa.LDRH, isa.STRH,
		isa.LDRSB, isa.LDRSH:
		return e.memory()

	case isa.LDRLIT:
		return e.literal()

	case isa.PUSH:
		list := in.RegList
		if !e.wide {
			h := uint16(0xB400) | uint16(list&0xFF)
			if list&(1<<isa.LR) != 0 {
				h |= 1 << 8
			}
			return e.narrow(h), nil
		}
		// STMDB sp!, {...}
		return e.pair(0xE92D, list&0x5FFF), nil

	case isa.POP:
		list := in.RegList
		if !e.wide {
			h := uint16(0xBC00) | uint16(list&0xFF)
			if list&(1<<isa.PC) != 0 {
				h |= 1 << 8
			}
			return e.narrow(h), nil
		}
		// LDMIA sp!, {...}
		return e.pair(0xE8BD, list&0xDFFF), nil

	case isa.B:
		return e.branch()

	case isa.BL:
		tgt, err := e.targetAddr(in.Sym)
		if err != nil {
			return nil, err
		}
		return e.encodeBL(tgt)

	case isa.BX:
		return e.narrow(0x4700 | uint16(in.Rm)<<3), nil
	case isa.BLX:
		return e.narrow(0x4780 | uint16(in.Rm)<<3), nil
	}
	return nil, fmt.Errorf("unsupported opcode %v", in.Op)
}

func (e *encoder) addSub() ([]uint16, error) {
	in := e.in
	isAdd := in.Op == isa.ADD
	if in.HasImm {
		imm := in.Imm
		// Canonicalize negative immediates to the opposite operation.
		if imm < 0 {
			isAdd = !isAdd
			imm = -imm
		}
		switch {
		case !e.wide && (in.Rd == isa.SP || in.Rn == isa.SP):
			if in.Rd == isa.SP && in.Rn == isa.SP {
				h := uint16(0xB000)
				if !isAdd {
					h = 0xB080
				}
				return e.narrow(h | uint16(imm/4)), nil
			}
			if isAdd && in.Rn == isa.SP && in.Rd.IsLow() {
				return e.narrow(0xA800 | lo3(in.Rd)<<8 | uint16(imm/4)), nil
			}
			return nil, fmt.Errorf("sp-relative %v not encodable narrow", in)
		case !e.wide && in.Rd.IsLow() && in.Rn.IsLow() && imm <= 7:
			h := uint16(0x1C00)
			if !isAdd {
				h = 0x1E00
			}
			return e.narrow(h | uint16(imm)<<6 | lo3(in.Rn)<<3 | lo3(in.Rd)), nil
		case !e.wide && in.Rd == in.Rn && in.Rd.IsLow() && imm <= 255:
			h := uint16(0x3000)
			if !isAdd {
				h = 0x3800
			}
			return e.narrow(h | lo3(in.Rd)<<8 | uint16(imm)), nil
		default:
			// ADDW/SUBW (T4): plain 12-bit immediate.
			if imm > 4095 {
				return nil, fmt.Errorf("add/sub immediate %d not encodable", imm)
			}
			hw1 := uint16(0xF200) | r4(in.Rn)
			if !isAdd {
				hw1 = 0xF2A0 | r4(in.Rn)
			}
			hw1 |= uint16(imm>>11&1) << 10
			hw2 := uint16(imm>>8&7)<<12 | r4(in.Rd)<<8 | uint16(imm&0xFF)
			return e.pair(hw1, hw2), nil
		}
	}
	// Register forms.
	if !e.wide {
		h := uint16(0x1800)
		if !isAdd {
			h = 0x1A00
		}
		return e.narrow(h | lo3(in.Rm)<<6 | lo3(in.Rn)<<3 | lo3(in.Rd)), nil
	}
	hw1 := uint16(0xEB00) | r4(in.Rn)
	if !isAdd {
		hw1 = 0xEBA0 | r4(in.Rn)
	}
	return e.pair(hw1, r4(in.Rd)<<8|r4(in.Rm)), nil
}

// logic encodes the register forms of and, orr and eor: T1 for the
// narrow rdn form, T2 otherwise.
func (e *encoder) logic() ([]uint16, error) {
	in := e.in
	t1, t2 := uint16(0x4000), uint16(0xEA00) // AND
	switch in.Op {
	case isa.ORR:
		t1, t2 = 0x4300, 0xEA40
	case isa.EOR:
		t1, t2 = 0x4040, 0xEA80
	}
	if !e.wide {
		return e.narrow(t1 | lo3(in.Rm)<<3 | lo3(in.Rd)), nil
	}
	return e.pair(t2|r4(in.Rn), r4(in.Rd)<<8|r4(in.Rm)), nil
}

// shift encodes lsl, lsr and asr by a register.
func (e *encoder) shift() ([]uint16, error) {
	in := e.in
	if !e.wide {
		base := map[isa.Op]uint16{isa.LSL: 0x4080, isa.LSR: 0x40C0, isa.ASR: 0x4100}[in.Op]
		return e.narrow(base | lo3(in.Rm)<<3 | lo3(in.Rd)), nil
	}
	base := map[isa.Op]uint16{isa.LSL: 0xFA00, isa.LSR: 0xFA20, isa.ASR: 0xFA40}[in.Op]
	return e.pair(base|r4(in.Rn), 0xF000|r4(in.Rd)<<8|r4(in.Rm)), nil
}

func (e *encoder) extend() ([]uint16, error) {
	in := e.in
	if !e.wide {
		base := map[isa.Op]uint16{
			isa.SXTH: 0xB200, isa.SXTB: 0xB240, isa.UXTH: 0xB280, isa.UXTB: 0xB2C0,
		}[in.Op]
		return e.narrow(base | lo3(in.Rm)<<3 | lo3(in.Rd)), nil
	}
	hw1 := map[isa.Op]uint16{
		isa.SXTH: 0xFA0F, isa.UXTH: 0xFA1F, isa.SXTB: 0xFA4F, isa.UXTB: 0xFA5F,
	}[in.Op]
	return e.pair(hw1, 0xF080|r4(in.Rd)<<8|r4(in.Rm)), nil
}

func (e *encoder) memory() ([]uint16, error) {
	in := e.in
	if in.Imm < 0 {
		return nil, fmt.Errorf("negative memory offset %d not supported", in.Imm)
	}
	imm := uint32(in.Imm)
	if !e.wide {
		switch in.Op {
		case isa.LDR, isa.STR:
			if in.Rn == isa.SP {
				base := uint16(0x9800)
				if in.Op == isa.STR {
					base = 0x9000
				}
				return e.narrow(base | lo3(in.Rd)<<8 | uint16(imm/4)), nil
			}
			base := uint16(0x6800)
			if in.Op == isa.STR {
				base = 0x6000
			}
			return e.narrow(base | uint16(imm/4)<<6 | lo3(in.Rn)<<3 | lo3(in.Rd)), nil
		case isa.LDRB, isa.STRB:
			base := uint16(0x7800)
			if in.Op == isa.STRB {
				base = 0x7000
			}
			return e.narrow(base | uint16(imm)<<6 | lo3(in.Rn)<<3 | lo3(in.Rd)), nil
		case isa.LDRH, isa.STRH:
			base := uint16(0x8800)
			if in.Op == isa.STRH {
				base = 0x8000
			}
			return e.narrow(base | uint16(imm/2)<<6 | lo3(in.Rn)<<3 | lo3(in.Rd)), nil
		}
		return nil, fmt.Errorf("%v has no narrow immediate form", in.Op)
	}
	if imm > 4095 {
		return nil, fmt.Errorf("memory offset %d not encodable", imm)
	}
	return e.pair(wideMemOpcode(in.Op)|r4(in.Rn), r4(in.Rd)<<12|uint16(imm)), nil
}

// wideMemOpcode is the first halfword of a load or store's T3
// (imm12) encoding, register fields clear.
func wideMemOpcode(op isa.Op) uint16 {
	switch op {
	case isa.LDR:
		return 0xF8D0
	case isa.STR:
		return 0xF8C0
	case isa.LDRB:
		return 0xF890
	case isa.STRB:
		return 0xF880
	case isa.LDRH:
		return 0xF8B0
	case isa.STRH:
		return 0xF8A0
	case isa.LDRSB:
		return 0xF990
	}
	return 0xF9B0 // LDRSH
}

// literal encodes ldr rd, [pc, #off] against the instruction's assigned
// literal-pool slot.
func (e *encoder) literal() ([]uint16, error) {
	lit := e.pl.LitAddrs[e.idx]
	if lit == 0 {
		return nil, fmt.Errorf("ldr literal without a pool slot")
	}
	base := (e.addr + 4) &^ 3
	off := int64(lit) - int64(base)
	if !e.wide {
		if off < 0 || off > 1020 || off%4 != 0 {
			return nil, fmt.Errorf("narrow literal offset %d out of range", off)
		}
		return e.narrow(0x4800 | lo3(e.in.Rd)<<8 | uint16(off/4)), nil
	}
	u := uint16(1)
	if off < 0 {
		u = 0
		off = -off
	}
	if off > 4095 {
		return nil, fmt.Errorf("wide literal offset %d out of range", off)
	}
	hw1 := uint16(0xF85F) | u<<7
	return e.pair(hw1, r4(e.in.Rd)<<12|uint16(off)), nil
}

func condBits(c isa.Cond) uint16 {
	switch c {
	case isa.EQ:
		return 0
	case isa.NE:
		return 1
	case isa.CS:
		return 2
	case isa.CC:
		return 3
	case isa.MI:
		return 4
	case isa.PL:
		return 5
	case isa.VS:
		return 6
	case isa.VC:
		return 7
	case isa.HI:
		return 8
	case isa.LS:
		return 9
	case isa.GE:
		return 10
	case isa.LT:
		return 11
	case isa.GT:
		return 12
	case isa.LE:
		return 13
	}
	return 14 // AL
}

func (e *encoder) branch() ([]uint16, error) {
	in := e.in
	tgt, err := e.targetAddr(in.Sym)
	if err != nil {
		return nil, err
	}
	off := int64(tgt) - int64(e.addr+4)
	if in.Cond == isa.AL {
		if !e.wide {
			if off < -2048 || off > 2046 {
				return nil, fmt.Errorf("narrow b offset %d out of range", off)
			}
			return e.narrow(0xE000 | uint16(off/2)&0x7FF), nil
		}
		// B.W (T4).
		if off < -(1<<24) || off >= 1<<24 {
			return nil, fmt.Errorf("b.w offset %d out of range", off)
		}
		return e.pair(encodeT4(off)), nil
	}
	if !e.wide {
		if off < -256 || off > 254 {
			return nil, fmt.Errorf("narrow conditional b offset %d out of range", off)
		}
		return e.narrow(0xD000 | condBits(in.Cond)<<8 | uint16(off/2)&0xFF), nil
	}
	// B<c>.W (T3): ±1 MiB.
	if off < -(1<<20) || off >= 1<<20 {
		return nil, fmt.Errorf("b<c>.w offset %d out of range", off)
	}
	o := uint32(off) >> 1
	s := uint16(o>>19) & 1
	j2 := uint16(o>>18) & 1
	j1 := uint16(o>>17) & 1
	imm6 := uint16(o>>11) & 0x3F
	imm11 := uint16(o) & 0x7FF
	hw1 := 0xF000 | s<<10 | condBits(in.Cond)<<6 | imm6
	hw2 := 0x8000 | j1<<13 | j2<<11 | imm11
	return e.pair(hw1, hw2), nil
}

// encodeBL emits the BL encoding (T1) for a target address.
func (e *encoder) encodeBL(tgt uint32) ([]uint16, error) {
	off := int64(tgt) - int64(e.addr+4)
	if off < -(1<<24) || off >= 1<<24 {
		return nil, fmt.Errorf("bl offset %d out of range", off)
	}
	hw1, hw2 := encodeT4(off)
	hw2 |= 0x4000 // the L bit distinguishing BL from B.W
	return e.pair(hw1, hw2), nil
}

// encodeT4 produces the common halfwords of B.W (T4) / BL for an offset.
func encodeT4(off int64) (uint16, uint16) {
	o := uint32(off) >> 1
	s := uint16(o>>23) & 1
	i1 := uint16(o>>22) & 1
	i2 := uint16(o>>21) & 1
	imm10 := uint16(o>>11) & 0x3FF
	imm11 := uint16(o) & 0x7FF
	j1 := (^(i1 ^ s)) & 1
	j2 := (^(i2 ^ s)) & 1
	hw1 := 0xF000 | s<<10 | imm10
	hw2 := 0x9000 | j1<<13 | j2<<11 | imm11
	return hw1, hw2
}

// thumbExpandImm inverts ThumbExpandImm: finds the 12-bit modified
// immediate encoding i:imm3:imm8 of a 32-bit constant, if one exists.
func thumbExpandImm(v uint32) (uint16, bool) {
	// 00xx: 0x000000ab, 0x00ab00ab, 0xab00ab00, 0xabababab.
	if v <= 0xFF {
		return uint16(v), true
	}
	b := v & 0xFF
	if v == b|b<<16 {
		return uint16(0x100 | b), true
	}
	if b8 := (v >> 8) & 0xFF; v == b8<<8|b8<<24 {
		return uint16(0x200 | b8), true
	}
	if b := v & 0xFF; v == b|b<<8|b<<16|b<<24 {
		return uint16(0x300 | b), true
	}
	// Rotated 8-bit value with a leading 1: 1bcdefgh rotated.
	for rot := uint32(8); rot < 32; rot++ {
		rotated := v<<rot | v>>(32-rot)
		if rotated <= 0xFF && rotated >= 0x80 {
			return uint16(rot<<7 | rotated&0x7F), true
		}
	}
	return 0, false
}

// Image encodes every instruction of a laid-out program and materializes
// the flash and RAM code contents (including literal pools). Returns the
// initialized flash image and the .ramcode bytes (RAM-relative).
func Image(img *layout.Image) (flash []byte, ramcode []byte, err error) {
	flash = make([]byte, img.Config.FlashSize)
	ramcode = make([]byte, img.RAMCodeBytes)

	writeAt := func(addr uint32, data []byte) error {
		mem, ok := img.MemoryOf(addr)
		if !ok {
			return fmt.Errorf("encode: write outside memory at %#x", addr)
		}
		if mem == power.Flash {
			copy(flash[addr-img.Config.FlashBase:], data)
			return nil
		}
		off := addr - img.Config.RAMBase
		if int(off)+len(data) > len(ramcode) {
			return fmt.Errorf("encode: ram code write at %#x out of section", addr)
		}
		copy(ramcode[off:], data)
		return nil
	}

	for _, pl := range img.Blocks {
		for i := range pl.Block.Instrs {
			bytes, err := EncodeInstr(img, pl, i)
			if err != nil {
				return nil, nil, err
			}
			if err := writeAt(pl.InstrAddrs[i], bytes); err != nil {
				return nil, nil, err
			}
			// Literal pool word.
			if lit := pl.LitAddrs[i]; lit != 0 {
				in := &pl.Block.Instrs[i]
				var w uint32
				if in.Sym != "" {
					a, ok := img.Symbols[in.Sym]
					if !ok {
						return nil, nil, fmt.Errorf("encode: unresolved literal %q", in.Sym)
					}
					w = a
					// Thumb function/label pointers carry bit 0 set when
					// used as branch targets; our indirect branches mask
					// it, so emit the plain address.
				} else {
					w = uint32(in.Imm)
				}
				var buf [4]byte
				binary.LittleEndian.PutUint32(buf[:], w)
				if err := writeAt(lit, buf[:]); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return flash, ramcode, nil
}
