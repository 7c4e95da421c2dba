package encode

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/layout"
)

// synthProgram deterministically builds a verifiable program from fuzz
// bytes: every 3 bytes pick one instruction from a table of encodable
// shapes, the final byte picks the terminator. The generator only emits
// forms some producer emits — the predicated ones are mcc's it<c>;
// mov<c> rd, #imm and the Figure 4 it<c>e; ldr<c> rS, =l; ldr<c'> rS,
// =l'; bx rS terminator — so any layout or encode failure on the result
// is a finding, not noise.
func synthProgram(data []byte) *ir.Program {
	if len(data) < 4 {
		return nil
	}
	p := ir.NewProgram()
	p.AddGlobal(&ir.Global{Name: "gdata", Size: 16})
	leaf := p.AddFunc(&ir.Function{Name: "leaf"})
	ir.Build(leaf.AddBlock("leaf_entry")).Ret()

	f := p.AddFunc(&ir.Function{Name: "main"})
	body := f.AddBlock("m0")
	bb := ir.Build(body)

	lo := func(b byte) isa.Reg { return isa.Reg(b & 7) }   // r0..r7
	mid := func(b byte) isa.Reg { return isa.Reg(b % 13) } // r0..r12
	imm8 := func(b byte) int32 { return int32(b) }         // 0..255
	// shift draws a narrow (rdn, low registers) or a wide shape.
	shift := func(o isa.Op, op, a, b byte) {
		if op&64 != 0 {
			bb.Op3(o, mid(op), mid(a), mid(b))
		} else {
			bb.Op3(o, lo(a), lo(a), lo(b))
		}
	}
	list := func(b byte) []isa.Reg {
		var regs []isa.Reg
		for r := isa.R0; r <= isa.R7; r++ {
			if b&(1<<r) != 0 {
				regs = append(regs, r)
			}
		}
		if len(regs) == 0 {
			regs = []isa.Reg{isa.R4}
		}
		return regs
	}

	// The body cap keeps older corpus entries building the programs they
	// were minimized for.
	n := (len(data) - 1) / 3
	if n > 25 {
		n = 25
	}
	for i := 0; i < n; i++ {
		op, a, b := data[3*i], data[3*i+1], data[3*i+2]
		switch op % 32 {
		case 0:
			bb.Nop()
		case 1:
			bb.Mov(mid(a), mid(b))
		case 2:
			bb.MovImm(lo(a), imm8(b))
		case 3:
			bb.Add(lo(op), lo(a), lo(b))
		case 4:
			bb.AddImm(lo(a), lo(a), imm8(b))
		case 5:
			bb.Sub(lo(op), lo(a), lo(b))
		case 6:
			bb.SubImm(lo(a), lo(a), imm8(b))
		case 7:
			bb.Mul(lo(a), lo(a), lo(b))
		case 8:
			bb.CmpImm(lo(a), imm8(b))
		case 9:
			bb.Cmp(lo(a), lo(b))
		case 10:
			bb.Op3(isa.AND, lo(a), lo(a), lo(b))
		case 11:
			bb.Op3(isa.ORR, lo(a), lo(a), lo(b))
		case 12:
			bb.Op3(isa.EOR, lo(a), lo(a), lo(b))
		case 13:
			bb.OpImm(isa.RSB, lo(a), lo(b), 0)
		case 14:
			shift(isa.LSL, op, a, b)
		case 15:
			shift(isa.LSR, op, a, b)
		case 16:
			shift(isa.ASR, op, a, b)
		case 17:
			bb.Op3(isa.MVN, lo(a), isa.NoReg, lo(b))
		case 18:
			bb.Op3(isa.SXTB, lo(a), isa.NoReg, lo(b))
		case 19:
			bb.Op3(isa.UXTB, lo(a), isa.NoReg, lo(b))
		case 20:
			bb.Op3(isa.UXTH, lo(a), isa.NoReg, lo(b))
		case 21:
			bb.Op3(isa.UDIV, mid(op), mid(a), mid(b))
		case 22:
			bb.Op3(isa.SDIV, mid(op), mid(a), mid(b))
		case 23:
			bb.Op3(isa.SXTH, lo(a), isa.NoReg, lo(b))
		case 24:
			bb.Ldr(lo(a), lo(b), int32(op%32)*4)
		case 25:
			bb.Str(lo(a), lo(b), int32(op%32)*4)
		case 26:
			bb.OpMem(isa.LDRB, lo(a), lo(b), int32(op%32))
		case 27:
			bb.OpMem(isa.STRH, lo(a), lo(b), int32(op%32)*2)
		case 28:
			mem := []isa.Op{isa.LDRH, isa.LDRSB, isa.LDRSH, isa.STRB}[a>>6]
			bb.OpMem(mem, lo(a), lo(b), int32(op%32)*2)
		case 29:
			bb.LdrConst(lo(a), int32(a)<<8|int32(b))
		case 30:
			bb.LdrLit(lo(a), "gdata")
		case 31:
			if op&1 == 0 {
				bb.Push(list(a)...)
			} else {
				bb.Pop(list(a)...)
			}
		}
		if op%37 == 5 {
			bb.Bl("leaf")
		}
	}

	t := data[len(data)-1]
	cond := []isa.Cond{isa.EQ, isa.NE, isa.LT, isa.GE, isa.GT, isa.LE, isa.HI, isa.LS}[t%8]
	switch t % 5 {
	case 0:
		bb.Ret()
	case 1:
		bb.B("m2")
	case 2:
		bb.Bcond(cond, "m2")
	case 3:
		// The Figure 4 sequence, through a scavenged low register or
		// r12 (wide literal loads inside the IT block).
		rs := isa.R5
		if t >= 128 {
			rs = isa.R12
		}
		body.Append(isa.Instr{Op: isa.IT, Cond: cond, ITMask: "e"})
		body.Append(isa.Instr{Op: isa.LDRLIT, Cond: cond, Rd: rs, Sym: "m2"})
		body.Append(isa.Instr{Op: isa.LDRLIT, Cond: cond.Invert(), Rd: rs, Sym: "m1"})
		body.Append(isa.Instr{Op: isa.BX, Rm: rs})
	case 4:
		// mcc's comparison used as a value.
		body.Append(isa.Instr{Op: isa.IT, Cond: cond})
		body.Append(isa.Instr{Op: isa.MOV, Cond: cond, Rd: lo(t), Imm: 1, HasImm: true})
		bb.Ret()
	}
	ir.Build(f.AddBlock("m1")).Nop()
	ir.Build(f.AddBlock("m2")).Ret()
	p.Reindex()
	return p
}

// FuzzRoundTrip synthesizes a program from the fuzz input, lays it out,
// and checks that every encoded instruction decodes back to the same
// structural fields. The checked-in corpus under testdata/fuzz mixes the
// instruction profiles of the BEEBS benchmarks: load/store loops (crc32,
// matmult), multiply-accumulate chains (fdct, 2dfir), compare-and-branch
// ladders (dijkstra) and call-heavy bodies (blowfish, sha).
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte("\x18\x01\x02\x19\x03\x04\x03\x01\x02\x08\x05\x00\x04"))
	f.Add([]byte("\x07\x02\x03\x17\x04\x05\x07\x01\x06\x18\x02\x01\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := synthProgram(data)
		if prog == nil {
			return
		}
		if err := ir.Verify(prog); err != nil {
			t.Fatalf("synthesized program fails Verify: %v", err)
		}
		img, err := layout.New(prog, layout.DefaultConfig(), nil)
		if err != nil {
			t.Fatalf("layout rejected an encodable synthesis: %v", err)
		}
		for _, pl := range img.Blocks {
			for i := range pl.Block.Instrs {
				if err := checkRoundTrip(img, pl, i); err != nil {
					t.Errorf("%s[%d]: %v", pl.Block.Label, i, err)
				}
			}
		}
	})
}
