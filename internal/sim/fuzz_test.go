package sim

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/power"
)

// synthExecProgram deterministically builds a runnable program from fuzz
// bytes: every 3 bytes pick one instruction from a table of encodable
// shapes, the final byte picks the terminator and the first byte picks
// the flash/RAM placement. The shapes mirror internal/encode's round-trip
// generator, biased toward what exercises the superblock engine: flag
// writers feeding conditional terminals, loads/stores that mostly hit the
// global buffer but sometimes fault, multiplies, literal loads. Op bytes
// 234-255 select the forms that sit on fusion boundaries — mcc's
// IT-predicated it<c>; mov<c> rd, #imm and a push/pop pair mid-body;
// bytes below 234 keep the original 26 shapes, so older corpus entries
// still build the programs they were minimized for. Every form is one a
// producer emits. Terminators are b, b<c>, the Figure 4 it<c>e; ldr<c>
// r5, =l; ldr<c'> r5, =l'; bx r5 sequence or none. Programs are
// straight-line plus forward branches and a leaf call.
func synthExecProgram(data []byte) (*ir.Program, map[string]bool) {
	if len(data) < 4 {
		return nil, nil
	}
	p := ir.NewProgram()
	p.AddGlobal(&ir.Global{Name: "gdata", Size: 128})
	leaf := p.AddFunc(&ir.Function{Name: "leaf"})
	ir.Build(leaf.AddBlock("leaf_entry")).
		AddImm(isa.R6, isa.R6, 1).
		Ret()

	f := p.AddFunc(&ir.Function{Name: "main"})
	body := f.AddBlock("m0")
	bb := ir.Build(body)
	bb.Push(isa.R4, isa.LR)
	bb.LdrLit(isa.R7, "gdata") // memory ops mostly land in gdata

	lo := func(b byte) isa.Reg { return isa.Reg(b & 7) }
	imm8 := func(b byte) int32 { return int32(b) }

	conds := []isa.Cond{isa.EQ, isa.NE, isa.LT, isa.GE, isa.GT, isa.LE, isa.HI, isa.LS}

	n := (len(data) - 2) / 3
	if n > 25 {
		n = 25
	}
	for i := 0; i < n; i++ {
		op, a, b := data[3*i+1], data[3*i+2], data[3*i+3]
		if op >= 234 {
			if (op-234)%6 == 3 {
				bb.Push(lo(a), isa.R5).AddImm(lo(a), lo(a), imm8(b)).Pop(lo(a), isa.R5)
			} else {
				c := conds[b%8]
				body.Append(isa.Instr{Op: isa.IT, Cond: c})
				body.Append(isa.Instr{Op: isa.MOV, Cond: c, Rd: lo(a), Imm: imm8(b), HasImm: true})
			}
			continue
		}
		switch op % 26 {
		case 0:
			bb.Nop()
		case 1:
			bb.MovImm(lo(a), imm8(b))
		case 2:
			bb.Add(lo(op), lo(a), lo(b))
		case 3:
			bb.AddImm(lo(a), lo(a), imm8(b))
		case 4:
			bb.Sub(lo(op), lo(a), lo(b))
		case 5:
			bb.SubImm(lo(a), lo(a), imm8(b))
		case 6:
			bb.Mul(lo(a), lo(a), lo(b))
		case 7:
			bb.CmpImm(lo(a), imm8(b))
		case 8:
			bb.Cmp(lo(a), lo(b))
		case 9:
			bb.Op3(isa.AND, lo(a), lo(a), lo(b))
		case 10:
			bb.Op3(isa.ORR, lo(a), lo(a), lo(b))
		case 11:
			bb.Op3(isa.EOR, lo(a), lo(a), lo(b))
		case 12:
			bb.OpImm(isa.RSB, lo(a), lo(b), 0)
		case 13:
			bb.Op3(isa.LSL, lo(a), lo(a), lo(b))
		case 14:
			bb.Op3(isa.LSR, lo(a), lo(a), lo(b))
		case 15:
			bb.Op3(isa.ASR, lo(a), lo(a), lo(b))
		case 16:
			bb.Op3(isa.MVN, lo(a), isa.NoReg, lo(b))
		case 17:
			bb.Op3(isa.SXTB, lo(a), isa.NoReg, lo(b))
		case 18:
			bb.Op3(isa.UXTB, lo(a), isa.NoReg, lo(b))
		case 19:
			bb.Op3(isa.UDIV, lo(op), lo(a), lo(b))
		case 20:
			bb.Op3(isa.SDIV, lo(op), lo(a), lo(b))
		case 21:
			// In-bounds of gdata for offsets 0..124; the value loaded
			// feeds later ops, diverging the two engines on any slip.
			bb.Ldr(lo(a), isa.R7, int32(op%32)*4)
		case 22:
			bb.Str(lo(a), isa.R7, int32(op%32)*4)
		case 23:
			bb.OpMem(isa.LDRSB, lo(a), isa.R7, int32(op%32))
		case 24:
			bb.OpMem(isa.STRH, lo(a), isa.R7, int32(op%32)*2)
		case 25:
			// Raw register base: usually faults — the fault message and
			// the partial stats must match between the engines.
			bb.Ldr(lo(a), lo(b), int32(op%32)*4)
		}
		if op%37 == 5 {
			bb.Bl("leaf")
		}
	}

	switch t := data[len(data)-1]; t % 5 {
	case 0:
		// fall through to m1
	case 1:
		bb.B("m2")
	case 2:
		bb.Bcond(conds[t%8], "m2")
	case 3, 4:
		// Figure 4's long-range conditional: to m2 on the condition,
		// else to m1 (t%5 == 3) or the other way round.
		c, taken, other := conds[t%8], "m2", "m1"
		if t%5 == 4 {
			taken, other = other, taken
		}
		body.Append(isa.Instr{Op: isa.IT, Cond: c, ITMask: "e"})
		body.Append(isa.Instr{Op: isa.LDRLIT, Cond: c, Rd: isa.R5, Sym: taken})
		body.Append(isa.Instr{Op: isa.LDRLIT, Cond: c.Invert(), Rd: isa.R5, Sym: other})
		body.Append(isa.Instr{Op: isa.BX, Rm: isa.R5})
	}
	ir.Build(f.AddBlock("m1")).AddImm(isa.R5, isa.R5, 1)
	ir.Build(f.AddBlock("m2")).Pop(isa.R4, isa.PC)
	p.Reindex()

	// All-flash or all-RAM: a direct bl may not cross memories without
	// indirect-branch instrumentation, which is above this layer.
	if data[0]%2 == 1 {
		return p, map[string]bool{"m0": true, "m1": true, "m2": true, "leaf_entry": true}
	}
	return p, nil
}

// FuzzFusedVsSlot is the differential property test for the fusion
// boundaries: any synthesized program must produce identical stats, fault
// messages, registers and block counts through maximal fused descriptors
// and through length-1 descriptors only (Machine.NoFuse, the beebsbench
// -nofuse knob) — pre-aggregated cycles, chaining, partial-stats flushes
// and mid-run entries all sit on that boundary. Per-instruction
// semantics are pinned separately by TestISAOracle. The seed corpus under
// testdata/fuzz covers ALU-only runs, load/store mixes, faulting
// accesses, conditional terminators, RAM placements, IT-predicated movs,
// mid-body push/pop and the Figure 4 it/ldr/ldr/bx terminator; CI replays
// it under -race.
func FuzzFusedVsSlot(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x15\x04\x00\x02\x05\x06\x07\x01\x02\x03"))
	f.Add([]byte("\x01\x19\x02\x03\x15\x01\x00\x16\x02\x04\x07\x05\x00\x04"))
	f.Add([]byte("\x02\x06\x03\x04\x15\x02\x01\x17\x03\x05\x13\x06\x01\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, inRAM := synthExecProgram(data)
		if p == nil {
			return
		}
		if err := ir.Verify(p); err != nil {
			t.Fatalf("synthesized program fails Verify: %v", err)
		}
		img, err := layout.New(p, layout.DefaultConfig(), inRAM)
		if err != nil {
			t.Fatalf("layout rejected an encodable synthesis: %v", err)
		}

		fused := New(img, power.STM32F100())
		fused.MaxInstrs = 100_000
		_, fErr := fused.Run()

		slot := New(img, power.STM32F100())
		slot.MaxInstrs = 100_000
		slot.NoFuse = true
		_, sErr := slot.Run()

		switch {
		case (fErr == nil) != (sErr == nil):
			t.Fatalf("fault divergence: fused=%v slot=%v", fErr, sErr)
		case fErr != nil && fErr.Error() != sErr.Error():
			t.Fatalf("fault mismatch:\nfused: %v\nslot:  %v", fErr, sErr)
		}
		compareMachinesFuzz(t, fused, slot)
	})
}

// compareMachinesFuzz is compareMachines without *testing.T helpers that
// only exist on tests (the fuzz target shares the assertion body).
func compareMachinesFuzz(t *testing.T, fused, slot *Machine) {
	f, s := &fused.stats, &slot.stats
	if f.Instructions != s.Instructions || f.Cycles != s.Cycles ||
		f.EnergyNJ != s.EnergyNJ || f.CyclesByMem != s.CyclesByMem ||
		f.ContentionStalls != s.ContentionStalls || fused.led != slot.led {
		t.Fatalf("stats divergence:\nfused: %+v %v\nslot:  %+v %v", f, fused.led, s, slot.led)
	}
	if fused.regs != slot.regs {
		t.Fatalf("register divergence:\nfused: %v\nslot:  %v", fused.regs, slot.regs)
	}
	fb, sb := fused.blockCountsMap(), slot.blockCountsMap()
	if len(fb) != len(sb) {
		t.Fatalf("block count divergence: %v vs %v", fb, sb)
	}
	for k, v := range sb {
		if fb[k] != v {
			t.Fatalf("BlockCounts[%s]: fused %d != slot %d", k, fb[k], v)
		}
	}
}
