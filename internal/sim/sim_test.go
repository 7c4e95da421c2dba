package sim

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/power"
)

func mustImage(t *testing.T, p *ir.Program, inRAM map[string]bool) *layout.Image {
	t.Helper()
	img, err := layout.New(p, layout.DefaultConfig(), inRAM)
	if err != nil {
		t.Fatalf("layout: %v", err)
	}
	return img
}

func run(t *testing.T, p *ir.Program, inRAM map[string]bool) (*Machine, *Stats) {
	t.Helper()
	m := New(mustImage(t, p, inRAM), power.STM32F100())
	st, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, st
}

// fig2Expected mirrors the Figure 2 function's semantics in Go.
func fig2Expected(k int32) uint32 {
	x := uint32(1)
	for i := 0; i < 64; i++ {
		x *= uint32(k)
	}
	if int32(x) > 255 {
		x = 255
	}
	return x
}

func TestFigure2Baseline(t *testing.T) {
	p := ir.Figure2Program()
	m, st := run(t, p, nil)

	got, err := m.ReadGlobal("result")
	if err != nil {
		t.Fatal(err)
	}
	if want := fig2Expected(3); got != want {
		t.Errorf("result = %d, want %d", got, want)
	}
	if st.BlockCounts["fn_loop"] != 64 {
		t.Errorf("fn_loop executed %d times, want 64", st.BlockCounts["fn_loop"])
	}
	if st.BlockCounts["fn_init"] != 1 || st.BlockCounts["fn_if"] != 1 {
		t.Errorf("init/if counts = %d/%d, want 1/1",
			st.BlockCounts["fn_init"], st.BlockCounts["fn_if"])
	}
	if st.Cycles == 0 || st.EnergyNJ <= 0 {
		t.Error("cycles/energy not accounted")
	}
	// Baseline executes everything from flash.
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		if st.CyclesByMem[power.RAM][c] != 0 {
			t.Errorf("RAM cycles for class %v in all-flash baseline", c)
		}
	}
	// fn_loop: 63 iterations at mul+add+cmp+bne(taken)=6, 1 at bne not
	// taken = 4. Spot-check the loop contributes 63*6+4 = 382 cycles.
	if st.Cycles < 382 {
		t.Errorf("total cycles %d too small to contain the loop", st.Cycles)
	}
}

// optimizedFigure2 reproduces the right-hand column of Figure 2: fn_loop
// and fn_if live in RAM; fn_init jumps in with ldr pc; fn_if returns to
// flash through the it/ldr/ldr/bx sequence.
func optimizedFigure2() (*ir.Program, map[string]bool) {
	p := ir.NewProgram()

	fn := p.AddFunc(&ir.Function{Name: "fn"})
	initB := fn.AddBlock("fn_init")
	ir.Build(initB).
		Mov(isa.R2, isa.R0).
		MovImm(isa.R1, 1).
		MovImm(isa.R0, 0)
	initB.Append(isa.Instr{Op: isa.LDRLIT, Rd: isa.PC, Sym: "fn_loop"})

	loop := fn.AddBlock("fn_loop")
	ir.Build(loop).
		Mul(isa.R1, isa.R1, isa.R2).
		AddImm(isa.R0, isa.R0, 1).
		CmpImm(isa.R0, 64).
		Bcond(isa.NE, "fn_loop")

	ifB := fn.AddBlock("fn_if")
	ir.Build(ifB).CmpImm(isa.R1, 255)
	ifB.Append(isa.Instr{Op: isa.IT, Cond: isa.LE, ITMask: "e"})
	ifB.Append(isa.Instr{Op: isa.LDRLIT, Cond: isa.LE, Rd: isa.R5, Sym: "fn_return"})
	ifB.Append(isa.Instr{Op: isa.LDRLIT, Cond: isa.GT, Rd: isa.R5, Sym: "fn_iftrue"})
	ifB.Append(isa.Instr{Op: isa.BX, Rm: isa.R5})

	iftrue := fn.AddBlock("fn_iftrue")
	ir.Build(iftrue).MovImm(isa.R1, 255)

	ret := fn.AddBlock("fn_return")
	ir.Build(ret).Mov(isa.R0, isa.R1).Ret()

	m := p.AddFunc(&ir.Function{Name: "main"})
	mb := m.AddBlock("main_entry")
	ir.Build(mb).
		Push(isa.R4, isa.LR).
		MovImm(isa.R0, 3).
		Bl("fn").
		LdrLit(isa.R4, "result").
		Str(isa.R0, isa.R4, 0).
		Pop(isa.R4, isa.PC)

	p.AddGlobal(&ir.Global{Name: "result", Size: 4})
	p.Reindex()
	return p, map[string]bool{"fn_loop": true, "fn_if": true}
}

func TestFigure2OptimizedMatchesBaselineSemantics(t *testing.T) {
	base := ir.Figure2Program()
	mBase, stBase := run(t, base, nil)

	opt, inRAM := optimizedFigure2()
	if err := ir.Verify(opt); err != nil {
		t.Fatalf("optimized program invalid: %v", err)
	}
	mOpt, stOpt := run(t, opt, inRAM)

	rBase, _ := mBase.ReadGlobal("result")
	rOpt, _ := mOpt.ReadGlobal("result")
	if rBase != rOpt {
		t.Fatalf("optimized result %d != baseline %d", rOpt, rBase)
	}

	// The paper's core claim: moving the hot blocks to RAM lowers energy
	// and average power while increasing execution time.
	if stOpt.EnergyNJ >= stBase.EnergyNJ {
		t.Errorf("optimized energy %.1f nJ >= baseline %.1f nJ", stOpt.EnergyNJ, stBase.EnergyNJ)
	}
	if stOpt.Cycles <= stBase.Cycles {
		t.Errorf("optimized cycles %d <= baseline %d (instrumentation must cost time)",
			stOpt.Cycles, stBase.Cycles)
	}
	pBase := mBase.AveragePowerMW(stBase)
	pOpt := mOpt.AveragePowerMW(stOpt)
	if pOpt >= pBase {
		t.Errorf("optimized power %.2f mW >= baseline %.2f mW", pOpt, pBase)
	}
	// Most cycles now run from RAM.
	var ramCycles, flashCycles uint64
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		ramCycles += stOpt.CyclesByMem[power.RAM][c]
		flashCycles += stOpt.CyclesByMem[power.Flash][c]
	}
	if ramCycles <= flashCycles {
		t.Errorf("RAM cycles %d <= flash cycles %d; the loop dominates and is in RAM",
			ramCycles, flashCycles)
	}
}

func TestContentionStalls(t *testing.T) {
	// A RAM-resident block loading from RAM pays the single-port stall.
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "ramfn"})
	b := f.AddBlock("ramfn_body")
	ir.Build(b).
		LdrLit(isa.R1, "buf").
		Ldr(isa.R0, isa.R1, 0).
		Ret()
	m := p.AddFunc(&ir.Function{Name: "main"})
	mb := m.AddBlock("main_entry")
	ir.Build(mb).
		Push(isa.R4, isa.LR).
		LdrLit(isa.R4, "ramfn").
		Blx(isa.R4).
		Pop(isa.R4, isa.PC)
	p.AddGlobal(&ir.Global{Name: "buf", Size: 4, Init: []byte{7, 0, 0, 0}})
	p.Reindex()

	_, st := run(t, p, map[string]bool{"ramfn_body": true})
	// Two stalls: the literal load (pool in RAM) and the data load (buf in
	// RAM), both fetched from RAM.
	if st.ContentionStalls != 2 {
		t.Errorf("ContentionStalls = %d, want 2", st.ContentionStalls)
	}

	// Same program all in flash: no stalls.
	p2 := p.Clone()
	_, st2 := run(t, p2, nil)
	if st2.ContentionStalls != 0 {
		t.Errorf("flash run stalls = %d, want 0", st2.ContentionStalls)
	}
}

func TestCrossLoadPowerCharged(t *testing.T) {
	// RAM code loading a flash constant draws CrossLoadPower (the tall
	// final bar of Figure 1) — total energy must exceed the same code
	// loading from RAM.
	build := func(ro bool) *ir.Program {
		p := ir.NewProgram()
		f := p.AddFunc(&ir.Function{Name: "ramfn"})
		b := f.AddBlock("ramfn_body")
		bb := ir.Build(b).LdrLit(isa.R1, "cdata")
		for i := 0; i < 32; i++ {
			bb.Ldr(isa.R0, isa.R1, 0)
		}
		bb.Ret()
		m := p.AddFunc(&ir.Function{Name: "main"})
		mb := m.AddBlock("main_entry")
		ir.Build(mb).
			Push(isa.R4, isa.LR).
			LdrLit(isa.R4, "ramfn").
			Blx(isa.R4).
			Pop(isa.R4, isa.PC)
		p.AddGlobal(&ir.Global{Name: "cdata", Size: 4, RO: ro})
		p.Reindex()
		return p
	}
	inRAM := map[string]bool{"ramfn_body": true}
	_, stFlashData := run(t, build(true), inRAM)
	_, stRAMData := run(t, build(false), inRAM)
	if stFlashData.EnergyNJ <= stRAMData.EnergyNJ {
		t.Errorf("flash-data energy %.1f <= RAM-data energy %.1f; Figure 1's last bar requires more",
			stFlashData.EnergyNJ, stRAMData.EnergyNJ)
	}
	// But the RAM-data version stalls, so it takes more cycles.
	if stRAMData.Cycles <= stFlashData.Cycles {
		t.Errorf("RAM-data cycles %d <= flash-data cycles %d; contention stall expected",
			stRAMData.Cycles, stFlashData.Cycles)
	}
}

func TestStoreToFlashFaults(t *testing.T) {
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})
	b := f.AddBlock("entry")
	ir.Build(b).
		LdrLit(isa.R1, "ro").
		MovImm(isa.R0, 1).
		Str(isa.R0, isa.R1, 0).
		Ret()
	p.AddGlobal(&ir.Global{Name: "ro", Size: 4, RO: true})
	p.Reindex()

	m := New(mustImage(t, p, nil), power.STM32F100())
	_, err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "store to flash") {
		t.Fatalf("err = %v, want store-to-flash fault", err)
	}
}

func TestBadJumpFaults(t *testing.T) {
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})
	b := f.AddBlock("entry")
	ir.Build(b).
		MovImm(isa.R0, 0x1000).
		Blx(isa.R0).
		Ret()
	p.Reindex()
	m := New(mustImage(t, p, nil), power.STM32F100())
	_, err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "non-instruction") {
		t.Fatalf("err = %v, want bad-jump fault", err)
	}
}

func TestInstructionLimit(t *testing.T) {
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})
	b := f.AddBlock("spin")
	ir.Build(b).B("spin")
	p.Reindex()
	m := New(mustImage(t, p, nil), power.STM32F100())
	m.MaxInstrs = 1000
	_, err := m.Run()
	if err == nil || !strings.Contains(err.Error(), "instruction limit") {
		t.Fatalf("err = %v, want instruction limit", err)
	}
}

func TestArithmeticOps(t *testing.T) {
	// One block computing a mix of operations, storing results to memory.
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})
	b := f.AddBlock("entry")
	bb := ir.Build(b)
	bb.LdrLit(isa.R7, "out")
	// r0 = 100; r1 = 7
	bb.MovImm(isa.R0, 100).MovImm(isa.R1, 7)
	bb.Op3(isa.SDIV, isa.R2, isa.R0, isa.R1) // 14
	bb.Str(isa.R2, isa.R7, 0)
	bb.Op3(isa.UDIV, isa.R2, isa.R0, isa.R1) // 14
	bb.Str(isa.R2, isa.R7, 4)
	bb.OpImm(isa.LSL, isa.R2, isa.R0, 3) // 800
	bb.Str(isa.R2, isa.R7, 8)
	bb.OpImm(isa.ASR, isa.R2, isa.R0, 2) // 25
	bb.Str(isa.R2, isa.R7, 12)
	bb.Op3(isa.EOR, isa.R2, isa.R0, isa.R1) // 99
	bb.Str(isa.R2, isa.R7, 16)
	bb.Op3(isa.BIC, isa.R2, isa.R0, isa.R1) // 100 &^ 7 = 96
	bb.Str(isa.R2, isa.R7, 20)
	bb.OpImm(isa.RSB, isa.R2, isa.R1, 0) // -7
	bb.Str(isa.R2, isa.R7, 24)
	// sdiv by zero → 0
	bb.MovImm(isa.R3, 0)
	bb.Op3(isa.SDIV, isa.R2, isa.R0, isa.R3)
	bb.Str(isa.R2, isa.R7, 28)
	bb.Ret()
	p.AddGlobal(&ir.Global{Name: "out", Size: 32})
	p.Reindex()

	m, _ := run(t, p, nil)
	base := m.Img.Symbols["out"]
	wants := []uint32{14, 14, 800, 25, 99, 96, uint32(0xFFFFFFF9), 0}
	for i, w := range wants {
		got, err := m.ReadWord(base + uint32(4*i))
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Errorf("out[%d] = %d (%#x), want %d", i, got, got, w)
		}
	}
}

// TestISAOracle pins the edge cases of the instruction semantics with
// hand-computed expected values, so the executor is checked against an
// oracle independent of any second implementation. Each case loads its
// input registers from literal constants, runs its body (r7 points at a
// scratch buffer initialized from mem), returns, and is checked on
// registers, the NZCV flags and the buffer.
func TestISAOracle(t *testing.T) {
	const (
		r0, r1, r2, r3, r7 = isa.R0, isa.R1, isa.R2, isa.R3, isa.R7
	)
	rrr := func(op isa.Op, rd, rn, rm isa.Reg) isa.Instr {
		return isa.Instr{Op: op, Rd: rd, Rn: rn, Rm: rm}
	}
	s := func(in isa.Instr) isa.Instr { in.SetFlags = true; return in }
	cmp := func(rn, rm isa.Reg) isa.Instr { return isa.Instr{Op: isa.CMP, Rn: rn, Rm: rm} }
	cmn := func(rn, rm isa.Reg) isa.Instr { return isa.Instr{Op: isa.CMN, Rn: rn, Rm: rm} }
	unary := func(op isa.Op, rd, rm isa.Reg) isa.Instr {
		return isa.Instr{Op: op, Rd: rd, Rn: isa.NoReg, Rm: rm}
	}
	mem := func(op isa.Op, rd isa.Reg, off int32) isa.Instr {
		return isa.Instr{Op: op, Rd: rd, Rn: r7, Mode: isa.AddrOffset, Imm: off}
	}
	pred := func(c isa.Cond, in isa.Instr) isa.Instr { in.Cond = c; return in }
	it := func(c isa.Cond) isa.Instr { return isa.Instr{Op: isa.IT, Cond: c} }
	type regs map[isa.Reg]uint32
	const intMin = 0x80000000

	cases := []struct {
		name  string
		in    regs
		body  []isa.Instr
		want  regs
		nzcv  string         // expected flags as "NZCV" bits, "" = unchecked
		mem   []byte         // initial scratch buffer
		words map[int]uint32 // expected buffer words by byte offset
	}{
		{name: "sdiv INT_MIN/-1", in: regs{r0: intMin, r1: 0xFFFFFFFF},
			body: []isa.Instr{rrr(isa.SDIV, r2, r0, r1)}, want: regs{r2: intMin}},
		{name: "sdiv by zero", in: regs{r0: 0xFFFFFF9C, r1: 0, r2: 7},
			body: []isa.Instr{rrr(isa.SDIV, r2, r0, r1)}, want: regs{r2: 0}},
		{name: "sdiv negative", in: regs{r0: 0xFFFFFF9C, r1: 7},
			body: []isa.Instr{rrr(isa.SDIV, r2, r0, r1)}, want: regs{r2: 0xFFFFFFF2}}, // -100/7 = -14
		{name: "udiv by zero", in: regs{r0: 100, r1: 0, r2: 7},
			body: []isa.Instr{rrr(isa.UDIV, r2, r0, r1)}, want: regs{r2: 0}},
		{name: "udiv unsigned", in: regs{r0: 0xFFFFFFFE, r1: 2},
			body: []isa.Instr{rrr(isa.UDIV, r2, r0, r1)}, want: regs{r2: 0x7FFFFFFF}},

		{name: "lsl by reg 0/31/32/255/256", in: regs{r0: 0x80000001, r1: 0, r2: 31, r3: 32, isa.R4: 255, isa.R5: 256},
			body: []isa.Instr{rrr(isa.LSL, r1, r0, r1), rrr(isa.LSL, r2, r0, r2), rrr(isa.LSL, r3, r0, r3),
				rrr(isa.LSL, isa.R4, r0, isa.R4), rrr(isa.LSL, isa.R5, r0, isa.R5)},
			want: regs{r1: 0x80000001, r2: 0x80000000, r3: 0, isa.R4: 0, isa.R5: 0x80000001}},
		{name: "lsr by reg 0/31/32/255", in: regs{r0: 0x80000001, r1: 0, r2: 31, r3: 32, isa.R4: 255},
			body: []isa.Instr{rrr(isa.LSR, r1, r0, r1), rrr(isa.LSR, r2, r0, r2), rrr(isa.LSR, r3, r0, r3),
				rrr(isa.LSR, isa.R4, r0, isa.R4)},
			want: regs{r1: 0x80000001, r2: 1, r3: 0, isa.R4: 0}},
		{name: "asr by reg 0/31/32/255", in: regs{r0: 0x80000001, r1: 0, r2: 31, r3: 32, isa.R4: 255, isa.R5: 0x40000000, isa.R6: 32},
			body: []isa.Instr{rrr(isa.ASR, r1, r0, r1), rrr(isa.ASR, r2, r0, r2), rrr(isa.ASR, r3, r0, r3),
				rrr(isa.ASR, isa.R4, r0, isa.R4), rrr(isa.ASR, isa.R6, isa.R5, isa.R6)},
			want: regs{r1: 0x80000001, r2: 0xFFFFFFFF, r3: 0xFFFFFFFF, isa.R4: 0xFFFFFFFF, isa.R6: 0}},
		{name: "ror by reg 0/1/32", in: regs{r0: 0x80000001, r1: 0, r2: 1, r3: 32},
			body: []isa.Instr{rrr(isa.ROR, r1, r0, r1), rrr(isa.ROR, r2, r0, r2), rrr(isa.ROR, r3, r0, r3)},
			want: regs{r1: 0x80000001, r2: 0xC0000000, r3: 0x80000001}},

		// cmp r0, r0 sets C (no borrow); cmp r3, r0 with r3 < r0 clears it.
		{name: "adc carry set", in: regs{r0: 5, r1: 10, r2: 20},
			body: []isa.Instr{cmp(r0, r0), rrr(isa.ADC, r3, r1, r2)}, want: regs{r3: 31}},
		{name: "adc carry clear", in: regs{r0: 5, r1: 10, r2: 20, r3: 0},
			body: []isa.Instr{cmp(r3, r0), rrr(isa.ADC, r3, r1, r2)}, want: regs{r3: 30}},
		{name: "sbc carry set", in: regs{r0: 5, r1: 10, r2: 3},
			body: []isa.Instr{cmp(r0, r0), rrr(isa.SBC, r3, r1, r2)}, want: regs{r3: 7}},
		{name: "sbc carry clear", in: regs{r0: 5, r1: 10, r2: 3, r3: 0},
			body: []isa.Instr{cmp(r3, r0), rrr(isa.SBC, r3, r1, r2)}, want: regs{r3: 6}},
		{name: "adcs carry out", in: regs{r0: 5, r1: 0xFFFFFFFF, r2: 0},
			body: []isa.Instr{cmp(r0, r0), s(rrr(isa.ADC, r3, r1, r2))}, want: regs{r3: 0}, nzcv: "0110"},

		{name: "adds signed overflow", in: regs{r0: 0x7FFFFFFF, r1: 1},
			body: []isa.Instr{s(rrr(isa.ADD, r2, r0, r1))}, want: regs{r2: intMin}, nzcv: "1001"},
		{name: "adds unsigned wrap", in: regs{r0: 0xFFFFFFFF, r1: 1},
			body: []isa.Instr{s(rrr(isa.ADD, r2, r0, r1))}, want: regs{r2: 0}, nzcv: "0110"},
		{name: "adds both overflow", in: regs{r0: intMin, r1: intMin},
			body: []isa.Instr{s(rrr(isa.ADD, r2, r0, r1))}, want: regs{r2: 0}, nzcv: "0111"},
		{name: "subs signed overflow", in: regs{r0: intMin, r1: 1},
			body: []isa.Instr{s(rrr(isa.SUB, r2, r0, r1))}, want: regs{r2: 0x7FFFFFFF}, nzcv: "0011"},
		{name: "subs borrow", in: regs{r0: 0, r1: 1},
			body: []isa.Instr{s(rrr(isa.SUB, r2, r0, r1))}, want: regs{r2: 0xFFFFFFFF}, nzcv: "1000"},
		{name: "rsbs borrow", in: regs{r0: 1},
			body: []isa.Instr{s(isa.Instr{Op: isa.RSB, Rd: r2, Rn: r0, HasImm: true})}, want: regs{r2: 0xFFFFFFFF}, nzcv: "1000"},
		{name: "rsbs negate INT_MIN", in: regs{r0: intMin},
			body: []isa.Instr{s(isa.Instr{Op: isa.RSB, Rd: r2, Rn: r0, HasImm: true})}, want: regs{r2: intMin}, nzcv: "1001"},
		{name: "cmn signed overflow", in: regs{r0: 0x7FFFFFFF, r1: 1},
			body: []isa.Instr{cmn(r0, r1)}, nzcv: "1001"},
		{name: "cmn unsigned wrap", in: regs{r0: 0xFFFFFFFF, r1: 1},
			body: []isa.Instr{cmn(r0, r1)}, nzcv: "0110"},
		{name: "cmp equal", in: regs{r0: 5, r1: 5}, body: []isa.Instr{cmp(r0, r1)}, nzcv: "0110"},
		{name: "cmp signed overflow", in: regs{r0: intMin, r1: 1}, body: []isa.Instr{cmp(r0, r1)}, nzcv: "0011"},
		{name: "cmp borrow", in: regs{r0: 0, r1: 1}, body: []isa.Instr{cmp(r0, r1)}, nzcv: "1000"},

		{name: "sxth/uxth/clz of 0", in: regs{r0: 0, r1: 9, r2: 9, r3: 9},
			body: []isa.Instr{unary(isa.SXTH, r1, r0), unary(isa.UXTH, r2, r0), unary(isa.CLZ, r3, r0)},
			want: regs{r1: 0, r2: 0, r3: 32}},
		{name: "sxth/uxth/clz of INT_MIN", in: regs{r0: intMin},
			body: []isa.Instr{unary(isa.SXTH, r1, r0), unary(isa.UXTH, r2, r0), unary(isa.CLZ, r3, r0)},
			want: regs{r1: 0, r2: 0, r3: 0}},
		{name: "sxth/uxth of 0xffff8000", in: regs{r0: 0xFFFF8000},
			body: []isa.Instr{unary(isa.SXTH, r1, r0), unary(isa.UXTH, r2, r0)},
			want: regs{r1: 0xFFFF8000, r2: 0x8000}},
		{name: "clz immediate", body: []isa.Instr{{Op: isa.CLZ, Rd: r1, Rn: isa.NoReg, Imm: 0x00010000, HasImm: true}},
			want: regs{r1: 15}},

		{name: "ldrsb/ldrsh sign extension", mem: []byte{0x80, 0x7F, 0x00, 0x80, 0xFF, 0x7F, 0, 0},
			body: []isa.Instr{mem(isa.LDRSB, r0, 0), mem(isa.LDRSB, r1, 1), mem(isa.LDRSH, r2, 2), mem(isa.LDRSH, r3, 4)},
			want: regs{r0: 0xFFFFFF80, r1: 0x7F, r2: 0xFFFF8000, r3: 0x7FFF}},
		{name: "ldrb/ldrh zero extension", mem: []byte{0x80, 0x7F, 0x00, 0x80, 0, 0, 0, 0},
			body: []isa.Instr{mem(isa.LDRB, r0, 0), mem(isa.LDRH, r2, 2)},
			want: regs{r0: 0x80, r2: 0x8000}},

		// cmp r0, r0 sets Z: the ne-predicated access must not happen.
		{name: "predicated load fails", in: regs{r0: 1, r1: 0x1234}, mem: []byte{0xEF, 0xBE, 0xAD, 0xDE},
			body: []isa.Instr{cmp(r0, r0), it(isa.NE), pred(isa.NE, mem(isa.LDR, r1, 0))},
			want: regs{r1: 0x1234}, nzcv: "0110", words: map[int]uint32{0: 0xDEADBEEF}},
		{name: "predicated store fails", in: regs{r0: 1, r1: 0x1234}, mem: []byte{0xEF, 0xBE, 0xAD, 0xDE},
			body: []isa.Instr{cmp(r0, r0), it(isa.NE), pred(isa.NE, mem(isa.STR, r1, 0))},
			want: regs{r1: 0x1234}, words: map[int]uint32{0: 0xDEADBEEF}},
		{name: "predicated load passes", in: regs{r0: 1, r1: 0x1234}, mem: []byte{0xEF, 0xBE, 0xAD, 0xDE},
			body: []isa.Instr{cmp(r0, r0), it(isa.EQ), pred(isa.EQ, mem(isa.LDR, r1, 0))},
			want: regs{r1: 0xDEADBEEF}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := ir.NewProgram()
			f := p.AddFunc(&ir.Function{Name: "main"})
			b := f.AddBlock("entry")
			bb := ir.Build(b)
			for r := isa.R0; r <= isa.R6; r++ {
				if v, ok := tc.in[r]; ok {
					bb.LdrConst(r, int32(v))
				}
			}
			buf := tc.mem
			if buf == nil {
				buf = make([]byte, 4)
			}
			p.AddGlobal(&ir.Global{Name: "scratch", Size: len(buf), Init: buf})
			bb.LdrLit(r7, "scratch")
			for _, in := range tc.body {
				b.Append(in)
			}
			bb.Ret()
			p.Reindex()

			m, _ := run(t, p, nil)
			for r, w := range tc.want {
				if got := m.Reg(r); got != w {
					t.Errorf("%v = %#x, want %#x", r, got, w)
				}
			}
			if tc.nzcv != "" {
				bit := func(b bool) byte {
					if b {
						return '1'
					}
					return '0'
				}
				got := string([]byte{bit(m.n), bit(m.z), bit(m.c), bit(m.v)})
				if got != tc.nzcv {
					t.Errorf("NZCV = %s, want %s", got, tc.nzcv)
				}
			}
			base := m.Img.Symbols["scratch"]
			for off, w := range tc.words {
				if got, _ := m.ReadWord(base + uint32(off)); got != w {
					t.Errorf("scratch[%d] = %#x, want %#x", off, got, w)
				}
			}
		})
	}
}

// TestPredicatedFailCharge: a failed predicated load charges one issue
// cycle at its own class with no data access and no stall, exactly like
// any failed predicate — observed per instruction through the event
// stream, from RAM so a stall would show.
func TestPredicatedFailCharge(t *testing.T) {
	p := ir.NewProgram()
	fn := p.AddFunc(&ir.Function{Name: "ramfn"})
	b := fn.AddBlock("ramfn_body")
	ir.Build(b).LdrLit(isa.R1, "buf").CmpImm(isa.R1, 0) // buf != 0: NE holds, EQ fails
	b.Append(isa.Instr{Op: isa.IT, Cond: isa.EQ, ITMask: "e"})
	b.Append(isa.Instr{Op: isa.LDR, Cond: isa.EQ, Rd: isa.R0, Rn: isa.R1, Mode: isa.AddrOffset})
	b.Append(isa.Instr{Op: isa.LDR, Cond: isa.NE, Rd: isa.R2, Rn: isa.R1, Mode: isa.AddrOffset})
	ir.Build(b).Ret()
	mn := p.AddFunc(&ir.Function{Name: "main"})
	ir.Build(mn.AddBlock("main_entry")).
		Push(isa.R4, isa.LR).
		LdrLit(isa.R4, "ramfn").
		Blx(isa.R4).
		Pop(isa.R4, isa.PC)
	p.AddGlobal(&ir.Global{Name: "buf", Size: 4, Init: []byte{7, 0, 0, 0}})
	p.Reindex()

	m := New(mustImage(t, p, map[string]bool{"ramfn_body": true}), power.STM32F100())
	rec := &recordingObserver{}
	m.Attach(rec)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Reg(isa.R0) != 0 || m.Reg(isa.R2) != 7 {
		t.Errorf("r0, r2 = %d, %d; want 0 (skipped), 7 (loaded)", m.Reg(isa.R0), m.Reg(isa.R2))
	}
	var failed, passed *Event
	for i := range rec.events {
		if e := &rec.events[i]; e.Block.Block.Label == "ramfn_body" {
			switch e.Index {
			case 3:
				failed = e
			case 4:
				passed = e
			}
		}
	}
	if failed == nil || passed == nil {
		t.Fatal("predicated loads produced no events")
	}
	if failed.Cycles != 1 || failed.Stall != 0 || failed.DataMem != power.None ||
		failed.Class != isa.ClassLoad || failed.Taken {
		t.Errorf("failed predicate event %+v, want 1 cycle, no stall, no data access, load class", *failed)
	}
	if passed.Cycles != uint64(isa.LoadCycles+isa.RAMContentionStall) || passed.Stall != isa.RAMContentionStall ||
		passed.DataMem != power.RAM {
		t.Errorf("passed predicate event %+v, want a stalled RAM load", *passed)
	}
}

func TestByteHalfwordAccess(t *testing.T) {
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})
	b := f.AddBlock("entry")
	bb := ir.Build(b)
	bb.LdrLit(isa.R7, "buf").LdrLit(isa.R6, "out")
	// Store 0x80 as a byte, load signed and unsigned.
	bb.MovImm(isa.R0, 0x80)
	bb.OpMem(isa.STRB, isa.R0, isa.R7, 0)
	bb.OpMem(isa.LDRB, isa.R1, isa.R7, 0)
	bb.Str(isa.R1, isa.R6, 0) // 0x80
	bb.OpMem(isa.LDRSB, isa.R1, isa.R7, 0)
	bb.Str(isa.R1, isa.R6, 4) // 0xFFFFFF80
	// Halfword 0x8000.
	bb.LdrConst(isa.R0, 0x8000)
	bb.OpMem(isa.STRH, isa.R0, isa.R7, 4)
	bb.OpMem(isa.LDRH, isa.R1, isa.R7, 4)
	bb.Str(isa.R1, isa.R6, 8) // 0x8000
	bb.OpMem(isa.LDRSH, isa.R1, isa.R7, 4)
	bb.Str(isa.R1, isa.R6, 12) // 0xFFFF8000
	bb.Ret()
	p.AddGlobal(&ir.Global{Name: "buf", Size: 8})
	p.AddGlobal(&ir.Global{Name: "out", Size: 16})
	p.Reindex()

	m, _ := run(t, p, nil)
	base := m.Img.Symbols["out"]
	wants := []uint32{0x80, 0xFFFFFF80, 0x8000, 0xFFFF8000}
	for i, w := range wants {
		got, _ := m.ReadWord(base + uint32(4*i))
		if got != w {
			t.Errorf("out[%d] = %#x, want %#x", i, got, w)
		}
	}
}

func TestGlobalInitCopied(t *testing.T) {
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})
	b := f.AddBlock("entry")
	ir.Build(b).
		LdrLit(isa.R1, "init").
		Ldr(isa.R0, isa.R1, 0).
		LdrLit(isa.R2, "out").
		Str(isa.R0, isa.R2, 0).
		Ret()
	p.AddGlobal(&ir.Global{Name: "init", Size: 4, Init: []byte{0x78, 0x56, 0x34, 0x12}})
	p.AddGlobal(&ir.Global{Name: "out", Size: 4})
	p.Reindex()
	m, _ := run(t, p, nil)
	got, _ := m.ReadGlobal("out")
	if got != 0x12345678 {
		t.Errorf("out = %#x, want 0x12345678", got)
	}
}

func TestReadGlobalErrors(t *testing.T) {
	p := ir.Figure2Program()
	m := New(mustImage(t, p, nil), power.STM32F100())
	if _, err := m.ReadGlobal("nosuch"); err == nil {
		t.Error("expected error for unknown global")
	}
	if _, err := m.ReadGlobalBytes("nosuch", 4); err == nil {
		t.Error("expected error for unknown global")
	}
	if _, err := m.ReadWord(0); err == nil {
		t.Error("expected error for unmapped address")
	}
}

func TestResetReproducibility(t *testing.T) {
	p := ir.Figure2Program()
	m := New(mustImage(t, p, nil), power.STM32F100())
	st1, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	st2, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st1.Cycles != st2.Cycles || st1.EnergyNJ != st2.EnergyNJ ||
		st1.Instructions != st2.Instructions {
		t.Errorf("runs differ after Reset: %+v vs %+v", st1, st2)
	}
}

// straddleProg builds a program performing one word access at addr.
func straddleProg(addr uint32, store bool) *ir.Program {
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})
	b := f.AddBlock("entry")
	bb := ir.Build(b).LdrConst(isa.R1, int32(addr))
	if store {
		bb.MovImm(isa.R0, 1).Str(isa.R0, isa.R1, 0)
	} else {
		bb.Ldr(isa.R0, isa.R1, 0)
	}
	bb.Ret()
	p.Reindex()
	return p
}

func TestAccessStraddleFaults(t *testing.T) {
	c := layout.DefaultConfig()
	cases := []struct {
		name  string
		addr  uint32
		store bool
		want  string
	}{
		{"load across flash end", c.FlashBase + uint32(c.FlashSize) - 2, false,
			"4-byte load at 0x800fffe straddles the flash boundary"},
		{"load across ram end", c.RAMBase + uint32(c.RAMSize) - 2, false,
			"4-byte load at 0x20001ffe straddles the ram boundary"},
		{"store across ram end", c.RAMBase + uint32(c.RAMSize) - 2, true,
			"4-byte store at 0x20001ffe straddles the ram boundary"},
		{"load fully outside", 0x40000000, false, "load outside memory at 0x40000000"},
		{"store fully outside", 0x40000000, true, "store outside memory at 0x40000000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(mustImage(t, straddleProg(tc.addr, tc.store), nil), power.STM32F100())
			_, err := m.Run()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestStraddleAdjacentMemories(t *testing.T) {
	// With RAM mapped directly after flash, a word load across the seam
	// touches both memories. The pre-predecode simulator silently charged
	// the access to whichever memory held the last byte; now it faults, as
	// no single power domain can be attributed.
	c := layout.DefaultConfig()
	c.RAMBase = c.FlashBase + uint32(c.FlashSize)
	addr := c.RAMBase - 2
	img, err := layout.New(straddleProg(addr, false), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := New(img, power.STM32F100())
	if _, err := m.Run(); err == nil ||
		!strings.Contains(err.Error(), "straddles the flash boundary") {
		t.Fatalf("err = %v, want flash-boundary straddle fault", err)
	}
}

// recordingObserver copies out every event for later comparison.
type recordingObserver struct{ events []Event }

func (r *recordingObserver) Event(e *Event) { r.events = append(r.events, *e) }

func TestSetImageReuseMatchesFresh(t *testing.T) {
	// One machine retargeted across images via SetImage must produce
	// exactly the stats and event stream of a machine built fresh for each
	// image and profile — this is the contract the machine pool (Acquire,
	// Release) relies on. The last case keeps the image and swaps the
	// profile: the energy tables must follow the profile, not just the
	// image.
	profA := power.STM32F100()
	profB := new(power.Profile)
	*profB = *profA
	profB.FetchPower[power.Flash][isa.ClassALU] *= 1.5
	flashImg := mustImage(t, ir.Figure2Program(), nil)
	opt, _ := optimizedFigure2()
	cases := []struct {
		img  *layout.Image
		prof *power.Profile
	}{
		{flashImg, profA},
		{mustImage(t, opt, map[string]bool{"fn_loop": true, "fn_if": true}), profA},
		{mustImage(t, ir.Figure2Program(), nil), profA}, // distinct image: retarget back to all-flash
		{flashImg, profA},
		{flashImg, profB}, // same image, changed profile
	}
	reused := &Machine{}
	var energy []float64
	for i, tc := range cases {
		fresh := New(tc.img, tc.prof)
		fObs := &recordingObserver{}
		fresh.Attach(fObs)
		fSt, err := fresh.Run()
		if err != nil {
			t.Fatalf("case %d fresh: %v", i, err)
		}

		reused.Profile = tc.prof
		reused.SetImage(tc.img)
		rObs := &recordingObserver{}
		reused.Attach(rObs)
		rSt, err := reused.Run()
		if err != nil {
			t.Fatalf("case %d reused: %v", i, err)
		}

		energy = append(energy, fSt.EnergyNJ)
		if fSt.Instructions != rSt.Instructions || fSt.Cycles != rSt.Cycles ||
			fSt.EnergyNJ != rSt.EnergyNJ || fSt.ContentionStalls != rSt.ContentionStalls ||
			fSt.CyclesByMem != rSt.CyclesByMem {
			t.Errorf("case %d: reused stats %+v != fresh %+v", i, rSt, fSt)
		}
		if len(fSt.BlockCounts) != len(rSt.BlockCounts) {
			t.Errorf("case %d: block count maps differ", i)
		}
		for k, v := range fSt.BlockCounts {
			if rSt.BlockCounts[k] != v {
				t.Errorf("case %d: BlockCounts[%s] = %d, want %d", i, k, rSt.BlockCounts[k], v)
			}
		}
		if len(fObs.events) != len(rObs.events) {
			t.Fatalf("case %d: %d events reused vs %d fresh", i, len(rObs.events), len(fObs.events))
		}
		for j := range fObs.events {
			if fObs.events[j] != rObs.events[j] {
				t.Fatalf("case %d event %d: reused %+v != fresh %+v",
					i, j, rObs.events[j], fObs.events[j])
			}
		}
	}
	if energy[3] == energy[4] {
		t.Fatal("precondition: the tweaked profile does not change the energy")
	}
}

func TestSetImageSameImageSkipsRebuild(t *testing.T) {
	img := mustImage(t, ir.Figure2Program(), nil)
	m := New(img, power.STM32F100())
	st1, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	tbl := &m.eng.flash[0]
	m.SetImage(img) // same image: tables must be kept, state reset
	if &m.eng.flash[0] != tbl {
		t.Error("SetImage with unchanged image rebuilt the predecode table")
	}
	st2, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st1.Cycles != st2.Cycles || st1.EnergyNJ != st2.EnergyNJ {
		t.Errorf("stats differ after same-image SetImage: %+v vs %+v", st1, st2)
	}
}

func TestPredicationCostsOneCycle(t *testing.T) {
	// mov(1) + cmp(1) + it(1) + failing addeq(1) + passing addne(1) + bx(3)
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})
	b := f.AddBlock("entry")
	ir.Build(b).MovImm(isa.R0, 1).CmpImm(isa.R0, 0)
	b.Append(isa.Instr{Op: isa.IT, Cond: isa.EQ, ITMask: "e"})
	b.Append(isa.Instr{Op: isa.ADD, Cond: isa.EQ, Rd: isa.R1, Rn: isa.R1, Imm: 5, HasImm: true})
	b.Append(isa.Instr{Op: isa.ADD, Cond: isa.NE, Rd: isa.R1, Rn: isa.R1, Imm: 9, HasImm: true})
	b.Append(isa.Instr{Op: isa.BX, Rm: isa.LR})
	p.Reindex()
	m, st := run(t, p, nil)
	if got := m.Reg(isa.R1); got != 9 {
		t.Errorf("r1 = %d, want 9 (eq path must be skipped)", got)
	}
	if st.Cycles != 8 {
		t.Errorf("cycles = %d, want 8", st.Cycles)
	}
}

// TestUnresolvedSymbolFaults pins the fault contract for symbols the
// image cannot resolve: a direct branch charges like a taken branch and
// then faults at itself, while adr and a literal load fault before
// charging. Fused, length-1 and observed runs must agree.
func TestUnresolvedSymbolFaults(t *testing.T) {
	cases := []struct {
		name   string
		in     isa.Instr
		reason string
		instrs uint64 // instructions charged before the fault
	}{
		{"b", isa.Instr{Op: isa.B, Sym: "nowhere"}, `branch to unresolved "nowhere"`, 2},
		{"bl", isa.Instr{Op: isa.BL, Sym: "nowhere"}, `branch to unresolved "nowhere"`, 2},
		{"b<cond> taken", isa.Instr{Op: isa.B, Cond: isa.NE, Sym: "nowhere"}, `branch to unresolved "nowhere"`, 2},
		{"adr", isa.Instr{Op: isa.ADR, Rd: isa.R1, Sym: "nowhere"}, `unresolved adr "nowhere"`, 1},
		{"ldr =sym", isa.Instr{Op: isa.LDRLIT, Rd: isa.R1, Sym: "nowhere"}, `unresolved literal "nowhere"`, 1},
		{"ldr pc", isa.Instr{Op: isa.LDRLIT, Rd: isa.PC, Sym: "nowhere"}, `unresolved literal "nowhere"`, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := ir.NewProgram()
			b := p.AddFunc(&ir.Function{Name: "main"}).AddBlock("entry")
			ir.Build(b).MovImm(isa.R0, 1).AddImm(isa.R0, isa.R0, 1)
			b.Append(tc.in)
			ir.Build(b).Ret()
			p.Reindex()
			img := mustImage(t, p, nil)
			var msgs []string
			for _, mode := range []string{"fused", "nofuse", "observed"} {
				m := New(img, power.STM32F100())
				rec := &recordingObserver{}
				switch mode {
				case "nofuse":
					m.NoFuse = true
				case "observed":
					m.Attach(rec)
				}
				_, err := m.Run()
				if err == nil || !strings.Contains(err.Error(), tc.reason) ||
					!strings.Contains(err.Error(), "block entry") {
					t.Fatalf("%s: err = %v, want %q in block entry", mode, err, tc.reason)
				}
				if got := m.stats.Instructions; got != tc.instrs+1 {
					t.Errorf("%s: %d instructions charged, want %d", mode, got, tc.instrs+1)
				}
				if mode == "observed" && uint64(len(rec.events)) != m.stats.Instructions {
					t.Errorf("%d events for %d charged instructions", len(rec.events), m.stats.Instructions)
				}
				msgs = append(msgs, err.Error())
			}
			if msgs[0] != msgs[1] || msgs[0] != msgs[2] {
				t.Errorf("fault messages differ across dispatch modes: %q", msgs)
			}
		})
	}
}

// Release parks at most max(GOMAXPROCS, 2) machines with their per-run knobs
// cleared, and Acquire prefers a parked machine that already holds the
// image under the profile.
func TestPoolBoundAndImagePreference(t *testing.T) {
	pool.mu.Lock()
	pool.free = nil
	pool.mu.Unlock()
	prof := power.STM32F100()
	a := mustImage(t, ir.Figure2Program(), nil)
	b := mustImage(t, ir.Figure2Program(), nil)

	n := max(runtime.GOMAXPROCS(0), 2)
	ms := make([]*Machine, n+2)
	for i := range ms {
		ms[i] = Acquire(a, prof)
	}
	for _, m := range ms {
		m.Release()
	}
	if got := len(pool.free); got != n {
		t.Fatalf("%d machines parked, want max(GOMAXPROCS, 2) = %d", got, n)
	}

	mb := Acquire(b, prof)
	mb.MaxInstrs, mb.NoFuse = 7, true
	mb.Attach(&recordingObserver{})
	mb.Release()
	if got := Acquire(a, prof); got == mb {
		t.Error("Acquire(a) took the machine holding b over ones holding a")
	} else {
		got.Release()
	}
	got := Acquire(b, prof)
	if got != mb {
		t.Fatal("Acquire(b) did not take the machine holding b")
	}
	if got.MaxInstrs != 0 || got.NoFuse || got.obs != nil {
		t.Errorf("released machine kept its knobs: MaxInstrs %d, NoFuse %v, observer %v", got.MaxInstrs, got.NoFuse, got.obs)
	}
	got.Release()
}
