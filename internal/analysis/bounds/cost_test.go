package bounds

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/power"
	"repro/internal/sim"
)

// costRow is one cell of an instruction's cost: fetched from fetch, its
// data access hitting data (power.None if it makes none), in outcome o, it
// costs cycles, stall of them the RAM port's.
type costRow struct {
	fetch, data   power.Memory
	o             isa.Outcome
	cycles, stall uint64
}

// costCase is one instruction of the modeled set with its cost rows. build
// returns the blocks of a function t whose instruction blocks[0][at] makes
// the given data access in the given outcome when t runs.
type costCase struct {
	name  string
	build func(data power.Memory, o isa.Outcome) (blocks [][]isa.Instr, at int)
	rows  []costRow
}

var (
	ret  = isa.Instr{Op: isa.BX, Rm: isa.LR}
	zset = isa.Instr{Op: isa.CMP, Rn: isa.R0, Rm: isa.R0} // Z set: EQ holds, NE fails
)

// alone runs in by itself.
func alone(in isa.Instr) func(power.Memory, isa.Outcome) ([][]isa.Instr, int) {
	return func(power.Memory, isa.Outcome) ([][]isa.Instr, int) { return [][]isa.Instr{{in, ret}}, 0 }
}

// viaR1 runs in with r1 pointing at a word in data: the RAM global g or
// the flash constant ro.
func viaR1(in isa.Instr) func(power.Memory, isa.Outcome) ([][]isa.Instr, int) {
	return func(data power.Memory, _ isa.Outcome) ([][]isa.Instr, int) {
		sym := "g"
		if data == power.Flash {
			sym = "ro"
		}
		return [][]isa.Instr{{{Op: isa.LDRLIT, Rd: isa.R1, Sym: sym}, in, ret}}, 1
	}
}

// noData is an instruction without a data access that costs cycles from
// either memory.
func noData(cycles uint64) []costRow {
	return []costRow{{power.Flash, power.None, isa.Executed, cycles, 0}, {power.RAM, power.None, isa.Executed, cycles, 0}}
}

// ramData is an instruction whose data access always hits RAM.
func ramData(flash, ram, stall uint64) []costRow {
	return []costRow{{power.Flash, power.RAM, isa.Executed, flash, 0}, {power.RAM, power.RAM, isa.Executed, ram, stall}}
}

// anyData is a load through a register, which may read either memory.
var anyData = []costRow{
	{power.Flash, power.Flash, isa.Executed, 2, 0},
	{power.Flash, power.RAM, isa.Executed, 2, 0},
	{power.RAM, power.Flash, isa.Executed, 2, 0},
	{power.RAM, power.RAM, isa.Executed, 3, 1},
}

// poolData is a literal load, whose pool word sits with its block.
func poolData(flash, ram uint64) []costRow {
	return []costRow{{power.Flash, power.Flash, isa.Executed, flash, 0}, {power.RAM, power.RAM, isa.Executed, ram, 1}}
}

func costCases() []costCase {
	r := func(op isa.Op) isa.Instr { return isa.Instr{Op: op, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2} }
	imm := func(op isa.Op, v int32) isa.Instr {
		return isa.Instr{Op: op, Rd: isa.R0, Rn: isa.R1, Imm: v, HasImm: true}
	}
	mem := func(op isa.Op, base isa.Reg) isa.Instr {
		return isa.Instr{Op: op, Rd: isa.R0, Rn: base, Mode: isa.AddrOffset}
	}
	cases := []costCase{
		{"nop", alone(isa.Instr{}), noData(1)},
		{"it", func(power.Memory, isa.Outcome) ([][]isa.Instr, int) {
			return [][]isa.Instr{{zset, {Op: isa.IT, Cond: isa.EQ}, {Op: isa.MOV, Cond: isa.EQ, Rd: isa.R1, Imm: 1, HasImm: true}, ret}}, 1
		}, noData(1)},
		{"mov<c> #imm", func(_ power.Memory, o isa.Outcome) ([][]isa.Instr, int) {
			c := isa.EQ
			if o == isa.PredicateFailed {
				c = isa.NE
			}
			return [][]isa.Instr{{zset, {Op: isa.IT, Cond: c}, {Op: isa.MOV, Cond: c, Rd: isa.R1, Imm: 1, HasImm: true}, ret}}, 2
		}, append(noData(1),
			costRow{power.Flash, power.None, isa.PredicateFailed, 1, 0},
			costRow{power.RAM, power.None, isa.PredicateFailed, 1, 0})},
		{"sdiv", alone(r(isa.SDIV)), noData(6)},
		{"udiv", alone(r(isa.UDIV)), noData(6)},
		{"rsb #imm", alone(imm(isa.RSB, 0)), noData(1)},
		{"mov #imm", alone(imm(isa.MOV, 1)), noData(1)},
		{"cmp #imm", alone(imm(isa.CMP, 1)), noData(1)},
		{"add #imm", alone(imm(isa.ADD, 1)), noData(1)},
		{"sub #imm", alone(imm(isa.SUB, 1)), noData(1)},
		{"ldr [sp]", alone(mem(isa.LDR, isa.SP)), ramData(2, 3, 1)},
		{"ldr =const", alone(isa.Instr{Op: isa.LDRLIT, Rd: isa.R0, Imm: 0x12345678, HasImm: true}), poolData(2, 3)},
		{"ldr =sym", alone(isa.Instr{Op: isa.LDRLIT, Rd: isa.R0, Sym: "g"}), poolData(2, 3)},
		{"ldr pc, =label", func(power.Memory, isa.Outcome) ([][]isa.Instr, int) {
			return [][]isa.Instr{{{Op: isa.LDRLIT, Rd: isa.PC, Sym: "t_1"}}, {ret}}, 0
		}, poolData(4, 5)},
		{"ldr<c> =sym", func(_ power.Memory, o isa.Outcome) ([][]isa.Instr, int) {
			at := 2
			if o == isa.PredicateFailed {
				at = 3
			}
			return [][]isa.Instr{{zset, {Op: isa.IT, Cond: isa.EQ, ITMask: "e"},
				{Op: isa.LDRLIT, Cond: isa.EQ, Rd: isa.R1, Sym: "g"},
				{Op: isa.LDRLIT, Cond: isa.NE, Rd: isa.R2, Sym: "g"}, ret}}, at
		}, append(poolData(2, 3),
			costRow{power.Flash, power.None, isa.PredicateFailed, 1, 0},
			costRow{power.RAM, power.None, isa.PredicateFailed, 1, 0})},
		{"push {r4}", func(power.Memory, isa.Outcome) ([][]isa.Instr, int) {
			return [][]isa.Instr{{{Op: isa.PUSH, RegList: 1 << isa.R4}, {Op: isa.POP, RegList: 1 << isa.R4}, ret}}, 0
		}, ramData(2, 2, 0)},
		{"pop {r4}", func(power.Memory, isa.Outcome) ([][]isa.Instr, int) {
			return [][]isa.Instr{{{Op: isa.PUSH, RegList: 1 << isa.R4}, {Op: isa.POP, RegList: 1 << isa.R4}, ret}}, 1
		}, ramData(2, 3, 1)},
		{"pop {r4, pc}", func(power.Memory, isa.Outcome) ([][]isa.Instr, int) {
			return [][]isa.Instr{{{Op: isa.PUSH, RegList: 1<<isa.R4 | 1<<isa.LR}, {Op: isa.POP, RegList: 1<<isa.R4 | 1<<isa.PC}}}, 1
		}, ramData(5, 6, 1)},
		{"b", func(power.Memory, isa.Outcome) ([][]isa.Instr, int) {
			return [][]isa.Instr{{{Op: isa.B, Sym: "t_1"}}, {ret}}, 0
		}, noData(3)},
		{"b<c>", func(_ power.Memory, o isa.Outcome) ([][]isa.Instr, int) {
			c := isa.EQ
			if o == isa.NotTaken {
				c = isa.NE
			}
			return [][]isa.Instr{{zset, {Op: isa.B, Cond: c, Sym: "t_2"}}, {{}}, {ret}}, 1
		}, append(noData(3),
			costRow{power.Flash, power.None, isa.NotTaken, 1, 0},
			costRow{power.RAM, power.None, isa.NotTaken, 1, 0})},
		{"bl", func(power.Memory, isa.Outcome) ([][]isa.Instr, int) {
			return [][]isa.Instr{{{Op: isa.PUSH, RegList: 1<<isa.R4 | 1<<isa.LR}, {Op: isa.BL, Sym: "u"},
				{Op: isa.POP, RegList: 1<<isa.R4 | 1<<isa.PC}}}, 1
		}, noData(4)},
		{"blx", func(power.Memory, isa.Outcome) ([][]isa.Instr, int) {
			return [][]isa.Instr{{{Op: isa.PUSH, RegList: 1<<isa.R4 | 1<<isa.LR}, {Op: isa.LDRLIT, Rd: isa.R4, Sym: "u"},
				{Op: isa.BLX, Rm: isa.R4}, {Op: isa.POP, RegList: 1<<isa.R4 | 1<<isa.PC}}}, 2
		}, noData(4)},
		{"bx", func(power.Memory, isa.Outcome) ([][]isa.Instr, int) { return [][]isa.Instr{{ret}}, 0 }, noData(3)},
	}
	for _, op := range []isa.Op{isa.MOV, isa.MVN, isa.SXTB, isa.SXTH, isa.UXTB, isa.UXTH, isa.ADD, isa.SUB,
		isa.MUL, isa.AND, isa.ORR, isa.EOR, isa.LSL, isa.LSR, isa.ASR, isa.CMP} {
		cases = append(cases, costCase{op.String() + " reg", alone(r(op)), noData(1)})
	}
	for _, op := range []isa.Op{isa.LDR, isa.LDRB, isa.LDRH, isa.LDRSB, isa.LDRSH} {
		cases = append(cases, costCase{op.String() + " [r1]", viaR1(mem(op, isa.R1)), anyData})
	}
	for _, op := range []isa.Op{isa.STR, isa.STRB, isa.STRH} {
		cases = append(cases, costCase{op.String() + " [r1]", viaR1(mem(op, isa.R1)), ramData(2, 2, 0)})
	}
	return cases
}

// costProgram is main calling t, built from blocks, beside a leaf u, a
// RAM global g and a flash constant ro; t and u sit in fetch.
func costProgram(t *testing.T, blocks [][]isa.Instr, fetch power.Memory) *layout.Image {
	t.Helper()
	p := ir.NewProgram()
	fn := p.AddFunc(&ir.Function{Name: "t"})
	inRAM := map[string]bool{"u_0": fetch == power.RAM}
	for k, instrs := range blocks {
		b := fn.AddBlock(fmt.Sprintf("t_%d", k))
		b.Instrs = instrs
		inRAM[b.Label] = fetch == power.RAM
	}
	ir.Build(p.AddFunc(&ir.Function{Name: "u"}).AddBlock("u_0")).Ret()
	ir.Build(p.AddFunc(&ir.Function{Name: "main"}).AddBlock("main_0")).
		Push(isa.R4, isa.LR).LdrLit(isa.R4, "t").Blx(isa.R4).Pop(isa.R4, isa.PC)
	p.AddGlobal(&ir.Global{Name: "g", Size: 4})
	p.AddGlobal(&ir.Global{Name: "ro", Size: 4, RO: true, Init: []byte{1, 0, 0, 0}})
	p.Reindex()
	if err := ir.Verify(p); err != nil {
		t.Fatal(err)
	}
	img, err := layout.New(p, layout.DefaultConfig(), inRAM)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

type atObserver struct {
	at  int
	got []sim.Event
}

func (o *atObserver) Event(e *sim.Event) {
	if e.Block.Block.Label == "t_0" && e.Index == o.at {
		o.got = append(o.got, *e)
	}
}

// TestCostTable pins the board's timing against literals written out per
// instruction, fetch memory, data memory and outcome: power.Cycles must
// agree with each, the simulator must charge each (read from its observer
// event), and the energy bounds must bracket each instruction by exactly
// the cheapest and dearest of its rows.
func TestCostTable(t *testing.T) {
	prof := power.STM32F100()
	for _, c := range costCases() {
		for _, fetch := range []power.Memory{power.Flash, power.RAM} {
			var lo, hi costRow
			loE, hiE := math.Inf(1), math.Inf(-1)
			var img *layout.Image
			at, n := 0, 0
			for _, row := range c.rows {
				if row.fetch != fetch {
					continue
				}
				blocks, i := c.build(row.data, row.o)
				in := &blocks[0][i]
				if got := power.Cycles(in, row.fetch, row.data, row.o); uint64(got) != row.cycles {
					t.Errorf("%s %+v: power.Cycles = %d", c.name, row, got)
				}
				img = costProgram(t, blocks, fetch)
				obs := &atObserver{at: i}
				m := sim.New(img, prof)
				m.Attach(obs)
				if _, err := m.Run(); err != nil {
					t.Fatalf("%s %+v: %v", c.name, row, err)
				}
				if len(obs.got) != 1 {
					t.Fatalf("%s %+v: %d events for the instruction, want 1", c.name, row, len(obs.got))
				}
				ev := obs.got[0]
				if ev.Cycles != row.cycles || ev.Stall != row.stall || ev.DataMem != row.data || ev.FetchMem != fetch {
					t.Errorf("%s %+v: simulator charged %d cycles (stall %d) fetching %v, data %v",
						c.name, row, ev.Cycles, ev.Stall, ev.FetchMem, ev.DataMem)
				}
				if n == 0 || row.cycles < lo.cycles {
					lo = row
				}
				if n == 0 || row.cycles > hi.cycles {
					hi = row
				}
				loE, hiE = min(loE, ev.EnergyNJ), max(hiE, ev.EnergyNJ)
				at, n = i, n+1
			}
			if n == 0 {
				t.Fatalf("%s: no row fetches from %v", c.name, fetch)
			}
			pl, _ := img.PlacedBlock("t_0")
			iv := (&computer{img: img, prof: prof}).instrCost(pl, at, fetch)
			if iv.LoCycles != float64(lo.cycles) || iv.HiCycles != float64(hi.cycles) ||
				iv.LoEnergyNJ != loE || iv.HiEnergyNJ != hiE {
				t.Errorf("%s from %v: bounds [%v, %v] cycles, [%v, %v] nJ; rows give [%d, %d], events [%v, %v]",
					c.name, fetch, iv.LoCycles, iv.HiCycles, iv.LoEnergyNJ, iv.HiEnergyNJ, lo.cycles, hi.cycles, loE, hiE)
			}
		}
	}
}

// TestCostTableCoversEveryForm: every (op, form, predicated) triple of the
// modeled set has rows in the cost table.
func TestCostTableCoversEveryForm(t *testing.T) {
	seen := map[isa.OpForm]bool{}
	for _, c := range costCases() {
		for _, row := range c.rows {
			blocks, i := c.build(row.data, row.o)
			in := &blocks[0][i]
			seen[isa.OpForm{Op: in.Op, Form: isa.FormOf(in), Pred: in.Cond != isa.AL}] = true
		}
	}
	for _, of := range isa.OpForms() {
		if !seen[of] {
			t.Errorf("no cost row prices %v in %v form (predicated %v)", of.Op, of.Form, of.Pred)
		}
	}
}
