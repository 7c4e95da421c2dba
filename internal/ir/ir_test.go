package ir

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestFigure2ProgramVerifies(t *testing.T) {
	p := Figure2Program()
	if err := Verify(p); err != nil {
		t.Fatalf("Figure2Program does not verify: %v", err)
	}
	if p.NumBlocks() != 6 {
		t.Errorf("NumBlocks = %d, want 6", p.NumBlocks())
	}
	if p.Func("fn") == nil || p.Func("main") == nil {
		t.Fatal("expected fn and main functions")
	}
	if p.Func("nope") != nil {
		t.Error("Func(nope) should be nil")
	}
	if p.Global("result") == nil {
		t.Error("expected global result")
	}
}

func TestBlockProperties(t *testing.T) {
	p := Figure2Program()
	fn := p.Func("fn")

	loop := fn.Block("fn_loop")
	if loop == nil {
		t.Fatal("missing fn_loop")
	}
	if term := loop.Terminator(); term == nil || term.Op != isa.B || term.Cond != isa.NE {
		t.Errorf("fn_loop terminator = %v, want bne", term)
	}
	if !loop.FallsThrough() {
		t.Error("conditional branch block must fall through")
	}
	if loop.IsReturn() {
		t.Error("fn_loop is not a return block")
	}

	ret := fn.Block("fn_return")
	if !ret.IsReturn() {
		t.Error("fn_return must be a return block")
	}
	if ret.FallsThrough() {
		t.Error("bx lr must not fall through")
	}

	iftrue := fn.Block("fn_iftrue")
	if iftrue.Terminator() != nil {
		t.Error("fn_iftrue has no terminator (plain fall-through)")
	}
	if !iftrue.FallsThrough() {
		t.Error("fn_iftrue must fall through")
	}

	// mul(2 narrow? rd==rn low: 2) + add imm narrow(2) + cmp imm narrow(2) + b(2) = 8 bytes
	if s := loop.Size(); s != 8 {
		t.Errorf("fn_loop size = %d, want 8", s)
	}
}

func TestSizeWithLiterals(t *testing.T) {
	p := Figure2Program()
	mb := p.Func("main").Block("main_entry")
	if d := mb.SizeWithLiterals() - mb.Size(); d != 4 {
		t.Errorf("main_entry literal bytes = %d, want 4 (one ldr =result)", d)
	}
}

func TestCalls(t *testing.T) {
	p := Figure2Program()
	mb := p.Func("main").Block("main_entry")
	if calls := mb.Calls(); len(calls) != 1 || calls[0] != "fn" {
		t.Errorf("Calls = %v, want [fn]", calls)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := Figure2Program()
	q := p.Clone()
	if err := Verify(q); err != nil {
		t.Fatalf("clone does not verify: %v", err)
	}
	q.Func("fn").Block("fn_loop").Instrs[0].Rd = isa.R7
	if p.Func("fn").Block("fn_loop").Instrs[0].Rd == isa.R7 {
		t.Error("mutating clone affected original instructions")
	}
	q.Globals[0].Init = append(q.Globals[0].Init, 1)
	if len(p.Globals[0].Init) != 0 {
		t.Error("mutating clone affected original global init")
	}
	q.Func("fn").AddBlock("extra")
	if p.Func("fn").Block("extra") != nil {
		t.Error("mutating clone affected original block list")
	}
}

func TestVerifyCatchesBadPrograms(t *testing.T) {
	mk := func(mutate func(p *Program)) error {
		p := Figure2Program()
		mutate(p)
		p.Reindex()
		return Verify(p)
	}
	cases := []struct {
		name   string
		mutate func(p *Program)
		want   string
	}{
		{"missing entry", func(p *Program) { p.Entry = "nosuch" }, "entry function"},
		{"duplicate label", func(p *Program) {
			p.Func("fn").AddBlock("fn_loop").Append(isa.Instr{Op: isa.BX, Rm: isa.LR})
		}, "duplicate block label"},
		{"unknown branch target", func(p *Program) {
			p.Func("fn").Block("fn_loop").Instrs[3].Sym = "nowhere"
		}, "unknown label"},
		{"unknown call target", func(p *Program) {
			p.Func("main").Block("main_entry").Instrs[2].Sym = "nowhere"
		}, "unknown function"},
		{"branch mid-block", func(p *Program) {
			b := p.Func("fn").Block("fn_init")
			b.Instrs = append([]isa.Instr{{Op: isa.B, Sym: "fn_return"}}, b.Instrs...)
		}, "not at block end"},
		{"fall off function end", func(p *Program) {
			ret := p.Func("fn").Block("fn_return")
			ret.Instrs = ret.Instrs[:1] // drop bx lr
		}, "falls off"},
		{"unknown data symbol", func(p *Program) {
			b := p.Func("main").Block("main_entry")
			b.Instrs[3].Sym = "nodata"
		}, "unknown symbol"},
		{"cross-function branch", func(p *Program) {
			p.Func("fn").Block("fn_loop").Instrs[3].Sym = "main_entry"
		}, "crosses into function"},
		{"bad global size", func(p *Program) { p.Globals[0].Size = 0 }, "non-positive size"},
		{"oversized init", func(p *Program) {
			p.Globals[0].Init = make([]byte, 8)
		}, "exceeds size"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := mk(c.mutate)
			if err == nil {
				t.Fatalf("Verify accepted bad program (%s)", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %q, want substring %q", err, c.want)
			}
		})
	}
}

// TestVerifyRejectsUnmodeledInstructions: one instruction of each kind
// outside isa.OpForms — an immediate operand on a multiply, divide, logic
// op or shift; an immediate on a unary op other than mov; a register
// rsb; a load or store without its [rn, #imm] addressing; an operand-less
// branch; an opcode past the table; a condition on any form but b, mov
// #imm, ldr =sym into a register other than pc and it; an it without a
// condition or with a mask other than "" and "e" — is rejected, wherever
// it sits.
func TestVerifyRejectsUnmodeledInstructions(t *testing.T) {
	imm := func(op isa.Op) isa.Instr {
		return isa.Instr{Op: op, Rd: isa.R0, Rn: isa.R1, Imm: 3, HasImm: true}
	}
	unary := func(op isa.Op) isa.Instr { return isa.Instr{Op: op, Rd: isa.R0, Imm: 3, HasImm: true} }
	cases := []isa.Instr{
		imm(isa.MUL), imm(isa.SDIV), imm(isa.UDIV),
		imm(isa.AND), imm(isa.ORR), imm(isa.EOR),
		imm(isa.LSL), imm(isa.LSR), imm(isa.ASR),
		unary(isa.MVN), unary(isa.SXTB), unary(isa.SXTH), unary(isa.UXTB), unary(isa.UXTH),
		{Op: isa.RSB, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2},
		{Op: isa.LDR, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2},
		{Op: isa.STRB, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2},
		{Op: isa.B},
		{Op: isa.Op(200), Rd: isa.R0, Rn: isa.R1, Rm: isa.R2},
		{Op: isa.ADD, Cond: isa.EQ, Rd: isa.R0, Rn: isa.R1, Imm: 3, HasImm: true},
		{Op: isa.MOV, Cond: isa.EQ, Rd: isa.R0, Rm: isa.R1},
		{Op: isa.LDR, Cond: isa.NE, Rd: isa.R0, Rn: isa.R1, Mode: isa.AddrOffset},
		{Op: isa.STR, Cond: isa.NE, Rd: isa.R0, Rn: isa.R1, Mode: isa.AddrOffset},
		{Op: isa.LDRLIT, Cond: isa.NE, Rd: isa.R0, Imm: 7, HasImm: true},
		{Op: isa.LDRLIT, Cond: isa.NE, Rd: isa.PC, Sym: "fn_loop"},
		{Op: isa.BL, Cond: isa.LT, Sym: "fn"},
		{Op: isa.BX, Cond: isa.LT, Rm: isa.LR},
		{Op: isa.IT, Cond: isa.EQ, ITMask: "t"},
		{Op: isa.IT},
	}
	for _, in := range cases {
		p := Figure2Program()
		b := p.Func("fn").Block("fn_init")
		b.Instrs = append(b.Instrs, in)
		if err := Verify(p); err == nil || !strings.Contains(err.Error(), "outside the modeled instruction set") {
			t.Errorf("%s (%v form): Verify = %v, want it outside the modeled set", in.String(), isa.FormOf(&in), err)
		}
	}
}

func TestVerifyBranchRangeAndBackPointers(t *testing.T) {
	expect := func(t *testing.T, p *Program, want string) {
		t.Helper()
		err := Verify(p)
		if err == nil {
			t.Fatalf("Verify accepted bad program, want %q", want)
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error = %q, want substring %q", err, want)
		}
	}

	t.Run("stale literal back-pointer", func(t *testing.T) {
		p := NewProgram()
		f := p.AddFunc(&Function{Name: "main"})
		Build(f.AddBlock("entry")).LdrLit(isa.R4, "tail").Nop()
		Build(f.AddBlock("tail")).Ret()
		p.Reindex()
		MustVerify(p)
		f.Block("tail").Index = 7 // corrupt without Reindex
		expect(t, p, "stale back-pointers")
	})

	t.Run("predicated literal crosses functions", func(t *testing.T) {
		p := NewProgram()
		f := p.AddFunc(&Function{Name: "main"})
		b1 := f.AddBlock("b1")
		Build(b1).CmpImm(isa.R0, 0)
		b1.Append(isa.Instr{Op: isa.IT, Cond: isa.NE, ITMask: "e"})
		b1.Append(isa.Instr{Op: isa.LDRLIT, Cond: isa.NE, Rd: isa.R5, Sym: "other_entry"})
		b1.Append(isa.Instr{Op: isa.LDRLIT, Cond: isa.EQ, Rd: isa.R5, Sym: "b2"})
		b1.Append(isa.Instr{Op: isa.BX, Rm: isa.R5})
		Build(f.AddBlock("b2")).Ret()
		g := p.AddFunc(&Function{Name: "other"})
		Build(g.AddBlock("other_entry")).Ret()
		p.Reindex()
		expect(t, p, "targets a block of function")
	})
}

// TestVerifyITBlockShape pins the IT rule: an it is followed by exactly
// its one or two predicated instructions, with its condition and then the
// inverse, and nothing but b<c> is predicated outside an it block. The
// first case is a program the encoder would emit as an unconditional,
// flag-setting movs that the simulator skips.
func TestVerifyITBlockShape(t *testing.T) {
	it := func(c isa.Cond, mask string) isa.Instr { return isa.Instr{Op: isa.IT, Cond: c, ITMask: mask} }
	mov := func(c isa.Cond, imm int32) isa.Instr {
		return isa.Instr{Op: isa.MOV, Cond: c, Rd: isa.R1, Imm: imm, HasImm: true}
	}
	build := func(body ...isa.Instr) *Program {
		p := NewProgram()
		f := p.AddFunc(&Function{Name: "main"})
		b := f.AddBlock("entry")
		Build(b).MovImm(isa.R0, 1).CmpImm(isa.R0, 0).MovImm(isa.R1, 5)
		for _, in := range body {
			b.Append(in)
		}
		Build(f.AddBlock("exit")).Ret()
		p.Reindex()
		return p
	}
	for _, tc := range []struct {
		name string
		body []isa.Instr
		want string // "" accepts
	}{
		{"predicated mov without it", []isa.Instr{mov(isa.EQ, 1)}, "outside an it block"},
		{"it covering nothing", []isa.Instr{it(isa.EQ, "")}, "ends inside the block"},
		{"ite with equal conditions", []isa.Instr{it(isa.EQ, "e"), mov(isa.EQ, 1), mov(isa.EQ, 2)}, "wants an instruction predicated ne"},
		{"ite missing its else", []isa.Instr{it(isa.EQ, "e"), mov(isa.EQ, 1)}, "ends inside the block"},
		{"it then an unpredicated mov", []isa.Instr{it(isa.EQ, ""), mov(isa.AL, 1)}, "wants an instruction predicated eq"},
		{"it with the wrong condition", []isa.Instr{it(isa.EQ, ""), mov(isa.NE, 1)}, "wants an instruction predicated eq"},
		{"it covering a second it", []isa.Instr{it(isa.EQ, ""), it(isa.EQ, ""), mov(isa.EQ, 1)}, "wants an instruction predicated eq"},
		{"three predicated after it", []isa.Instr{it(isa.EQ, ""), mov(isa.EQ, 1), mov(isa.EQ, 2)}, "outside an it block"},
		{"it then its mov", []isa.Instr{it(isa.EQ, ""), mov(isa.EQ, 1)}, ""},
		{"ite then its pair", []isa.Instr{it(isa.LT, "e"), mov(isa.LT, 1), mov(isa.GE, 2)}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := Verify(build(tc.body...))
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Verify = %v, want nil", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("Verify = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestVerifyAcceptsInstrumentationShapes(t *testing.T) {
	// The Figure 4 conditional form: it / ldrCC r5,=a / ldrCC' r5,=b / bx r5
	p := NewProgram()
	f := p.AddFunc(&Function{Name: "main"})
	b1 := f.AddBlock("b1")
	Build(b1).CmpImm(isa.R0, 0)
	b1.Append(isa.Instr{Op: isa.IT, Cond: isa.NE, ITMask: "e"})
	b1.Append(isa.Instr{Op: isa.LDRLIT, Cond: isa.NE, Rd: isa.R5, Sym: "b2"})
	b1.Append(isa.Instr{Op: isa.LDRLIT, Cond: isa.EQ, Rd: isa.R5, Sym: "b3"})
	b1.Append(isa.Instr{Op: isa.BX, Rm: isa.R5})
	b2 := f.AddBlock("b2")
	Build(b2).Ret()
	b3 := f.AddBlock("b3")
	Build(b3).Ret()
	p.Reindex()
	if err := Verify(p); err != nil {
		t.Fatalf("instrumentation shape rejected: %v", err)
	}
}

func TestPrinting(t *testing.T) {
	p := Figure2Program()
	s := p.String()
	for _, want := range []string{
		"fn:", "fn_loop:", "mul r1, r1, r2", "bne fn_loop",
		"bx lr", "bl fn", "result: .data 4 bytes",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("program text missing %q:\n%s", want, s)
		}
	}
}

func TestReindex(t *testing.T) {
	p := Figure2Program()
	fn := p.Func("fn")
	// Reverse the block order and reindex.
	for i, j := 0, len(fn.Blocks)-1; i < j; i, j = i+1, j-1 {
		fn.Blocks[i], fn.Blocks[j] = fn.Blocks[j], fn.Blocks[i]
	}
	p.Reindex()
	for i, b := range fn.Blocks {
		if b.Index != i || b.Func != fn {
			t.Fatalf("block %q index=%d func=%v after Reindex", b.Label, b.Index, b.Func.Name)
		}
	}
}

func TestEntryAndBlockLookup(t *testing.T) {
	p := Figure2Program()
	fn := p.Func("fn")
	if fn.Entry() == nil || fn.Entry().Label != "fn_init" {
		t.Errorf("Entry() = %v, want fn_init", fn.Entry())
	}
	if blk := p.BlockByLabel("fn_if"); blk == nil || blk.Func.Name != "fn" {
		t.Error("BlockByLabel(fn_if) failed")
	}
	if p.BlockByLabel("zzz") != nil {
		t.Error("BlockByLabel(zzz) should be nil")
	}
	var empty Function
	if empty.Entry() != nil {
		t.Error("empty function Entry() should be nil")
	}
}
