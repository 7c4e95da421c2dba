package isa

import (
	"testing"
	"testing/quick"
)

func TestCondInvert(t *testing.T) {
	pairs := [][2]Cond{
		{EQ, NE}, {CS, CC}, {MI, PL}, {VS, VC}, {HI, LS}, {GE, LT}, {GT, LE},
	}
	for _, p := range pairs {
		if p[0].Invert() != p[1] || p[1].Invert() != p[0] {
			t.Errorf("Invert(%v)=%v, Invert(%v)=%v; want each other",
				p[0], p[0].Invert(), p[1], p[1].Invert())
		}
	}
}

func TestCondInvertALPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Invert(AL) did not panic")
		}
	}()
	AL.Invert()
}

// TestCondHoldsComplement checks that a condition and its inverse partition
// every flag state (property test over all 16 flag combinations).
func TestCondHoldsComplement(t *testing.T) {
	for c := EQ; c <= LE; c++ {
		for bits := 0; bits < 16; bits++ {
			n, z, cf, v := bits&8 != 0, bits&4 != 0, bits&2 != 0, bits&1 != 0
			if c.Holds(n, z, cf, v) == c.Invert().Holds(n, z, cf, v) {
				t.Errorf("%v and %v agree on n=%v z=%v c=%v v=%v",
					c, c.Invert(), n, z, cf, v)
			}
		}
	}
}

func TestCondHoldsSemantics(t *testing.T) {
	// Signed comparison semantics: after cmp a, b the flags encode a-b.
	cases := []struct {
		cond Cond
		n, z, cf, v,
		want bool
	}{
		{EQ, false, true, false, false, true},
		{EQ, false, false, false, false, false},
		{LT, true, false, false, false, true},  // N != V
		{LT, true, false, false, true, false},  // N == V
		{GE, false, false, false, false, true}, // N == V
		{GT, false, false, false, false, true},
		{GT, false, true, false, false, false}, // equal is not greater
		{LE, false, true, false, false, true},
		{HI, false, false, true, false, true},
		{HI, false, true, true, false, false},
		{LS, false, false, false, false, true},
		{AL, true, true, true, true, true},
	}
	for _, c := range cases {
		if got := c.cond.Holds(c.n, c.z, c.cf, c.v); got != c.want {
			t.Errorf("%v.Holds(%v,%v,%v,%v) = %v, want %v",
				c.cond, c.n, c.z, c.cf, c.v, got, c.want)
		}
	}
}

func TestRegString(t *testing.T) {
	if R0.String() != "r0" || SP.String() != "sp" || LR.String() != "lr" || PC.String() != "pc" {
		t.Errorf("register names wrong: %v %v %v %v", R0, SP, LR, PC)
	}
}

func TestClassOf(t *testing.T) {
	cases := map[Op]Class{
		NOP: ClassNOP, IT: ClassNOP,
		MOV: ClassALU, ADD: ClassALU, CMP: ClassALU, LSL: ClassALU,
		MUL: ClassMul, SDIV: ClassMul,
		LDR: ClassLoad, LDRB: ClassLoad, LDRLIT: ClassLoad, POP: ClassLoad,
		STR: ClassStore, PUSH: ClassStore,
		B: ClassBranch, BL: ClassBranch, BX: ClassBranch,
	}
	for op, want := range cases {
		if got := ClassOf(op); got != want {
			t.Errorf("ClassOf(%v) = %v, want %v", op, got, want)
		}
	}
}

func TestSizeNarrowForms(t *testing.T) {
	narrow := []Instr{
		{Op: MOV, Rd: R0, Imm: 255, HasImm: true},
		{Op: MOV, Rd: R8, Rm: R1}, // register mov is narrow for any regs
		{Op: ADD, Rd: R0, Rn: R1, Imm: 7, HasImm: true},
		{Op: ADD, Rd: R2, Rn: R2, Imm: 200, HasImm: true},
		{Op: ADD, Rd: R0, Rn: R1, Rm: R2},
		{Op: SUB, Rd: SP, Rn: SP, Imm: 16, HasImm: true},
		{Op: CMP, Rn: R3, Imm: 100, HasImm: true},
		{Op: CMP, Rn: R9, Rm: R10},
		{Op: LDR, Rd: R0, Rn: R1, Mode: AddrOffset, Imm: 124},
		{Op: LDR, Rd: R0, Rn: SP, Mode: AddrOffset, Imm: 1020},
		{Op: LDRB, Rd: R0, Rn: R1, Mode: AddrOffset, Imm: 31},
		{Op: LDRLIT, Rd: R5, Sym: "x"},
		{Op: B, Sym: "l"},
		{Op: BX, Rm: LR},
		{Op: PUSH, RegList: 1<<R4 | 1<<R5 | 1<<LR},
		{Op: POP, RegList: 1<<R4 | 1<<R5 | 1<<PC},
		{Op: MUL, Rd: R0, Rn: R0, Rm: R1},
		{Op: RSB, Rd: R0, Rn: R1, Imm: 0, HasImm: true},
	}
	for _, in := range narrow {
		in := in
		if got := Size(&in); got != 2 {
			t.Errorf("Size(%s) = %d, want 2", in.String(), got)
		}
	}
	wide := []Instr{
		{Op: MOV, Rd: R0, Imm: 256, HasImm: true},
		{Op: MOV, Rd: R8, Imm: 1, HasImm: true},
		{Op: ADD, Rd: R0, Rn: R1, Imm: 8, HasImm: true},
		{Op: ADD, Rd: R8, Rn: R1, Rm: R2},
		{Op: CMP, Rn: R3, Imm: 256, HasImm: true},
		{Op: LDR, Rd: R0, Rn: R1, Mode: AddrOffset, Imm: 128},
		{Op: LDR, Rd: R0, Rn: R1, Mode: AddrOffset, Imm: 2}, // unaligned
		{Op: LDR, Rd: R8, Rn: R1, Mode: AddrOffset, Imm: 0},
		{Op: LDRLIT, Rd: PC, Sym: "x"},
		{Op: BL, Sym: "f"},
		{Op: SDIV, Rd: R0, Rn: R1, Rm: R2},
		{Op: PUSH, RegList: 1 << R8},
		{Op: MUL, Rd: R0, Rn: R1, Rm: R2},
	}
	for _, in := range wide {
		in := in
		if got := Size(&in); got != 4 {
			t.Errorf("Size(%s) = %d, want 4", in.String(), got)
		}
	}
}

// TestSizeAlwaysValid: every instruction has size 2 or 4 regardless of
// operand garbage (property test).
func TestSizeAlwaysValid(t *testing.T) {
	f := func(op, rd, rn, rm uint8, imm int32, hasImm bool, mode uint8) bool {
		in := Instr{
			Op: Op(op % uint8(numOps)), Rd: Reg(rd % 16), Rn: Reg(rn % 16),
			Rm: Reg(rm % 16), Imm: imm, HasImm: hasImm,
			Mode: AddrMode(mode % 4),
		}
		s := Size(&in)
		return s == 2 || s == 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: MOV, Rd: R1, Imm: 1, HasImm: true}, "mov r1, #1"},
		{Instr{Op: ADD, Rd: R0, Rn: R0, Imm: 1, HasImm: true}, "add r0, r0, #1"},
		{Instr{Op: MUL, Rd: R1, Rn: R1, Rm: R2}, "mul r1, r1, r2"},
		{Instr{Op: CMP, Rn: R0, Imm: 64, HasImm: true}, "cmp r0, #64"},
		{Instr{Op: B, Cond: NE, Sym: "loop"}, "bne loop"},
		{Instr{Op: BX, Rm: LR}, "bx lr"},
		{Instr{Op: LDRLIT, Rd: PC, Sym: "loop"}, "ldr pc, =loop"},
		{Instr{Op: LDRLIT, Rd: R5, Cond: LE, Sym: "ret"}, "ldrle r5, =ret"},
		{Instr{Op: IT, Cond: LE}, "it le"},
		{Instr{Op: IT, Cond: NE, ITMask: "e"}, "ite ne"},
		{Instr{Op: LDR, Rd: R0, Rn: R1, Mode: AddrOffset, Imm: 8}, "ldr r0, [r1, #8]"},
		{Instr{Op: LDR, Rd: R0, Rn: R1, Mode: AddrOffset}, "ldr r0, [r1]"},
		{Instr{Op: STR, Rd: R2, Rn: SP, Mode: AddrOffset, Imm: 4}, "str r2, [sp, #4]"},
		{Instr{Op: PUSH, RegList: 1<<R4 | 1<<LR}, "push {r4, lr}"},
		{Instr{Op: SUB, Rd: R3, Rn: R4, Rm: R5}, "sub r3, r4, r5"},
		{Instr{Op: ADD, Rd: R3, Rn: R4, Imm: -4, HasImm: true}, "add r3, r4, #-4"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestUsesDefs(t *testing.T) {
	in := Instr{Op: ADD, Rd: R0, Rn: R1, Rm: R2}
	if d := in.Defs(); len(d) != 1 || d[0] != R0 {
		t.Errorf("add defs = %v, want [r0]", d)
	}
	if u := in.Uses(); len(u) != 2 || u[0] != R1 || u[1] != R2 {
		t.Errorf("add uses = %v, want [r1 r2]", u)
	}
	st := Instr{Op: STR, Rd: R3, Rn: R4, Mode: AddrOffset}
	if d := st.Defs(); len(d) != 0 {
		t.Errorf("str defs = %v, want none", d)
	}
	if u := st.Uses(); len(u) != 2 {
		t.Errorf("str uses = %v, want [r3 r4]", u)
	}
	bl := Instr{Op: BL, Sym: "f"}
	defs := bl.Defs()
	hasLR := false
	for _, r := range defs {
		if r == LR {
			hasLR = true
		}
	}
	if !hasLR {
		t.Errorf("bl defs = %v, want to include lr", defs)
	}
}

func TestLiteralBytes(t *testing.T) {
	lit := Instr{Op: LDRLIT, Rd: R0, Sym: "x"}
	if LiteralBytes(&lit) != 4 {
		t.Error("ldr =sym should contribute 4 literal bytes")
	}
	mov := Instr{Op: MOV, Rd: R0, Imm: 1, HasImm: true}
	if LiteralBytes(&mov) != 0 {
		t.Error("mov should contribute no literal bytes")
	}
}
