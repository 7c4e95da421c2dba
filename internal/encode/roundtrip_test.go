package encode

import (
	"fmt"
	"testing"

	"repro/internal/beebs"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/mcc"
	"repro/internal/transform"
)

// checkRoundTrip encodes one placed instruction and verifies the decoder
// recovers its structural fields.
func checkRoundTrip(img *layout.Image, pl *layout.Placed, idx int) error {
	in := &pl.Block.Instrs[idx]
	bytes, err := EncodeInstr(img, pl, idx)
	if err != nil {
		return err
	}
	d, err := Decode(bytes, pl.InstrAddrs[idx])
	if err != nil {
		return fmt.Errorf("%s: %w", in.String(), err)
	}
	if d.Size != len(bytes) {
		return fmt.Errorf("%s: decoded size %d, encoded %d", in.String(), d.Size, len(bytes))
	}

	mismatch := func(field string, got, want interface{}) error {
		return fmt.Errorf("%s: decoded %s = %v, want %v (bytes % X)",
			in.String(), field, got, want, bytes)
	}

	switch in.Op {
	case isa.B:
		if d.Op != isa.B {
			return mismatch("op", d.Op, in.Op)
		}
		if d.Cond != in.Cond {
			return mismatch("cond", d.Cond, in.Cond)
		}
		want := img.Symbols[in.Sym]
		if d.Target != want {
			return mismatch("target", d.Target, want)
		}
	case isa.BL:
		if d.Op != in.Op {
			return mismatch("op", d.Op, in.Op)
		}
		want := img.Symbols[in.Sym]
		if d.Target != want {
			return mismatch("target", d.Target, want)
		}
	case isa.LDRLIT:
		if d.Op != isa.LDRLIT {
			return mismatch("op", d.Op, in.Op)
		}
		if d.Target != pl.LitAddrs[idx] {
			return mismatch("literal slot", d.Target, pl.LitAddrs[idx])
		}
		if in.Rd == isa.PC && d.Rd != isa.PC {
			return mismatch("rd", d.Rd, isa.PC)
		}
	case isa.ADD, isa.SUB:
		// The encoder canonicalizes negative immediates to the opposite
		// operation.
		okSame := d.Op == in.Op && (!in.HasImm || d.Imm == in.Imm)
		flipped := isa.SUB
		if in.Op == isa.SUB {
			flipped = isa.ADD
		}
		okFlip := in.HasImm && d.Op == flipped && d.Imm == -in.Imm
		if !okSame && !okFlip {
			return mismatch("op/imm", fmt.Sprintf("%v #%d", d.Op, d.Imm),
				fmt.Sprintf("%v #%d", in.Op, in.Imm))
		}
		if in.Rd != isa.NoReg && d.Rd != in.Rd {
			return mismatch("rd", d.Rd, in.Rd)
		}
	case isa.PUSH, isa.POP:
		if d.Op != in.Op || d.RegList != in.RegList {
			return mismatch("reglist", d.RegList, in.RegList)
		}
	case isa.IT:
		if d.Op != isa.IT || d.Cond != in.Cond {
			return mismatch("cond", d.Cond, in.Cond)
		}
	case isa.MOV:
		if d.Op != isa.MOV {
			return mismatch("op", d.Op, in.Op)
		}
		if in.HasImm && d.Imm != in.Imm {
			return mismatch("imm", d.Imm, in.Imm)
		}
		if d.Rd != in.Rd {
			return mismatch("rd", d.Rd, in.Rd)
		}
		if !in.HasImm && d.Rm != in.Rm {
			return mismatch("rm", d.Rm, in.Rm)
		}
	default:
		if d.Op != in.Op {
			return mismatch("op", d.Op, in.Op)
		}
		if in.Rd != isa.NoReg && d.Rd != isa.NoReg && d.Rd != in.Rd {
			return mismatch("rd", d.Rd, in.Rd)
		}
		if in.HasImm && d.HasImm && d.Imm != in.Imm {
			return mismatch("imm", d.Imm, in.Imm)
		}
	}
	return nil
}

func roundTripProgram(t *testing.T, prog *ir.Program, inRAM map[string]bool) int {
	t.Helper()
	img, err := layout.New(prog, layout.DefaultConfig(), inRAM)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, pl := range img.Blocks {
		for i := range pl.Block.Instrs {
			if err := checkRoundTrip(img, pl, i); err != nil {
				t.Errorf("%s[%d]: %v", pl.Block.Label, i, err)
			}
			n++
		}
	}
	return n
}

// TestRoundTripBEEBS decodes every encoded instruction of every BEEBS
// benchmark at two levels, baseline layout.
func TestRoundTripBEEBS(t *testing.T) {
	total := 0
	for _, bench := range beebs.All() {
		for _, level := range []mcc.OptLevel{mcc.O0, mcc.O2} {
			prog, err := mcc.Compile(bench.Source, level)
			if err != nil {
				t.Fatal(err)
			}
			total += roundTripProgram(t, prog, nil)
		}
		if t.Failed() {
			t.Fatalf("aborting after %s", bench.Name)
		}
	}
	t.Logf("round-tripped %d instructions", total)
}

// TestRoundTripTransformed also covers the instrumentation sequences and
// RAM-resident code.
func TestRoundTripTransformed(t *testing.T) {
	for _, name := range []string{"fdct", "crc32", "dijkstra"} {
		prog, err := mcc.Compile(beebs.Get(name).Source, mcc.O2)
		if err != nil {
			t.Fatal(err)
		}
		// Move half the blocks of each non-library function.
		inRAM := map[string]bool{}
		for _, f := range prog.Funcs {
			if f.Library {
				continue
			}
			for i, b := range f.Blocks {
				if i%2 == 0 {
					inRAM[b.Label] = true
				}
			}
		}
		q := prog.Clone()
		if _, err := transform.Apply(q, inRAM); err != nil {
			t.Fatal(err)
		}
		n := roundTripProgram(t, q, inRAM)
		if t.Failed() {
			t.Fatalf("aborting after %s (%d instructions)", name, n)
		}
	}
}

func TestDisassemble(t *testing.T) {
	prog, err := mcc.Compile(beebs.Get("crc32").Source, mcc.O2)
	if err != nil {
		t.Fatal(err)
	}
	img, err := layout.New(prog, layout.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) < 50 {
		t.Fatalf("disassembly suspiciously short: %d lines", len(lines))
	}
	// Every instruction line carries hex bytes and the source mnemonic.
	found := false
	for _, l := range lines {
		if len(l) > 0 && l[0] == ' ' && len(l) > 20 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no instruction lines in disassembly")
	}
}
