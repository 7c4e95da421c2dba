package analysis

import (
	"encoding/binary"
	"fmt"

	"repro/internal/encode"
	"repro/internal/isa"
	"repro/internal/layout"
)

// BranchRangePass verifies the encoded binary at the bit level: every
// direct branch and literal load must fit the Thumb-2 encoding the layout
// engine chose for it, and decoding the bytes actually emitted must
// recover the intended target address. This is the check that would have
// caught a silently truncated displacement — the failure mode the paper's
// §5 transformation exists to avoid.
//
// Codes:
//
//	BR001  direct branch displacement does not fit its encoding
//	BR003  literal load without a pool slot, or slot out of ldr reach
//	BR004  instruction fails to encode, or its emitted bytes fail to
//	       decode or decode to a size other than its laid-out one
//	BR005  decoded target address disagrees with the symbol address
//	BR006  literal pool word does not hold the referenced symbol's address
type BranchRangePass struct{}

// Name implements Pass.
func (BranchRangePass) Name() string { return "branch-range" }

// branchLimits returns the inclusive displacement bounds of a direct
// branch for the laid-out width (ARMv7-M T1–T4 encodings).
func branchLimits(op isa.Op, cond isa.Cond, wide bool) (lo, hi int64) {
	switch {
	case op == isa.BL:
		return -(1 << 24), 1<<24 - 2
	case cond == isa.AL && !wide:
		return -2048, 2046
	case cond == isa.AL:
		return -(1 << 24), 1<<24 - 2
	case !wide:
		return -256, 254
	default:
		return -(1 << 20), 1<<20 - 2
	}
}

// Run implements Pass.
func (p BranchRangePass) Run(ctx *Context) ([]Diagnostic, error) {
	img := ctx.Image
	var diags []Diagnostic
	report := func(code string, sev Severity, pl *layout.Placed, idx int, format string, args ...interface{}) {
		b := pl.Block
		diags = append(diags, Diagnostic{
			Pass: p.Name(), Code: code, Severity: sev,
			Func: b.Func.Name, Block: b.Label, Instr: idx, Addr: pl.InstrAddrs[idx],
			Message: fmt.Sprintf(format, args...),
		})
	}

	// Materialize the binary once: the literal-pool words and every
	// instruction are checked in the bytes actually emitted. When the
	// image does not encode, each instruction is encoded on its own below,
	// so every unencodable one is named.
	flash, ramcode, imgErr := encode.Image(img)

	// emitted returns the image bytes from addr to the end of its section
	// (none when the image did not encode).
	emitted := func(addr uint32) []byte {
		switch {
		case addr >= img.Config.FlashBase && addr-img.Config.FlashBase < uint32(len(flash)):
			return flash[addr-img.Config.FlashBase:]
		case addr >= img.Config.RAMBase && addr-img.Config.RAMBase < uint32(len(ramcode)):
			return ramcode[addr-img.Config.RAMBase:]
		}
		return nil
	}

	for _, pl := range img.Blocks {
		b := pl.Block
		for i := range b.Instrs {
			in := &b.Instrs[i]
			addr := pl.InstrAddrs[i]
			size := pl.InstrSize(i)
			wide := size == 4

			// Independent displacement arithmetic from the assigned
			// addresses, not trusting the encoder.
			switch in.Op {
			case isa.B, isa.BL:
				tgt, ok := img.Symbols[in.Sym]
				if !ok {
					report("BR005", Error, pl, i, "%s targets unknown symbol %q", in.Op, in.Sym)
					continue
				}
				delta := int64(tgt) - int64(addr+4)
				lo, hi := branchLimits(in.Op, in.Cond, wide)
				if delta < lo || delta > hi || delta%2 != 0 {
					report("BR001", Error, pl, i,
						"%s to %q spans %d bytes, outside its %s encoding range [%d, %d]",
						in.String(), in.Sym, delta, widthName(wide), lo, hi)
					continue
				}
			case isa.LDRLIT:
				slot := pl.LitAddrs[i]
				if slot == 0 {
					report("BR003", Error, pl, i, "%s has no literal-pool slot", in.String())
					continue
				}
				base := int64((addr + 4) &^ 3)
				off := int64(slot) - base
				if !wide && (off < 0 || off > 1020 || off%4 != 0) {
					report("BR003", Error, pl, i,
						"narrow %s pool slot %d bytes away, outside 0..1020", in.String(), off)
					continue
				}
				if wide && (off < -4095 || off > 4095) {
					report("BR003", Error, pl, i,
						"%s pool slot %d bytes away, outside the ±4095 wide range", in.String(), off)
					continue
				}
				// The pool word must hold the symbol's address.
				if in.Sym != "" {
					want, ok := img.Symbols[in.Sym]
					if !ok {
						report("BR005", Error, pl, i, "literal references unknown symbol %q", in.Sym)
						continue
					}
					if w := emitted(slot); len(w) >= 4 && binary.LittleEndian.Uint32(w) != want {
						report("BR006", Error, pl, i,
							"literal pool word at %#x holds %#x, want &%s = %#x",
							slot, binary.LittleEndian.Uint32(w), in.Sym, want)
						continue
					}
				}
			}

			// Bit-level round trip: decode the instruction's bytes at its
			// address; a branch or literal must decode to exactly the
			// address the symbol table promises.
			bytes := emitted(addr)
			if imgErr != nil {
				var err error
				if bytes, err = encode.EncodeInstr(img, pl, i); err != nil {
					report("BR004", Error, pl, i, "does not encode: %v", err)
					continue
				}
			}
			d, err := encode.Decode(bytes, addr)
			if err != nil {
				report("BR004", Error, pl, i, "encoded bytes do not decode: %v", err)
				continue
			}
			if d.Size != size {
				report("BR004", Error, pl, i, "emitted bytes decode as a %d-byte instruction, laid out as %d bytes",
					d.Size, size)
				continue
			}
			switch in.Op {
			case isa.B, isa.BL:
				if want := img.Symbols[in.Sym]; d.Target != want {
					report("BR005", Error, pl, i,
						"decoded target %#x, want %s = %#x (displacement truncated)",
						d.Target, in.Sym, want)
				}
			case isa.LDRLIT:
				if d.Target != pl.LitAddrs[i] {
					report("BR005", Error, pl, i,
						"decoded literal slot %#x, want %#x", d.Target, pl.LitAddrs[i])
				}
			}
		}
	}
	return diags, nil
}

func widthName(wide bool) string {
	if wide {
		return "32-bit"
	}
	return "16-bit"
}
