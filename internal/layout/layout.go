// Package layout is the linker of the toolchain: it assigns every
// instruction, literal pool word and global an address in the SoC's
// memory map, honouring the placement decision (which basic blocks live
// in the .ramcode section that the startup runtime copies into RAM).
//
// Memory map of the paper's SoC (STM32F100RB-class):
//
//	flash  0x08000000 .. +64 KiB   code, rodata, initial data image
//	RAM    0x20000000 .. +8 KiB    data, .ramcode, stack
//
// Branches start in their narrow Thumb encodings and are widened to
// 32-bit encodings when the assigned addresses put a target out of narrow
// range (classic relaxation fixpoint).
package layout

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/power"
)

// Config describes the memory map and reservations.
type Config struct {
	FlashBase uint32
	FlashSize int
	RAMBase   uint32
	RAMSize   int
	// StackReserve is RAM held back for the stack (and any heap); code
	// placed in RAM may not grow into it.
	StackReserve int
}

// DefaultConfig is the paper's SoC: 64 KiB flash, 8 KiB RAM.
func DefaultConfig() Config {
	return Config{
		FlashBase:    0x08000000,
		FlashSize:    64 * 1024,
		RAMBase:      0x20000000,
		RAMSize:      8 * 1024,
		StackReserve: 1024,
	}
}

// Placed is one basic block with assigned addresses.
type Placed struct {
	Block *ir.Block
	InRAM bool
	// ID is the block's dense index within Image.Blocks (program order).
	// The simulator uses it for array-indexed per-block counters; it is
	// stable for the life of the image.
	ID         int
	Addr       uint32   // address of the first instruction
	InstrAddrs []uint32 // address of each instruction
	Wide       []bool   // widened-branch flag per instruction
	LitAddrs   []uint32 // literal word address per instruction (0 = none)
	CodeEnd    uint32   // first address past the last instruction
	End        uint32   // first address past the block + any literal pool
}

// InstrRef locates an instruction within an image.
type InstrRef struct {
	Placed *Placed
	Index  int
}

// Image is a fully laid-out program ready for simulation.
type Image struct {
	Prog   *ir.Program
	Config Config

	Blocks  []*Placed
	byLabel map[string]*Placed

	// Symbols maps function names, block labels and global names to
	// addresses. A function's symbol is its entry block's address.
	Symbols map[string]uint32

	FlashCodeBytes int // code + literal pools resident in flash
	RAMCodeBytes   int // code + literal pools copied to RAM (.ramcode)
	DataBytes      int // writable globals in RAM
	RodataBytes    int // read-only globals in flash
}

// New lays out the program. inRAM selects the basic blocks (by label) for
// the .ramcode section; pass nil for the all-flash baseline.
func New(p *ir.Program, cfg Config, inRAM map[string]bool) (*Image, error) {
	img := &Image{
		Prog:    p,
		Config:  cfg,
		byLabel: make(map[string]*Placed),
		Symbols: make(map[string]uint32),
	}

	// Create placement records in program order.
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			pl := &Placed{
				Block:      b,
				InRAM:      inRAM[b.Label],
				ID:         len(img.Blocks),
				InstrAddrs: make([]uint32, len(b.Instrs)),
				Wide:       make([]bool, len(b.Instrs)),
				LitAddrs:   make([]uint32, len(b.Instrs)),
			}
			img.Blocks = append(img.Blocks, pl)
			img.byLabel[b.Label] = pl
		}
	}

	// Relaxation fixpoint: assign addresses, widen out-of-range branches,
	// repeat until stable.
	for iter := 0; ; iter++ {
		if iter > 64 {
			return nil, fmt.Errorf("layout: branch relaxation did not converge")
		}
		img.assignAddresses()
		if err := img.checkCapacity(); err != nil {
			return nil, err
		}
		if !img.widenPass() {
			break
		}
	}

	// Data addresses: writable globals at the bottom of RAM (above
	// .ramcode), read-only globals in flash after code.
	if err := img.assignData(); err != nil {
		return nil, err
	}

	// Function symbols point at their entry blocks.
	for _, f := range p.Funcs {
		if e := f.Entry(); e != nil {
			img.Symbols[f.Name] = img.byLabel[e.Label].Addr
		}
	}

	// Range-check literal loads (bounded by the wide ldr's ±4095 reach).
	if err := img.checkLiterals(); err != nil {
		return nil, err
	}

	// Enforce the physical limits that motivate the paper's
	// instrumentation: even the widest direct branch (±16 MiB) cannot span
	// the 0x18000000 flash↔RAM distance, and a block that falls through
	// must be followed in memory by its control-flow successor.
	if err := img.checkReachability(); err != nil {
		return nil, err
	}
	if err := img.checkFallThroughs(); err != nil {
		return nil, err
	}
	return img, nil
}

// assignAddresses walks flash blocks then RAM blocks, laying each block's
// instructions and literal pools. A pool cannot sit between a block and
// its fall-through successor (execution would run into data), so pools of
// fall-through blocks are deferred until the next block in the region
// that does not fall through — the same thing GNU as does when it inserts
// an .ltorg after an unconditional transfer.
func (img *Image) assignAddresses() {
	img.FlashCodeBytes, img.RAMCodeBytes = 0, 0

	layoutRegion := func(inRAM bool, cursor uint32) uint32 {
		var pending []*Placed // blocks whose pools are deferred
		emitPool := func(pl *Placed, cur uint32) uint32 {
			b := pl.Block
			for i := range b.Instrs {
				if isa.LiteralBytes(&b.Instrs[i]) > 0 {
					pl.LitAddrs[i] = cur
					cur += 4
				} else {
					pl.LitAddrs[i] = 0
				}
			}
			return cur
		}
		hasLits := func(pl *Placed) bool {
			for i := range pl.Block.Instrs {
				if isa.LiteralBytes(&pl.Block.Instrs[i]) > 0 {
					return true
				}
			}
			return false
		}
		flush := func(cur uint32) uint32 {
			if len(pending) == 0 {
				return cur
			}
			if cur%4 != 0 {
				cur += 4 - cur%4
			}
			for _, q := range pending {
				cur = emitPool(q, cur)
				q.End = cur
			}
			pending = pending[:0]
			return cur
		}

		for _, pl := range img.Blocks {
			if pl.InRAM != inRAM {
				continue
			}
			b := pl.Block
			pl.Addr = cursor
			for i := range b.Instrs {
				pl.InstrAddrs[i] = cursor
				sz := isa.Size(&b.Instrs[i])
				if pl.Wide[i] && sz < 4 {
					sz = 4
				}
				cursor += uint32(sz)
			}
			pl.CodeEnd = cursor
			pl.End = cursor
			img.Symbols[b.Label] = pl.Addr
			if b.FallsThrough() {
				if hasLits(pl) {
					pending = append(pending, pl)
				}
			} else {
				if hasLits(pl) || len(pending) > 0 {
					if cursor%4 != 0 {
						cursor += 4 - cursor%4
					}
					cursor = emitPool(pl, cursor)
					pl.End = cursor
					cursor = flush(cursor)
				}
			}
		}
		return flush(cursor)
	}

	flashEnd := layoutRegion(false, img.Config.FlashBase)
	img.FlashCodeBytes = int(flashEnd - img.Config.FlashBase)
	ramEnd := layoutRegion(true, img.Config.RAMBase)
	img.RAMCodeBytes = int(ramEnd - img.Config.RAMBase)
}

// widenPass widens any narrow b whose target is out of ±2046 bytes, and
// any narrow pc-relative literal load whose pool slot is beyond the
// 1020-byte narrow range (deferred pools can land far from their block).
// Returns true if something changed.
func (img *Image) widenPass() bool {
	changed := false
	for _, pl := range img.Blocks {
		b := pl.Block
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if pl.Wide[i] {
				continue
			}
			switch in.Op {
			case isa.B:
				tgt, ok := img.byLabel[in.Sym]
				if !ok {
					continue
				}
				delta := int64(tgt.Addr) - int64(pl.InstrAddrs[i]+4)
				limit := int64(2046)
				if in.Cond != isa.AL {
					limit = 254 // narrow conditional branch range ±254
				}
				if delta < -limit-2 || delta > limit {
					pl.Wide[i] = true
					changed = true
				}
			case isa.LDRLIT:
				if pl.LitAddrs[i] == 0 {
					continue
				}
				base := (pl.InstrAddrs[i] + 4) &^ 3
				off := int64(pl.LitAddrs[i]) - int64(base)
				if off < 0 || off > 1020 {
					pl.Wide[i] = true
					changed = true
				}
			}
		}
	}
	return changed
}

// checkLiterals verifies, after relaxation, that every literal load can
// reach its pool slot within the wide ±4095-byte encoding.
func (img *Image) checkLiterals() error {
	for _, pl := range img.Blocks {
		b := pl.Block
		for i := range b.Instrs {
			if b.Instrs[i].Op != isa.LDRLIT || pl.LitAddrs[i] == 0 {
				continue
			}
			base := (pl.InstrAddrs[i] + 4) &^ 3
			off := int64(pl.LitAddrs[i]) - int64(base)
			if off < -4095 || off > 4095 {
				return fmt.Errorf(
					"layout: %s: literal pool slot %d bytes away exceeds the ±4095 ldr range "+
						"(function too large for deferred pools)", b.Label, off)
			}
		}
	}
	return nil
}

// checkReachability verifies that every direct branch (b) and call (bl)
// can physically encode the distance to its target: ±16 MiB for the wide
// encodings. Flash and RAM are 0x18000000 apart on this SoC, so any
// direct transfer between the memories fails here — the code must instead
// be instrumented with an indirect branch (Figure 4 of the paper).
func (img *Image) checkReachability() error {
	const wideRange = 16 << 20
	for _, pl := range img.Blocks {
		b := pl.Block
		for i := range b.Instrs {
			in := &b.Instrs[i]
			var tgt uint32
			switch in.Op {
			case isa.B:
				t, ok := img.byLabel[in.Sym]
				if !ok {
					continue
				}
				tgt = t.Addr
			case isa.BL:
				t, ok := img.Symbols[in.Sym]
				if !ok {
					continue
				}
				tgt = t
			default:
				continue
			}
			delta := int64(tgt) - int64(pl.InstrAddrs[i]+4)
			if delta < -wideRange || delta > wideRange {
				return fmt.Errorf(
					"layout: %s: direct %s to %q spans %d bytes (max ±16 MiB); "+
						"cross-memory transfers need indirect-branch instrumentation",
					b.Label, in.Op, in.Sym, delta)
			}
		}
	}
	return nil
}

// checkFallThroughs verifies that any block that can fall through is
// immediately followed in memory by its in-function successor. Moving a
// block to RAM severs fall-through paths unless the transformation added
// the Figure 4 "no branch" instrumentation.
func (img *Image) checkFallThroughs() error {
	for _, pl := range img.Blocks {
		b := pl.Block
		if !b.FallsThrough() {
			continue
		}
		if b.Index+1 >= len(b.Func.Blocks) {
			return fmt.Errorf("layout: %s: falls through off function end", b.Label)
		}
		succ := b.Func.Blocks[b.Index+1]
		spl := img.byLabel[succ.Label]
		if spl.Addr != pl.CodeEnd {
			return fmt.Errorf(
				"layout: %s falls through to %s but memory follows with a different block; "+
					"the placement severed a fall-through edge (needs instrumentation)",
				b.Label, succ.Label)
		}
	}
	return nil
}

// assignData places globals: writable ones in RAM above the .ramcode
// section, read-only ones in flash after code.
func (img *Image) assignData() error {
	ram := img.Config.RAMBase + uint32(img.RAMCodeBytes)
	flash := img.Config.FlashBase + uint32(img.FlashCodeBytes)
	align4 := func(a uint32) uint32 {
		if a%4 != 0 {
			a += 4 - a%4
		}
		return a
	}
	ram = align4(ram)
	flash = align4(flash)
	img.DataBytes, img.RodataBytes = 0, 0
	for _, g := range img.Prog.Globals {
		if g.RO {
			img.Symbols[g.Name] = flash
			flash += uint32(g.Size)
			flash = align4(flash)
			img.RodataBytes += g.Size
		} else {
			img.Symbols[g.Name] = ram
			ram += uint32(g.Size)
			ram = align4(ram)
			img.DataBytes += g.Size
		}
	}
	return img.checkCapacity()
}

// checkCapacity validates flash and RAM budgets including stack reserve.
func (img *Image) checkCapacity() error {
	flashUsed := img.FlashCodeBytes + img.RodataBytes
	if flashUsed > img.Config.FlashSize {
		return fmt.Errorf("layout: flash overflow: %d bytes used, %d available",
			flashUsed, img.Config.FlashSize)
	}
	ramUsed := img.RAMCodeBytes + img.DataBytes + img.Config.StackReserve
	if ramUsed > img.Config.RAMSize {
		return fmt.Errorf("layout: RAM overflow: %d bytes used (incl. %d stack reserve), %d available",
			ramUsed, img.Config.StackReserve, img.Config.RAMSize)
	}
	return nil
}

// MemoryOf classifies an address.
func (img *Image) MemoryOf(addr uint32) (power.Memory, bool) {
	c := img.Config
	switch {
	case addr >= c.FlashBase && addr < c.FlashBase+uint32(c.FlashSize):
		return power.Flash, true
	case addr >= c.RAMBase && addr < c.RAMBase+uint32(c.RAMSize):
		return power.RAM, true
	}
	return power.None, false
}

// DataMem returns the memory instruction i of pl reads or writes when it
// executes. An ldr =x reads its literal-pool word: in the block's own
// memory, unless the word's laid-out address resolves to the other one.
// Every other load and store hits RAM, where the stack and every writable
// global live; a load through a register may read flash instead. Other
// instructions touch no data (power.None).
func (img *Image) DataMem(pl *Placed, i int) power.Memory {
	switch in := &pl.Block.Instrs[i]; {
	case in.Op == isa.LDRLIT:
		if m, ok := img.MemoryOf(pl.LitAddrs[i]); ok && pl.LitAddrs[i] != 0 {
			return m
		}
		if pl.InRAM {
			return power.RAM
		}
		return power.Flash
	case in.Op.IsLoad() || in.Op.IsStore():
		return power.RAM
	}
	return power.None
}

// CodeBounds returns the base address and byte length of the code region
// (instructions plus literal pools) resident in mem. Every instruction
// address of a block in mem lies in [base, base+length); the simulator's
// predecoded fetch table is indexed over exactly this range.
func (img *Image) CodeBounds(mem power.Memory) (base uint32, length uint32) {
	if mem == power.RAM {
		return img.Config.RAMBase, uint32(img.RAMCodeBytes)
	}
	return img.Config.FlashBase, uint32(img.FlashCodeBytes)
}

// PlacedBlock returns the placement record for a block label.
func (img *Image) PlacedBlock(label string) (*Placed, bool) {
	pl, ok := img.byLabel[label]
	return pl, ok
}

// InstrSize returns the laid-out size of instruction i of pl, including
// any widening.
func (pl *Placed) InstrSize(i int) int {
	sz := isa.Size(&pl.Block.Instrs[i])
	if pl.Wide[i] && sz < 4 {
		sz = 4
	}
	return sz
}

// SpareRAM returns the RAM bytes available for code given the data and
// stack reservation but ignoring any code already placed in RAM. This is
// the model's Rspare upper limit (§4.1): "derived statically, by
// considering the size of the variables in RAM, heap and the stack usage".
func SpareRAM(p *ir.Program, cfg Config) int {
	data := 0
	for _, g := range p.Globals {
		if !g.RO {
			data += g.Size
			if data%4 != 0 {
				data += 4 - data%4
			}
		}
	}
	spare := cfg.RAMSize - data - cfg.StackReserve
	if spare < 0 {
		return 0
	}
	return spare
}

// StackTop returns the initial stack pointer (top of RAM, 8-byte aligned).
func (img *Image) StackTop() uint32 {
	top := img.Config.RAMBase + uint32(img.Config.RAMSize)
	return top &^ 7
}
