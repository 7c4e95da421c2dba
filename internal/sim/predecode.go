package sim

import (
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/power"
)

// The predecoded execution engine: at SetImage time the placed image is
// compiled once into dense per-memory slot tables and one uop per
// instruction (superblock.go), so the run loop dispatches on an array
// index instead of a map lookup and every per-instruction constant —
// class, cycle costs, sequential successor, resolved branch target,
// literal value, per-cycle energy — is computed exactly once instead of
// once per executed instruction.
//
// Invariants (enforced by the sim tests, the event-stream golden and
// the core session goldens):
//
//   - Stats, fault messages and the observer event stream depend only
//     on the image and the program's inputs, never on how instructions
//     are grouped into descriptors: fused and length-1 dispatch are
//     byte-identical. Every charge is an integer count of cycles in a
//     (fetch memory, class, data memory) ledger cell (ledger.go), and
//     energy is priced from the ledger once per run in a fixed order,
//     so it is a pure function of those integers on every path. An
//     observer event's energy is its cycles times its cell's per-cycle
//     energy, precomputed here with one float64 expression per cell.
//   - The tables are rebuilt on any image change (Machine.SetImage) and
//     only then; Reset keeps them.

// slot is one predecoded instruction address. Slots are indexed by
// (pc - regionBase) >> 1 within their memory's table; a slot whose pl is
// nil is not an instruction start (literal pool words, alignment padding,
// the second half of a 32-bit encoding) and faults like any other
// non-instruction address. A slot keeps only what dispatch and fault
// attribution need; the semantics live in its uop.
type slot struct {
	pl      *layout.Placed
	seqNext uint32 // pc + laid-out instruction size
	index   int32  // instruction index within the block
	k       int32  // this instruction's first uop (its guard, if any) in engine.uops
	// sb indexes engine.super when this slot heads a fused run, -1
	// otherwise. Only head slots carry a descriptor — a jump into the
	// middle of a run dispatches length-1 descriptors.
	sb       int32
	w        uint8 // uops of this instruction: 2 with a guard, else 1
	fetchMem power.Memory
	// head marks a statically known entry point: a fused run may start
	// here but never continue across it.
	head bool
}

// engine holds the predecoded tables for the two code regions plus the
// dense per-block entry counters.
type engine struct {
	flash, ram         []slot
	flashBase, ramBase uint32
	flashLen, ramLen   uint32 // code byte extents (table covers len>>1 slots)

	// uops holds the lowered instructions — one uop each, a guard first
	// for IT-predicated ones — flash region first, each region in address
	// order, so a fused run is a window of it. order parallels it with
	// each uop's slot.
	uops  []uop
	order []*slot

	// blockCounts is the dense form of Stats.BlockCounts, indexed by
	// layout.Placed.ID and materialized into the public map form only
	// when a run completes.
	blockCounts []uint64

	// super holds the fused run descriptors, indexed by slot.sb. entries
	// backs the descriptors' block-entry windows: first each uop's block
	// ID in uops order (a length-1 window), then each fused run's
	// compacted list; charges backs their pre-aggregated ledger cells.
	// Rebuilt with the tables on SetImage.
	super   []superblock
	entries []int32
	charges []charge

	// epc is the energy charged per cycle (nJ), by fetch memory, class
	// and data memory outcome (power.Flash, RAM, None), computed from
	// prof — the profile the tables were built for.
	epc  [2][isa.NumClasses][3]float64
	prof *power.Profile

	// entry is the program entry address, valid iff entryOK.
	entry   uint32
	entryOK bool

	splits []uint32 // predecode scratch: statically known entry points
}

// slotAt resolves a fetch address against the predecoded tables. It
// returns nil for odd addresses, addresses outside the code regions, and
// addresses inside them that are not an instruction start.
func (m *Machine) slotAt(pc uint32) *slot { return m.eng.slotAt(pc) }

func (e *engine) slotAt(pc uint32) *slot {
	if pc&1 != 0 {
		return nil
	}
	// Unsigned wraparound makes the single compare also reject pc < base.
	if d := pc - e.flashBase; d < e.flashLen {
		if s := &e.flash[d>>1]; s.pl != nil {
			return s
		}
		return nil
	}
	if d := pc - e.ramBase; d < e.ramLen {
		if s := &e.ram[d>>1]; s.pl != nil {
			return s
		}
	}
	return nil
}

// ref converts a slot back to the layout reference used by faults.
func (s *slot) ref() layout.InstrRef {
	return layout.InstrRef{Placed: s.pl, Index: int(s.index)}
}

// predecode compiles the current image into the engine tables. Called by
// SetImage only — the tables depend on nothing but the image and the
// profile, both fixed until the next SetImage.
func (m *Machine) predecode() {
	img, prof := m.Img, m.Profile
	e := &m.eng
	e.flashBase, e.flashLen = img.CodeBounds(power.Flash)
	e.ramBase, e.ramLen = img.CodeBounds(power.RAM)
	e.flash = resize(e.flash, int(e.flashLen+1)>>1)
	e.ram = resize(e.ram, int(e.ramLen+1)>>1)
	e.blockCounts = resize(e.blockCounts, len(img.Blocks))
	e.entry, e.entryOK = img.Symbols[img.Prog.Entry]
	e.prof = prof

	// Per (fetchMem, class, dataMem) energy table: the price of a ledger
	// cell's cycle.
	for fm := power.Flash; fm <= power.RAM; fm++ {
		for cl := isa.Class(0); cl < isa.NumClasses; cl++ {
			for dm := 0; dm < 3; dm++ {
				e.epc[fm][cl][dm] = prof.EnergyPerCycle(prof.InstrPower(fm, cl, power.Memory(dm)))
			}
		}
	}

	n := 0
	for _, pl := range img.Blocks {
		fetchMem, tbl, base := power.Flash, e.flash, e.flashBase
		if pl.InRAM {
			fetchMem, tbl, base = power.RAM, e.ram, e.ramBase
		}
		for i := range pl.Block.Instrs {
			tbl[(pl.InstrAddrs[i]-base)>>1] = slot{
				pl:       pl,
				seqNext:  pl.InstrAddrs[i] + uint32(pl.InstrSize(i)),
				index:    int32(i),
				sb:       -1,
				fetchMem: fetchMem,
			}
		}
		n += len(pl.Block.Instrs)
	}

	// Lower every instruction in address order, region by region, and
	// collect the statically known entry points: resolved branch targets,
	// call-return addresses, ADR results and symbol-valued LDRLIT results
	// (potential computed jumps), and the entry point. Value-only LDRLIT
	// constants are excluded — they are data, and splitting at whatever
	// code address they happen to alias would chop runs for nothing.
	e.uops, e.order, e.entries = resize(e.uops, n)[:0], resize(e.order, n)[:0], resize(e.entries, n)[:0]
	e.splits = append(e.splits[:0], e.entry)
	var bounds [3]int
	for r, tbl := range [2][]slot{e.flash, e.ram} {
		for h := range tbl {
			s := &tbl[h]
			if s.pl == nil {
				continue
			}
			in := &s.pl.Block.Instrs[s.index]
			var target uint32
			var targetOK bool
			litMem := s.fetchMem
			switch in.Op {
			case isa.B, isa.CBZ, isa.CBNZ, isa.BL, isa.ADR:
				target, targetOK = img.Symbols[in.Sym]
				if targetOK {
					e.splits = append(e.splits, target)
				}
			case isa.LDRLIT:
				// The pool travels with its block unless the slot address
				// resolves elsewhere.
				if la := s.pl.LitAddrs[s.index]; la != 0 {
					if mm, ok := img.MemoryOf(la); ok {
						litMem = mm
					}
				}
				if in.Sym != "" {
					target, targetOK = img.Symbols[in.Sym]
					if targetOK {
						e.splits = append(e.splits, target)
					}
				} else {
					target, targetOK = uint32(in.Imm), true
				}
			}
			if in.Op == isa.BL || in.Op == isa.BLX {
				e.splits = append(e.splits, s.seqNext)
			}
			s.k, s.w = int32(len(e.uops)), 1
			u := lower(in, s.fetchMem, litMem, target, targetOK)
			if g, ok := guard(in, &u); ok {
				s.w = 2
				e.uops = append(e.uops, g)
				e.order = append(e.order, s)
				e.entries = append(e.entries, int32(s.pl.ID))
			}
			e.uops = append(e.uops, u)
			e.order = append(e.order, s)
			e.entries = append(e.entries, int32(s.pl.ID))
		}
		bounds[r+1] = len(e.uops)
	}
	for _, a := range e.splits {
		if s := e.slotAt(a); s != nil {
			s.head = true
		}
	}

	// With every uop lowered, fuse straight-line runs into superblock
	// descriptors and chain them.
	e.super, e.charges = e.super[:0], e.charges[:0]
	e.fuse(bounds[0], bounds[1], power.Flash)
	e.fuse(bounds[1], bounds[2], power.RAM)
	e.link()
}

// resize reuses the backing array across SetImage calls when it is big
// enough (the session pipeline retargets one machine per run) and
// returns it cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
