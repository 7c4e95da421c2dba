package mcc

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/isa"
)

// Allocation is the result of register allocation for one function.
type Allocation struct {
	// Reg maps a vreg to its physical register; only vregs present here
	// are register-resident.
	Reg map[VReg]isa.Reg
	// Spill maps a vreg to its spill-slot index (densely numbered).
	Spill map[VReg]int
	// NumSpills is the spill slot count.
	NumSpills int
	// UsedCalleeSaved lists the callee-saved registers the allocation
	// touches, ascending.
	UsedCalleeSaved []isa.Reg
}

// allocatable is the callee-saved register file available to vregs.
// r0-r3 and r12 stay free as codegen scratch and AAPCS argument
// registers; values therefore survive calls by construction.
var allocatable = []isa.Reg{
	isa.R4, isa.R5, isa.R6, isa.R7, isa.R8, isa.R9, isa.R10, isa.R11,
}

// AllocateSpillAll puts every vreg on the stack (the O0 code shape: every
// value lives in memory, loaded and stored around each operation).
func AllocateSpillAll(f *MFunc) *Allocation {
	a := &Allocation{Reg: map[VReg]isa.Reg{}, Spill: map[VReg]int{}}
	for v := 0; v < f.NumVRegs; v++ {
		a.Spill[VReg(v)] = v
	}
	a.NumSpills = f.NumVRegs
	return a
}

// interval is a live range over global instruction positions.
type interval struct {
	v          VReg
	start, end int
}

// Allocate runs linear-scan register allocation (Poletto/Sarkar style)
// over liveness-derived intervals.
func Allocate(f *MFunc) *Allocation {
	liveOut := liveness(f)

	// Global numbering; ends[v] < 0 marks a vreg with no position yet.
	pos := 0
	starts := make([]int, f.NumVRegs)
	ends := make([]int, f.NumVRegs)
	for v := range starts {
		starts[v], ends[v] = math.MaxInt, -1
	}
	// touch widens v's interval to include position p. Starts must be
	// lowerable, not just set-once: block list order is not control-flow
	// order (else blocks are laid out after their join blocks), so a
	// liveness extension can touch a position below the first def/use.
	touch := func(v VReg, p int) {
		if v == NoVReg {
			return
		}
		starts[v] = min(starts[v], p)
		ends[v] = max(ends[v], p)
	}
	// Parameters are defined at position 0.
	for _, pr := range f.ParamRegs {
		touch(pr, 0)
	}
	blockStart := make([]int, len(f.Blocks))
	blockEnd := make([]int, len(f.Blocks))
	var uses []VReg
	for bi, b := range f.Blocks {
		blockStart[bi] = pos
		for i := range b.Ins {
			in := &b.Ins[i]
			uses = in.appendUses(uses[:0])
			for _, u := range uses {
				touch(u, pos)
			}
			touch(in.Def(), pos)
			pos++
		}
		blockEnd[bi] = pos - 1
	}
	// Extend intervals across blocks where values are live-out (covers
	// loop-carried values).
	for bi, out := range liveOut {
		for w, x := range out {
			for ; x != 0; x &= x - 1 {
				v := VReg(w*64 + bits.TrailingZeros64(x))
				touch(v, blockStart[bi])
				touch(v, blockEnd[bi])
			}
		}
	}

	var ivs []interval
	for v, e := range ends {
		if e >= 0 {
			ivs = append(ivs, interval{v: VReg(v), start: starts[v], end: e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].start != ivs[j].start {
			return ivs[i].start < ivs[j].start
		}
		return ivs[i].v < ivs[j].v
	})

	a := &Allocation{Reg: map[VReg]isa.Reg{}, Spill: map[VReg]int{}}
	type active struct {
		interval
		r isa.Reg
	}
	var act []*active
	free := append([]isa.Reg(nil), allocatable...)

	expire := func(p int) {
		keep := act[:0]
		for _, x := range act {
			if x.end < p {
				free = append(free, x.r)
			} else {
				keep = append(keep, x)
			}
		}
		act = keep
	}
	for _, iv := range ivs {
		expire(iv.start)
		if len(free) > 0 {
			// Lowest-numbered free register first (narrow encodings).
			slices.Sort(free)
			r := free[0]
			free = free[1:]
			a.Reg[iv.v] = r
			act = append(act, &active{iv, r})
			continue
		}
		// Spill the active interval with the furthest end.
		furthest := -1
		for i, x := range act {
			if furthest < 0 || x.end > act[furthest].end {
				furthest = i
			}
		}
		if act[furthest].end > iv.end {
			victim := act[furthest]
			a.Reg[iv.v] = victim.r
			delete(a.Reg, victim.v)
			a.Spill[victim.v] = a.NumSpills
			a.NumSpills++
			act[furthest] = &active{iv, victim.r}
		} else {
			a.Spill[iv.v] = a.NumSpills
			a.NumSpills++
		}
	}

	used := map[isa.Reg]bool{}
	for _, r := range a.Reg {
		used[r] = true
	}
	for _, r := range allocatable {
		if used[r] {
			a.UsedCalleeSaved = append(a.UsedCalleeSaved, r)
		}
	}
	return a
}
