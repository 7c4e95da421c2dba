package sim

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/power"
)

// The executor: at predecode time every instruction is lowered to one
// micro-op (uop) with its operands, cycle costs and energy outcomes
// resolved up front, and maximal straight-line runs of uops are fused
// into superblock descriptors. Every instruction executes through the
// one uop switch in runSuperblock — a fused run as one descriptor, any
// other instruction as a length-1 descriptor: a one-instruction window
// onto the uop its slot already owns (preceded by its guard uop when
// IT-predicated). There is no second interpreter.
//
// Fusion rules (DESIGN.md §6k):
//
//   - A run is a maximal address-contiguous sequence of instructions in
//     one memory. It may close with one terminal control transfer (B,
//     CBZ/CBNZ, BL, BX/BLX, ldr pc and pop {..., pc}, predicated or
//     not); everything else — data processing, loads, stores, literal
//     loads, push/pop, predicated instructions, faulting uops — is a
//     body uop. A fault mid-run flushes the exact partial stats of the
//     instructions before it and reports the same Fault a length-1
//     dispatch would.
//   - A superblock is entered only at its head. Statically known entry
//     points — branch targets, call-return addresses, ADR and
//     symbol-valued LDRLIT results (potential computed-jump targets),
//     the program entry — split runs so those entries land on a head. A
//     dynamic entry mid-run dispatches length-1 descriptors until it
//     reaches a head: slower, never different.
//   - runFrom dispatches length-1 descriptors only when an observer is
//     attached (events are per instruction), Machine.NoFuse is set, a
//     run would cross MaxInstrs (the limit faults on the exact
//     instruction), or a run's worst-case cycle cost could reach the
//     intermittent stop mark (the pause lands on the exact boundary).
//
// Stats do not depend on how instructions are grouped into descriptors:
// every charge is an integer — cycles into the (fetch memory, class,
// data memory) ledger (ledger.go) — so the static part pre-aggregates
// per descriptor exactly, uint64 addition being associative. Only the
// dynamic parts (a load hitting flash, a RAM-port load stall,
// conditional-terminal direction, failed predicates) are accounted at
// run time, and energy is priced from the ledger once, when the run
// ends.

// minFuse is the shortest run worth a precomputed descriptor; shorter
// runs execute as length-1 descriptors.
const minFuse = 2

// maxFuse caps run length at the cancellation poll interval so one
// fused run can never stretch the poll gap past cancelCheckMask+1
// dispatched instructions (runFrom polls before dispatching a run that
// would cross its re-armed mark).
const maxFuse = cancelCheckMask + 1

// unresolvedPC is the target a direct branch to an unresolved symbol
// jumps to. It is odd, so no instruction lives there: the branch charges
// like any taken branch and runFrom turns the landing into the
// "branch to unresolved" fault, blamed on the branch.
const unresolvedPC = 0xFFFFFFFF

// uop opcodes. Operand forms are specialized at lowering time (…I takes
// u.imm, …R takes m.regs[u.rm] << u.sh) so the executor never tests
// HasImm or Shift. Unary immediate forms (mov/mvn/sxtb/… #imm, adr,
// value-known LDRLIT) all fold to uMOVI with a precomputed imm.
const (
	uNOP = iota
	uMOVI
	uLDL // LDRLIT with Rd != PC: uMOVI plus load-class charge and stall
	uMOVR
	uMVNR
	uSXTBR
	uSXTHR
	uUXTBR
	uUXTHR
	uCLZR
	uADDI
	uADDR
	uADCI
	uADCR
	uSUBI
	uSUBR
	uSBCI
	uSBCR
	uRSBI
	uRSBR
	uMULI
	uMULR
	uMLAI
	uMLAR
	uSDIVI
	uSDIVR
	uUDIVI
	uUDIVR
	uANDI
	uANDR
	uORRI
	uORRR
	uEORI
	uEORR
	uBICI
	uBICR
	uLSLI
	uLSLR
	uLSRI
	uLSRR
	uASRI
	uASRR
	uRORI
	uRORR
	uCMPI
	uCMPR
	uCMNI
	uCMNR
	uTSTI
	uTSTR
	uLDRI // load [rn, #imm]
	uLDRR // load [rn, rm, lsl #sh]
	uSTRI
	uSTRR
	uPUSH // push {imm}: sz registers, ascending
	uPOP  // pop {imm} without pc
	// uGUARD precedes the uop of an IT-predicated instruction and is no
	// instruction itself: when cond holds the guarded uop executes next;
	// when it fails the guarded instruction charges its cyc2 cycles of no
	// data access at its own class, has no effects and is skipped.
	uGUARD
	// uFAULT faults when reached, charging nothing: unresolved ADR and
	// LDRLIT symbols, unimplemented ops.
	uFAULT
	// Terminal uops — always last in a run.
	uB     // pc = imm
	uBCC   // pc = imm when cond holds, else fall-through at cyc2
	uCBZ   // pc = imm when regs[rn] == 0, else fall-through at cyc2
	uCBNZ  // pc = imm when regs[rn] != 0, else fall-through at cyc2
	uBL    // LR = fall-through, pc = imm
	uBX    // pc = regs[rm] &^ 1
	uBLX   // LR = fall-through, pc = regs[rm] &^ 1
	uLDLPC // ldr pc, =imm: uB with a literal-load charge
	uPOPPC // pop {imm} including pc
)

// uop flag bits.
const (
	fS      = 1 << iota // apply the instruction's SetFlags rule
	fSign               // load sign-extends
	fStall              // RAM-resident fetch: a RAM data access stalls
	fLitRAM             // uLDL/uLDLPC: the literal pool lives in RAM
)

// Execution outcomes of one uop, which select its charge: the main
// outcome (cyc at data memory dm), the alternative (a load hitting
// flash, a conditional branch falling through) or a failed predicate. The
// executor records the last dynamic choice in Machine.oc — a store on
// the rare paths rather than a loop-carried local, which costs the fused
// loop a register — and only the length-1 path reads it back, to build
// the observer Event.
const (
	ocMain = iota
	ocAlt
	ocNT
)

// uop is one lowered instruction (an IT-predicated one is two: its guard,
// then itself): 16 bytes, stored contiguously in address order
// (engine.uops) so a fused run is a window of the array and the executor
// streams it. A uop carries no energy: its charges are ledger cells.
type uop struct {
	code uint8
	cond uint8 // uGUARD, uBCC: condition code
	rd   uint8
	rn   uint8
	rm   uint8
	sh   uint8 // operand/address shift amount (…R forms)
	sz   uint8 // load/store access bytes; uPUSH register count
	cyc  uint8 // cycles of the main outcome, stalls that are static included
	cyc2 uint8 // cycles of the fall-through or failed-predicate outcome
	cl   uint8 // isa.Class: the ledger row of every charge
	dm   uint8 // power.Memory the main outcome's data access hits (None if none)
	fl   uint8 // fS | fSign | fStall | fLitRAM

	imm uint32
}

// superblock is one dispatch descriptor: a fused run, or the length-1
// window runFrom builds for an unfused instruction (Machine.one).
type superblock struct {
	// uops is the run's window of engine.uops; slots parallels it in
	// engine.order (fault attribution, the partial stats flush, the
	// observer event); blocks windows engine.entries with the IDs of the
	// blocks the run enters.
	uops   []uop
	slots  []*slot
	blocks []int32
	n      uint64 // instructions: uops minus guards
	fall   uint32 // successor of the last instruction in address order
	// nextSB chains runs whose successor is static (fall-through, uB,
	// uBL, uLDLPC) and itself a run head: the executor continues there
	// without returning to the dispatch loop, as long as the caller's
	// dispatch limit (poll mark, MaxInstrs) and stop mark permit. -1
	// ends the chain.
	nextSB int32
	// staticCycles and charges pre-aggregate every statically charged
	// cycle of the run (a predicated instruction counts its executed
	// cost, a load its RAM-data outcome; a failed guard and a load
	// hitting flash correct at run time); conditional terminals and load
	// stalls are accounted at run time. charges lists the run's nonzero
	// ledger cells (fetch memory is uniform across a run, so a cell is a
	// class and a data memory); a length-1 descriptor leaves it unused
	// and charges its one uop's cell.
	staticCycles uint64
	charges      []charge
	// maxCycles is the worst-case cycle cost of one execution of the
	// run. runFrom and the chain gate compare it against the
	// intermittent stop mark — a run that could reach the mark is
	// declined, so the boundary instructions dispatch one at a time.
	maxCycles uint64
	fetchMem  power.Memory
}

// static is the uop's cycle cost known before it runs: its main-outcome
// cycles, except for a conditional terminal, whose direction is picked
// at run time.
func (u *uop) static() uint64 {
	switch u.code {
	case uBCC, uCBZ, uCBNZ:
		return 0
	}
	return uint64(u.cyc)
}

// charge is one pre-aggregated ledger cell of a fused run: cyc cycles
// at class cl and data memory dm.
type charge struct {
	cl, dm uint8
	cyc    uint32
}

// aggregate fills the descriptor's pre-aggregated cycle counts from its
// uops, appending its ledger cells to the engine's charge storage.
func (sb *superblock) aggregate(charges *[]charge) {
	var cells ledgerCells
	for k := range sb.uops {
		u := &sb.uops[k]
		if u.code == uGUARD {
			continue
		}
		sb.n++
		c := u.static()
		sb.staticCycles += c
		cells[u.cl][u.dm] += c
		// Worst case: the dearer direction of a conditional terminal,
		// every stall-capable load stalling, failed predicates at their
		// own cost when that is higher.
		sb.maxCycles += max(uint64(u.cyc), uint64(u.cyc2))
		if (u.code == uLDRI || u.code == uLDRR) && u.fl&fStall != 0 {
			sb.maxCycles += isa.RAMContentionStall
		}
	}
	c0 := len(*charges)
	for cl := range cells {
		for dm, c := range cells[cl] {
			if c != 0 {
				*charges = append(*charges, charge{cl: uint8(cl), dm: uint8(dm), cyc: uint32(c)})
			}
		}
	}
	sb.charges = (*charges)[c0:len(*charges):len(*charges)]
}

// forms maps an op to its immediate and register uop forms (the
// immediate unary forms fold to uMOVI instead; direct branches have one).
var forms = [...][2]uint8{
	isa.MOV: {uMOVI, uMOVR}, isa.MVN: {uMOVI, uMVNR},
	isa.SXTB: {uMOVI, uSXTBR}, isa.SXTH: {uMOVI, uSXTHR},
	isa.UXTB: {uMOVI, uUXTBR}, isa.UXTH: {uMOVI, uUXTHR}, isa.CLZ: {uMOVI, uCLZR},
	isa.ADD: {uADDI, uADDR}, isa.ADC: {uADCI, uADCR},
	isa.SUB: {uSUBI, uSUBR}, isa.SBC: {uSBCI, uSBCR},
	isa.RSB: {uRSBI, uRSBR},
	isa.MUL: {uMULI, uMULR}, isa.MLA: {uMLAI, uMLAR},
	isa.SDIV: {uSDIVI, uSDIVR}, isa.UDIV: {uUDIVI, uUDIVR},
	isa.AND: {uANDI, uANDR}, isa.ORR: {uORRI, uORRR},
	isa.EOR: {uEORI, uEORR}, isa.BIC: {uBICI, uBICR},
	isa.LSL: {uLSLI, uLSLR}, isa.LSR: {uLSRI, uLSRR},
	isa.ASR: {uASRI, uASRR}, isa.ROR: {uRORI, uRORR},
	isa.CMP: {uCMPI, uCMPR}, isa.CMN: {uCMNI, uCMNR},
	isa.TST: {uTSTI, uTSTR},
	isa.B:   {uB, uB}, isa.CBZ: {uCBZ, uCBZ}, isa.CBNZ: {uCBNZ, uCBNZ}, isa.BL: {uBL, uBL},
}

// lower translates one instruction to its uop. target is its resolved
// branch target, ADR address or literal value (valid iff targetOK);
// litMem is where an LDRLIT's pool word lives.
func lower(in *isa.Instr, fetchMem, litMem power.Memory, target uint32, targetOK bool) uop {
	cyc := isa.Cycles(in)
	u := uop{
		rd: uint8(in.Rd), rn: uint8(in.Rn),
		cyc: uint8(cyc), cyc2: uint8(isa.CyclesNotTaken(in)),
		cl: uint8(isa.ClassOf(in.Op)),
		dm: uint8(power.None),
	}
	if in.SetFlags {
		u.fl |= fS
	}
	setRM := func() {
		u.rm, u.sh = uint8(in.Rm), in.Shift
	}
	// operand2 of the immediate forms, for lowering-time folding.
	imm := uint32(in.Imm)
	// A RAM-fetched access to RAM data stalls the single RAM port.
	stallIf := func(dataMem power.Memory) {
		if fetchMem == power.RAM && dataMem == power.RAM {
			cyc += isa.RAMContentionStall
			u.fl |= fStall
		}
		u.cyc = uint8(cyc)
		u.dm = uint8(dataMem)
	}

	switch in.Op {
	case isa.NOP, isa.IT:
		u.code, u.fl = uNOP, u.fl&^fS
	case isa.MOV, isa.MVN, isa.SXTB, isa.SXTH, isa.UXTB, isa.UXTH, isa.CLZ:
		if in.HasImm {
			// Fold the unary op over the constant operand now.
			u.code = uMOVI
			switch in.Op {
			case isa.MOV:
				u.imm = imm
			case isa.MVN:
				u.imm = ^imm
			case isa.SXTB:
				u.imm = uint32(int32(int8(imm)))
			case isa.SXTH:
				u.imm = uint32(int32(int16(imm)))
			case isa.UXTB:
				u.imm = imm & 0xFF
			case isa.UXTH:
				u.imm = imm & 0xFFFF
			case isa.CLZ:
				u.imm = uint32(bits.LeadingZeros32(imm))
			}
		} else {
			setRM()
			u.code = forms[in.Op][1]
		}
	case isa.ADD, isa.ADC, isa.SUB, isa.SBC, isa.RSB,
		isa.MUL, isa.MLA, isa.SDIV, isa.UDIV,
		isa.AND, isa.ORR, isa.EOR, isa.BIC,
		isa.LSL, isa.LSR, isa.ASR, isa.ROR,
		isa.CMP, isa.CMN, isa.TST:
		if in.HasImm {
			u.code, u.imm = forms[in.Op][0], imm
		} else {
			u.code = forms[in.Op][1]
			setRM()
		}
	case isa.ADR:
		// ADR ignores SetFlags; so must the fold.
		u.code, u.imm, u.fl = uMOVI, target, u.fl&^fS
		if !targetOK {
			u.code = uFAULT
		}
	case isa.LDRLIT:
		u.fl &^= fS
		stallIf(litMem)
		if litMem == power.RAM {
			u.fl |= fLitRAM
		}
		u.code, u.imm = uLDL, target
		if in.Rd == isa.PC {
			u.code = uLDLPC
		}
		if !targetOK {
			u.code = uFAULT
		}
	case isa.LDR, isa.LDRB, isa.LDRH, isa.LDRSB, isa.LDRSH,
		isa.STR, isa.STRB, isa.STRH:
		u.code = uLDRI
		if in.Op.IsStore() {
			u.code = uSTRI
		}
		switch in.Mode {
		case isa.AddrOffset:
			u.imm = imm
		case isa.AddrReg:
			u.code++ // the …R form follows its …I form
			u.rm = uint8(in.Rm)
		case isa.AddrRegLSL:
			u.code++
			setRM()
		}
		size, signed := memWidth(in.Op)
		u.sz = uint8(size)
		if signed {
			u.fl |= fSign
		}
		if in.Op.IsStore() {
			// A successful store always hits RAM (stores to flash fault).
			u.dm = uint8(power.RAM)
			break
		}
		// The main outcome is RAM data — the stack and every writable
		// global live there — with a RAM fetch's stall added at run time;
		// a flash hit is the executor's alternative.
		u.dm = uint8(power.RAM)
		if fetchMem == power.RAM {
			u.fl |= fStall
		}
	case isa.PUSH:
		u.code, u.imm, u.sz = uPUSH, uint32(in.RegList), uint8(bits.OnesCount16(in.RegList))
		u.dm = uint8(power.RAM)
	case isa.POP:
		u.code, u.imm = uPOP, uint32(in.RegList)
		if in.RegList&(1<<isa.PC) != 0 {
			u.code = uPOPPC
		}
		stallIf(power.RAM)
	case isa.B, isa.CBZ, isa.CBNZ, isa.BL:
		u.code = forms[in.Op][1]
		u.imm = target
		if !targetOK {
			u.imm = unresolvedPC
		}
		if in.Op == isa.B && in.Cond != isa.AL {
			u.code, u.cond = uBCC, uint8(in.Cond)
		}
	case isa.BX, isa.BLX:
		u.code, u.rm = uBX, uint8(in.Rm)
		if in.Op == isa.BLX {
			u.code = uBLX
		}
	default:
		u.code = uFAULT
	}
	return u
}

// guard returns the uGUARD uop lowered ahead of u when in is
// IT-predicated (a conditional B carries its own condition instead). A
// predicated no-op whose charge is the same either way needs none.
func guard(in *isa.Instr, u *uop) (uop, bool) {
	if in.Cond == isa.AL || in.Op == isa.B || (u.code == uNOP && u.cyc == u.cyc2) {
		return uop{}, false
	}
	return uop{code: uGUARD, cond: uint8(in.Cond)}, true
}

// fuse carves the lowered uops of one region — engine.uops[lo:hi], in
// address order — into maximal runs and appends their descriptors.
// Heads (slot.head) must already be marked.
func (e *engine) fuse(lo, hi int, fetchMem power.Memory) {
	for k := lo; k < hi; {
		// n counts instructions, end is the run's uop bound.
		n, end := 1, k+int(e.order[k].w)
		if e.uops[end-1].code < uB {
			for n < maxFuse && end < hi {
				nx := e.slotAt(e.order[end-1].seqNext)
				if nx == nil {
					break // literal pool or padding: not contiguous
				}
				// A terminal is absorbed even at a head address: it
				// could never head a run of its own, so nothing is lost,
				// and a direct entry at it still dispatches correctly.
				w := int(e.order[end].w)
				if e.uops[end+w-1].code >= uB {
					n, end = n+1, end+w
					break
				}
				if nx.head {
					break
				}
				n, end = n+1, end+w
			}
		}
		if n >= minFuse {
			sb := superblock{
				uops:     e.uops[k:end],
				slots:    e.order[k:end],
				fall:     e.order[end-1].seqNext,
				fetchMem: fetchMem,
				nextSB:   -1,
			}
			b0 := len(e.entries)
			for j, s := range sb.slots {
				if s.index == 0 && sb.uops[j].code != uGUARD {
					e.entries = append(e.entries, int32(s.pl.ID))
				}
			}
			sb.blocks = e.entries[b0:len(e.entries):len(e.entries)]
			sb.aggregate(&e.charges)
			e.order[k].sb = int32(len(e.super))
			e.super = append(e.super, sb)
		}
		k = end
	}
}

// link chains every run whose successor is static and itself a run head.
// Both regions must be carved first.
func (e *engine) link() {
	for i := range e.super {
		sb := &e.super[i]
		next := sb.fall
		last := len(sb.uops) - 1
		switch u := &sb.uops[last]; u.code {
		case uB, uBL, uLDLPC:
			if last > 0 && sb.uops[last-1].code == uGUARD {
				continue // may fall through instead: dynamic
			}
			next = u.imm
		case uBCC, uCBZ, uCBNZ, uBX, uBLX, uPOPPC:
			continue // dynamic successor: the chain ends here
		}
		if s := e.slotAt(next); s != nil && s.sb >= 0 {
			sb.nextSB = s.sb
		}
	}
}

// single returns the length-1 descriptor for s: a window onto the uops
// the slot owns, in the machine's reused scratch descriptor. Its static
// cycles all belong to the one instruction's ledger cell, so charges
// stays unused.
// It also does the length-1 path's bookkeeping, keeping the fused path
// free of it: the unfused count and the pre-execution cycle and stall
// counts the observer Event is derived from.
func (m *Machine) single(s *slot) *superblock {
	e := &m.eng
	one := &m.one
	k, w := int(s.k), int(s.w)
	one.uops, one.slots, one.blocks = e.uops[k:k+w], e.order[k:k+w], nil
	if s.index == 0 {
		one.blocks = e.entries[k : k+1] // entries starts with each uop's block
	}
	one.n, one.fall, one.fetchMem, one.nextSB = 1, s.seqNext, s.fetchMem, -1
	one.staticCycles = e.uops[k+w-1].static()
	m.unfused++
	m.cycles0, m.stalls0 = m.stats.Cycles, m.stats.ContentionStalls
	return one
}

// instrLimit is MaxInstrs, or its default when unset.
func (m *Machine) instrLimit() uint64 {
	if m.MaxInstrs == 0 {
		return 500_000_000
	}
	return m.MaxInstrs
}

func (m *Machine) runFrom(ctx context.Context, entry uint32) error {
	maxInstrs := m.instrLimit()
	// stop is the executed-cycle pause mark (intermittent segments);
	// zero means none and degrades to a never-reached sentinel so the
	// hot loop pays one compare either way.
	stop := m.stopCycles
	if stop == 0 {
		stop = ^uint64(0)
	}
	done := ctx.Done() // nil for context.Background: poll compiles out
	super := m.eng.super
	obs := m.obs
	// Fused dispatch needs per-instruction observer events off and the
	// differential knob unset; both are fixed for the whole run.
	fuse := obs == nil && !m.NoFuse
	// nextPoll is the instruction count at which the context must be
	// polled again. Re-arming it after every poll (instead of masking
	// the count) keeps the <= cancelCheckMask+1 dispatched-instructions
	// guarantee when superblocks retire thousands of instructions at
	// once: a run that would cross the mark polls before dispatching.
	var nextPoll uint64
	pc := entry
	var last *slot // previous instruction, for wild-jump faults
	for {
		if pc == exitLR {
			return nil
		}
		s := m.slotAt(pc)
		if s == nil {
			return m.wildJump(pc, last)
		}
		var sb *superblock
		// A run that would cross MaxInstrs dispatches one instruction at
		// a time so the limit faults on the exact instruction; one whose
		// worst-case cycle bound could reach the stop mark does too, so
		// the pause lands on the exact boundary.
		if fuse && s.sb >= 0 {
			if r := &super[s.sb]; m.stats.Instructions+r.n <= maxInstrs &&
				m.stats.Cycles+r.maxCycles < stop {
				sb = r
			}
		}
		if sb == nil {
			// The pause rule: an instruction executes iff its
			// pre-execution cycle count is below the stop mark. It
			// depends only on Stats, so any grouping into descriptors
			// pauses at the same boundary.
			if m.stats.Cycles >= stop {
				m.pausePC = pc
				return errStopCycles
			}
			if m.stats.Instructions >= maxInstrs {
				f := &Fault{PC: pc, Reason: fmt.Sprintf("instruction limit %d exceeded", maxInstrs)}
				f.locate(s.ref())
				return f
			}
			sb = m.single(s)
		}
		if done != nil && m.stats.Instructions+sb.n > nextPoll {
			m.polls++
			select {
			case <-done:
				cause := context.Cause(ctx)
				f := &Fault{PC: pc, Reason: "run cancelled: " + cause.Error(), Cause: cause}
				f.locate(s.ref())
				return f
			default:
			}
			nextPoll = m.stats.Instructions + cancelCheckMask + 1
		}
		// The chain inside runSuperblock may not cross the nearer of the
		// poll mark and the instruction limit; it returns at the
		// boundary and this loop polls or faults there.
		limit := maxInstrs
		if done != nil && nextPoll < limit {
			limit = nextPoll
		}
		next, tail, f := m.runSuperblock(sb, limit, stop)
		if f != nil {
			if sb == &m.one {
				m.unfused-- // it did not retire
			}
			return f // located by flushFault
		}
		if obs != nil {
			m.emit(s, pc)
		}
		last, pc = tail, next
	}
}

// wildJump builds the fault for a transfer to pc, which holds no
// instruction. A direct branch to an unresolved symbol lands here on
// unresolvedPC and is reported as such, at the branch.
func (m *Machine) wildJump(pc uint32, last *slot) *Fault {
	f := &Fault{PC: pc, Reason: "jump to non-instruction address"}
	if last == nil {
		return f
	}
	switch u := m.eng.uopOf(last); u.code {
	case uB, uBCC, uCBZ, uCBNZ, uBL:
		if pc == unresolvedPC && u.imm == unresolvedPC {
			in := &last.pl.Block.Instrs[last.index]
			f = &Fault{PC: last.pl.InstrAddrs[last.index], Reason: fmt.Sprintf("branch to unresolved %q", in.Sym)}
		}
	}
	f.locate(last.ref()) // blame the transferring block
	return f
}

// emit reports a length-1 dispatch to the observer. Everything dynamic
// about the charge comes from the executor — the outcome m.oc and the
// cycle and stall deltas since single; the rest is static in the uop.
// The event's energy is its cycles at the per-cycle energy of the cell
// they were charged to — the ledger's own product, one event at a time.
func (m *Machine) emit(s *slot, pc uint32) {
	u := m.eng.uopOf(s)
	ev := Event{
		Block: s.pl, Index: int(s.index), PC: pc,
		Class: isa.Class(u.cl), FetchMem: s.fetchMem, DataMem: power.None,
		Cycles:     m.stats.Cycles - m.cycles0,
		Stall:      (m.stats.ContentionStalls - m.stalls0) * isa.RAMContentionStall,
		BlockEntry: s.index == 0,
	}
	op := u.code
	switch m.oc {
	case ocNT:
		// A failed predicate: cyc2 cycles of no data access.
	case ocAlt:
		if op == uLDRI || op == uLDRR {
			ev.DataMem = power.Flash
		}
	default:
		switch op {
		case uLDRI, uLDRR, uSTRI, uSTRR, uPUSH, uPOP, uPOPPC:
			ev.DataMem = power.RAM
		case uLDL, uLDLPC:
			ev.DataMem = power.Flash
			if u.fl&fLitRAM != 0 {
				ev.DataMem = power.RAM
			}
		}
		ev.Taken = op >= uB
	}
	ev.EnergyNJ = float64(ev.Cycles) * m.eng.epc[s.fetchMem][u.cl][ev.DataMem]
	m.ev = ev
	m.obs.Event(&m.ev)
}

// uopOf is the uop that executes s's instruction (after its guard, if
// any).
func (e *engine) uopOf(s *slot) *uop {
	return &e.uops[int(s.k)+int(s.w)-1]
}

// runSuperblock executes one descriptor — and chains straight into
// statically linked successor runs while the dispatch limit permits —
// returning the next PC and the last executed instruction's slot, or a
// located Fault when an instruction faults. Cycles and their ledger
// cells were pre-aggregated, so at run time only the dynamic parts
// remain — load stalls, loads hitting flash, conditional-terminal
// direction, failed predicates — and the per-uop tail is empty.
//
// limit is the instruction count the chain must not cross: the nearer of
// the re-armed cancellation poll mark and MaxInstrs. The caller polls or
// faults at the boundary, so chaining never stretches either guarantee.
// stop is the executed-cycle pause mark (never-reached sentinel outside
// intermittent runs): a successor whose worst-case cycle bound could
// reach it ends the chain, mirroring runFrom's entry gate.
func (m *Machine) runSuperblock(sb *superblock, limit, stop uint64) (uint32, *slot, *Fault) {
	st := &m.stats
	super, counts := m.eng.super, m.eng.blockCounts
chain:
	lg := &m.led[sb.fetchMem]
	// tcyc is the conditional terminal's chosen cycle cost (zero when
	// the run ends unconditionally — those cycles are in staticCycles);
	// the other dynamic charges accumulate in m.dyn.
	var tcyc uint64
	dyn := &m.dyn
	next := sb.fall
	uops := sb.uops
	m.oc = ocMain
loop:
	for i := 0; i < len(uops); i++ {
		u := &uops[i]
		switch u.code {
		case uNOP:
		case uMOVI:
			m.write(u, u.imm)
		case uLDL:
			// The stall cycle (if any) is static — the pool's memory is
			// known — and already folded into u.cyc; only the event
			// counts.
			m.regs[u.rd] = u.imm
			if u.fl&fStall != 0 {
				dyn.stallEv++
			}
		case uMOVR:
			m.write(u, m.regs[u.rm]<<u.sh)
		case uMVNR:
			m.write(u, ^(m.regs[u.rm] << u.sh))
		case uSXTBR:
			m.write(u, uint32(int32(int8(m.regs[u.rm]<<u.sh))))
		case uSXTHR:
			m.write(u, uint32(int32(int16(m.regs[u.rm]<<u.sh))))
		case uUXTBR:
			m.write(u, (m.regs[u.rm]<<u.sh)&0xFF)
		case uUXTHR:
			m.write(u, (m.regs[u.rm]<<u.sh)&0xFFFF)
		case uCLZR:
			m.write(u, uint32(bits.LeadingZeros32(m.regs[u.rm]<<u.sh)))
		case uADDI:
			a := m.regs[u.rn]
			v := a + u.imm
			if u.fl&fS != 0 {
				m.setAddFlags(a, u.imm, 0)
			}
			m.regs[u.rd] = v
		case uADDR:
			a, b := m.regs[u.rn], m.regs[u.rm]<<u.sh
			v := a + b
			if u.fl&fS != 0 {
				m.setAddFlags(a, b, 0)
			}
			m.regs[u.rd] = v
		case uADCI:
			a := m.regs[u.rn]
			carry := uint32(0)
			if m.c {
				carry = 1
			}
			v := a + u.imm + carry
			if u.fl&fS != 0 {
				m.setAddFlags(a, u.imm, carry)
			}
			m.regs[u.rd] = v
		case uADCR:
			a, b := m.regs[u.rn], m.regs[u.rm]<<u.sh
			carry := uint32(0)
			if m.c {
				carry = 1
			}
			v := a + b + carry
			if u.fl&fS != 0 {
				m.setAddFlags(a, b, carry)
			}
			m.regs[u.rd] = v
		case uSUBI:
			a := m.regs[u.rn]
			v := a - u.imm
			if u.fl&fS != 0 {
				m.setSubFlags(a, u.imm)
			}
			m.regs[u.rd] = v
		case uSUBR:
			a, b := m.regs[u.rn], m.regs[u.rm]<<u.sh
			v := a - b
			if u.fl&fS != 0 {
				m.setSubFlags(a, b)
			}
			m.regs[u.rd] = v
		case uSBCI:
			borrow := uint32(1)
			if m.c {
				borrow = 0
			}
			m.write(u, m.regs[u.rn]-u.imm-borrow)
		case uSBCR:
			borrow := uint32(1)
			if m.c {
				borrow = 0
			}
			m.write(u, m.regs[u.rn]-m.regs[u.rm]<<u.sh-borrow)
		case uRSBI:
			a := m.regs[u.rn]
			v := u.imm - a
			if u.fl&fS != 0 {
				m.setSubFlags(u.imm, a)
			}
			m.regs[u.rd] = v
		case uRSBR:
			a, b := m.regs[u.rn], m.regs[u.rm]<<u.sh
			v := b - a
			if u.fl&fS != 0 {
				m.setSubFlags(b, a)
			}
			m.regs[u.rd] = v
		case uMULI:
			m.write(u, m.regs[u.rn]*u.imm)
		case uMULR:
			m.write(u, m.regs[u.rn]*(m.regs[u.rm]<<u.sh))
		case uMLAI:
			m.write(u, m.regs[u.rd]+m.regs[u.rn]*u.imm)
		case uMLAR:
			m.write(u, m.regs[u.rd]+m.regs[u.rn]*(m.regs[u.rm]<<u.sh))
		case uSDIVI:
			m.write(u, sdiv(m.regs[u.rn], u.imm))
		case uSDIVR:
			m.write(u, sdiv(m.regs[u.rn], m.regs[u.rm]<<u.sh))
		case uUDIVI:
			m.write(u, udiv(m.regs[u.rn], u.imm))
		case uUDIVR:
			m.write(u, udiv(m.regs[u.rn], m.regs[u.rm]<<u.sh))
		case uANDI:
			m.write(u, m.regs[u.rn]&u.imm)
		case uANDR:
			m.write(u, m.regs[u.rn]&(m.regs[u.rm]<<u.sh))
		case uORRI:
			m.write(u, m.regs[u.rn]|u.imm)
		case uORRR:
			m.write(u, m.regs[u.rn]|m.regs[u.rm]<<u.sh)
		case uEORI:
			m.write(u, m.regs[u.rn]^u.imm)
		case uEORR:
			m.write(u, m.regs[u.rn]^m.regs[u.rm]<<u.sh)
		case uBICI:
			m.write(u, m.regs[u.rn]&^u.imm)
		case uBICR:
			m.write(u, m.regs[u.rn]&^(m.regs[u.rm]<<u.sh))
		case uLSLI:
			m.write(u, shiftL(m.regs[u.rn], u.imm))
		case uLSLR:
			m.write(u, shiftL(m.regs[u.rn], m.regs[u.rm]<<u.sh))
		case uLSRI:
			m.write(u, shiftR(m.regs[u.rn], u.imm))
		case uLSRR:
			m.write(u, shiftR(m.regs[u.rn], m.regs[u.rm]<<u.sh))
		case uASRI:
			m.write(u, shiftAR(m.regs[u.rn], u.imm))
		case uASRR:
			m.write(u, shiftAR(m.regs[u.rn], m.regs[u.rm]<<u.sh))
		case uRORI:
			m.write(u, rotR(m.regs[u.rn], u.imm))
		case uRORR:
			m.write(u, rotR(m.regs[u.rn], m.regs[u.rm]<<u.sh))
		case uCMPI:
			m.setSubFlags(m.regs[u.rn], u.imm)
		case uCMPR:
			m.setSubFlags(m.regs[u.rn], m.regs[u.rm]<<u.sh)
		case uCMNI:
			m.setAddFlags(m.regs[u.rn], u.imm, 0)
		case uCMNR:
			m.setAddFlags(m.regs[u.rn], m.regs[u.rm]<<u.sh, 0)
		case uTSTI:
			m.setNZ(m.regs[u.rn] & u.imm)
		case uTSTR:
			m.setNZ(m.regs[u.rn] & (m.regs[u.rm] << u.sh))
		case uLDRI, uLDRR:
			// m.load open-coded (it is beyond the inlining budget and
			// this is every load's path): same bounds rule, same fault,
			// same sign extension.
			addr := m.regs[u.rn] + u.imm
			if u.code == uLDRR {
				addr = m.regs[u.rn] + m.regs[u.rm]<<u.sh
			}
			var v uint32
			flash := false
			if d := addr - m.ramBase; uint64(d)+uint64(u.sz) <= uint64(m.ramSize) {
				v = readLE(m.ram[d:], int(u.sz))
			} else if d := addr - m.flashBase; uint64(d)+uint64(u.sz) <= uint64(m.flashSize) {
				v = readLE(m.flash[d:], int(u.sz))
				flash = true
			} else {
				return 0, nil, m.flushFault(sb, i, m.accessFault("load", addr, int(u.sz)))
			}
			if u.fl&fSign != 0 {
				shift := uint(32 - 8*u.sz)
				v = uint32(int32(v<<shift) >> shift)
			}
			m.regs[u.rd] = v
			if flash {
				dyn.flashCyc += uint64(u.cyc)
				m.oc = ocAlt
			} else if u.fl&fStall != 0 {
				dyn.stallCyc++
				dyn.stallEv++
			}
		case uSTRI, uSTRR:
			addr := m.regs[u.rn] + u.imm
			if u.code == uSTRR {
				addr = m.regs[u.rn] + m.regs[u.rm]<<u.sh
			}
			if d := addr - m.ramBase; uint64(d)+uint64(u.sz) <= uint64(m.ramSize) {
				writeLE(m.ram[d:], m.regs[u.rd], int(u.sz))
			} else if _, err := m.store(addr, m.regs[u.rd], int(u.sz)); err != nil {
				// m.store re-derives the flash/unmapped/straddle fault.
				return 0, nil, m.flushFault(sb, i, err)
			}
		case uPUSH:
			if err := m.push(u.imm, u.sz); err != nil {
				return 0, nil, m.flushFault(sb, i, err)
			}
		case uPOP, uPOPPC:
			pc, err := m.pop(u.imm)
			if err != nil {
				return 0, nil, m.flushFault(sb, i, err)
			}
			// The RAM-port stall is static (the stack is RAM) and folded
			// into u.cyc; only the event counts.
			if u.fl&fStall != 0 {
				dyn.stallEv++
			}
			if u.code == uPOPPC {
				next = pc
				break loop
			}
		case uGUARD:
			if isa.Cond(u.cond).Holds(m.n, m.z, m.c, m.v) {
				continue // the guarded uop executes next
			}
			// A failed predicate: the guarded instruction charges its
			// cyc2 cycles of no data access at its own class, has no
			// effects and is skipped.
			i++
			g := &uops[i]
			m.oc = ocNT
			if g.code == uCBZ || g.code == uCBNZ {
				// Charged exactly like the branch not taken.
				tcyc = uint64(g.cyc2)
				break loop
			}
			// Move the pre-aggregated executed cost to the failed
			// predicate's cell on the spot (wrapping arithmetic: a cell
			// may dip below zero until the run's flush adds it back).
			st.Cycles += uint64(g.cyc2) - uint64(g.cyc)
			lg[g.cl][g.dm] -= uint64(g.cyc)
			lg[g.cl][power.None] += uint64(g.cyc2)
			continue
		case uFAULT:
			return 0, nil, m.flushFault(sb, i, m.eng.faultOf(sb.slots[i]))
		// Terminals are always last: each charges itself and leaves the
		// loop, so next and tcyc are never carried around it.
		case uB:
			next = u.imm
			break loop
		case uBL:
			next = u.imm
			m.regs[isa.LR] = sb.fall
			break loop
		case uLDLPC:
			next = u.imm
			if u.fl&fStall != 0 {
				dyn.stallEv++
			}
			break loop
		case uBCC:
			if isa.Cond(u.cond).Holds(m.n, m.z, m.c, m.v) {
				next, tcyc = u.imm, uint64(u.cyc)
			} else {
				tcyc = uint64(u.cyc2)
				m.oc = ocAlt
			}
			break loop
		case uCBZ, uCBNZ:
			if (m.regs[u.rn] == 0) == (u.code == uCBZ) {
				next, tcyc = u.imm, uint64(u.cyc)
			} else {
				tcyc = uint64(u.cyc2)
				m.oc = ocAlt
			}
			break loop
		case uBX:
			next = m.regs[u.rm] &^ 1
			break loop
		case uBLX:
			next = m.regs[u.rm] &^ 1
			m.regs[isa.LR] = sb.fall
			break loop
		}
	}
	st.Instructions += sb.n
	st.Cycles += sb.staticCycles + tcyc
	// Dynamic charges land on fixed cells: a conditional terminal (tcyc
	// is zero otherwise) on (branch, none), the loads' on theirs.
	lg[isa.ClassBranch][power.None] += tcyc
	if *dyn != (dynCharges{}) {
		m.flushDyn(lg)
	}
	if sb.n == 1 {
		u := &uops[len(uops)-1] // one instruction, one cell
		lg[u.cl][u.dm] += sb.staticCycles
	} else {
		for _, c := range sb.charges {
			lg[c.cl][c.dm] += uint64(c.cyc)
		}
	}
	for _, id := range sb.blocks {
		counts[id]++
	}
	if sb.nextSB >= 0 {
		if nb := &super[sb.nextSB]; st.Instructions+nb.n <= limit && st.Cycles+nb.maxCycles < stop {
			sb = nb
			goto chain
		}
	}
	return next, sb.slots[len(uops)-1], nil
}

// write sets the uop's destination register to v and applies the
// N/Z rule of its SetFlags bit.
func (m *Machine) write(u *uop, v uint32) {
	m.regs[u.rd] = v
	if u.fl&fS != 0 {
		m.setNZ(v)
	}
}

// flushFault commits the exact partial stats of a descriptor that
// faulted at uop i (the faulting instruction has charged nothing, but
// its block entry counts) and returns the located fault. Cold path: it
// reconstructs the prefix's static cycles and ledger cells by walking
// uops[:i] — the dynamic load charges were tracked by the caller and
// arrive as arguments (failed-predicate corrections are already
// committed).
func (m *Machine) flushFault(sb *superblock, i int, err error) *Fault {
	st := &m.stats
	lg := &m.led[sb.fetchMem]
	var instrs, cycles uint64
	for k := 0; k <= i; k++ {
		u, s := &sb.uops[k], sb.slots[k]
		if u.code == uGUARD {
			continue
		}
		if s.index == 0 {
			m.eng.blockCounts[s.pl.ID]++
		}
		if k < i {
			instrs++
			cycles += uint64(u.cyc)
			lg[u.cl][u.dm] += uint64(u.cyc)
		}
	}
	st.Instructions += instrs
	st.Cycles += cycles
	m.flushDyn(lg)
	s := sb.slots[i]
	f := &Fault{PC: s.pl.InstrAddrs[s.index], Reason: err.Error()}
	f.locate(s.ref())
	return f
}

// push stores the listed registers (n of them), ascending, to ascending
// addresses below SP. A fault part way leaves the words already stored
// and SP unchanged.
func (m *Machine) push(list uint32, n uint8) error {
	sp := m.regs[isa.SP] - 4*uint32(n)
	a := sp
	for l := list; l != 0; l &= l - 1 {
		if _, err := m.store(a, m.regs[bits.TrailingZeros32(l)], 4); err != nil {
			return err
		}
		a += 4
	}
	m.regs[isa.SP] = sp
	return nil
}

// pop loads the listed registers, ascending, from SP up and returns the
// word popped into PC (bit 0 cleared), if listed. Registers load as they
// are read, so a fault part way leaves the earlier ones written and SP
// unchanged.
func (m *Machine) pop(list uint32) (pc uint32, err error) {
	a := m.regs[isa.SP]
	for l := list; l != 0; l &= l - 1 {
		v, _, err := m.load(a, 4, false)
		if err != nil {
			return 0, err
		}
		if r := bits.TrailingZeros32(l); r == int(isa.PC) {
			pc = v &^ 1
		} else {
			m.regs[r] = v
		}
		a += 4
	}
	m.regs[isa.SP] = a
	return pc, nil
}

// faultOf is the error a uFAULT raises, by the instruction it lowers.
func (e *engine) faultOf(s *slot) error {
	in := &s.pl.Block.Instrs[s.index]
	switch in.Op {
	case isa.LDRLIT:
		return fmt.Errorf("unresolved literal %q", in.Sym)
	case isa.ADR:
		return fmt.Errorf("unresolved adr %q", in.Sym)
	}
	return fmt.Errorf("unimplemented op %v", in.Op)
}

func sdiv(a, b uint32) uint32 {
	switch {
	case b == 0:
		return 0 // ARM defines divide-by-zero result as 0
	case int32(a) == -1<<31 && int32(b) == -1:
		return a // overflow case: result is the dividend
	}
	return uint32(int32(a) / int32(b))
}

func udiv(a, b uint32) uint32 {
	if b == 0 {
		return 0
	}
	return a / b
}
