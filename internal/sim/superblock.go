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
//     one memory. It may close with one terminal control transfer (B
//     or B<c>, BL, BX/BLX, ldr pc and pop {..., pc}); everything else —
//     data processing, loads, stores, literal loads, push/pop,
//     predicated mov and ldr =sym, faulting uops — is a body uop. A
//     fault mid-run flushes the exact partial stats of the instructions
//     before it and reports the same Fault a length-1 dispatch would.
//   - A superblock is entered only at its head. Statically known entry
//     points — branch targets, call-return addresses, symbol-valued
//     LDRLIT results (potential computed-jump targets),
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
// u.imm, …R takes m.regs[u.rm]) so the executor never tests HasImm;
// value-known LDRLIT loads its precomputed imm.
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
	uADDI
	uADDR
	uSUBI
	uSUBR
	uRSBI
	uMULR
	uSDIVR
	uUDIVR
	uANDR
	uORRR
	uEORR
	uLSLR
	uLSRR
	uASRR
	uCMPI
	uCMPR
	uLDR  // load [rn, #imm]
	uSTR  // store [rn, #imm]
	uPUSH // push {imm}: sz registers, ascending
	uPOP  // pop {imm} without pc
	// uGUARD precedes the uop of an IT-predicated instruction (mov<c> or
	// ldr<c> =sym, never a terminal) and is no instruction itself: when
	// cond holds the guarded uop executes next; when it fails the guarded
	// instruction charges its cyc2 cycles of no data access at its own
	// class, has no effects and is skipped.
	uGUARD
	// uFAULT faults when reached, charging nothing: unresolved LDRLIT
	// symbols, instructions outside isa.OpForms.
	uFAULT
	// Terminal uops — always last in a run.
	uB     // pc = imm
	uBCC   // pc = imm when cond holds, else fall-through at cyc2
	uBL    // LR = fall-through, pc = imm
	uBX    // pc = regs[rm] &^ 1
	uBLX   // LR = fall-through, pc = regs[rm] &^ 1
	uLDLPC // ldr pc, =imm: uB with a literal-load charge
	uPOPPC // pop {imm} including pc
)

// uop flag bits.
const (
	fSign   = 1 << iota // load sign-extends
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
	sz   uint8 // load/store access bytes; uPUSH register count
	cyc  uint8 // cycles of the main outcome, stalls that are static included
	cyc2 uint8 // cycles of the fall-through or failed-predicate outcome
	cl   uint8 // isa.Class: the ledger row of every charge
	dm   uint8 // power.Memory the main outcome's data access hits (None if none)
	fl   uint8 // fSign | fStall | fLitRAM

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
	if u.code == uBCC {
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
		if u.code == uLDR && u.fl&fStall != 0 {
			sb.maxCycles += power.RAMContentionStall
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

// forms maps a data-processing op to its uop by operand form (zero where
// isa.OpForms has no such pair).
var forms = [...][isa.FormImm + 1]uint8{
	isa.MOV: {uMOVR, uMOVI}, isa.MVN: {uMVNR},
	isa.SXTB: {uSXTBR}, isa.SXTH: {uSXTHR}, isa.UXTB: {uUXTBR}, isa.UXTH: {uUXTHR},
	isa.ADD: {uADDR, uADDI}, isa.SUB: {uSUBR, uSUBI}, isa.RSB: {isa.FormImm: uRSBI},
	isa.MUL: {uMULR}, isa.SDIV: {uSDIVR}, isa.UDIV: {uUDIVR},
	isa.AND: {uANDR}, isa.ORR: {uORRR}, isa.EOR: {uEORR},
	isa.LSL: {uLSLR}, isa.LSR: {uLSRR}, isa.ASR: {uASRR},
	isa.CMP: {uCMPR, uCMPI},
}

// lower translates one instruction to its uop. target is its resolved
// branch target or literal value (valid iff targetOK); dm is where its
// data access lands in the main outcome (layout.Image.DataMem: a load
// hitting flash instead is the executor's alternative). Its cycles are
// power.Cycles.
func lower(in *isa.Instr, fetchMem, dm power.Memory, target uint32, targetOK bool) uop {
	u := uop{
		rd: uint8(in.Rd), rn: uint8(in.Rn),
		cyc: uint8(power.Cycles(in, fetchMem, dm, isa.Executed)),
		cl:  uint8(isa.ClassOf(in.Op)),
		dm:  uint8(dm),
	}
	if o, ok := isa.Alternative(in); ok {
		u.cyc2 = uint8(power.Cycles(in, fetchMem, power.None, o))
	}
	// Whatever a RAM access costs over a flash one is the single RAM
	// port's stall.
	if dm == power.RAM && power.Cycles(in, fetchMem, power.RAM, isa.Executed) > power.Cycles(in, fetchMem, power.Flash, isa.Executed) {
		u.fl |= fStall
	}
	if !isa.Emitted(in) {
		u.code = uFAULT
		return u
	}
	imm := uint32(in.Imm)

	switch in.Op {
	case isa.NOP, isa.IT:
		u.code = uNOP
	case isa.MOV, isa.MVN, isa.SXTB, isa.SXTH, isa.UXTB, isa.UXTH,
		isa.ADD, isa.SUB, isa.RSB, isa.MUL, isa.SDIV, isa.UDIV,
		isa.AND, isa.ORR, isa.EOR, isa.LSL, isa.LSR, isa.ASR, isa.CMP:
		u.code, u.rm, u.imm = forms[in.Op][isa.FormOf(in)], uint8(in.Rm), imm
	case isa.LDRLIT:
		if dm == power.RAM {
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
		u.code, u.imm = uSTR, imm
		if in.Op.IsLoad() {
			// Priced at flash data: the executor adds the stall when a
			// RAM-fetched load (fStall) hits RAM.
			u.code, u.cyc = uLDR, uint8(power.Cycles(in, fetchMem, power.Flash, isa.Executed))
		}
		size, signed := memWidth(in.Op)
		u.sz = uint8(size)
		if signed {
			u.fl |= fSign
		}
	case isa.PUSH:
		u.code, u.imm, u.sz = uPUSH, uint32(in.RegList), uint8(bits.OnesCount16(in.RegList))
	case isa.POP:
		u.code, u.imm = uPOP, uint32(in.RegList)
		if in.RegList&(1<<isa.PC) != 0 {
			u.code = uPOPPC
		}
	case isa.B, isa.BL:
		u.code, u.imm = uB, target
		if in.Op == isa.BL {
			u.code = uBL
		}
		if !targetOK {
			u.imm = unresolvedPC
		}
		if in.Cond != isa.AL { // only b takes a condition
			u.code, u.cond = uBCC, uint8(in.Cond)
		}
	case isa.BX, isa.BLX:
		u.code, u.rm = uBX, uint8(in.Rm)
		if in.Op == isa.BLX {
			u.code = uBLX
		}
	}
	return u
}

// guard returns the uGUARD uop lowered ahead of u when in is
// IT-predicated. A conditional B carries its own condition instead, an it
// charges the same either way, and an instruction outside the modeled
// set faults whether its condition holds or not.
func guard(in *isa.Instr, u *uop) (uop, bool) {
	if in.Cond == isa.AL || in.Op == isa.B || in.Op == isa.IT || u.code == uFAULT {
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
			next = u.imm
		case uBCC, uBX, uBLX, uPOPPC:
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
	case uB, uBCC, uBL:
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
		Stall:      (m.stats.ContentionStalls - m.stalls0) * power.RAMContentionStall,
		BlockEntry: s.index == 0,
	}
	op := u.code
	switch m.oc {
	case ocNT:
		// A failed predicate: cyc2 cycles of no data access.
	case ocAlt:
		if op == uLDR {
			ev.DataMem = power.Flash
		}
	default:
		switch op {
		case uLDR, uSTR, uPUSH, uPOP, uPOPPC:
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
			m.regs[u.rd] = u.imm
		case uLDL:
			// The stall cycle (if any) is static — the pool's memory is
			// known — and already folded into u.cyc; only the event
			// counts.
			m.regs[u.rd] = u.imm
			if u.fl&fStall != 0 {
				dyn.stallEv++
			}
		case uMOVR:
			m.regs[u.rd] = m.regs[u.rm]
		case uMVNR:
			m.regs[u.rd] = ^m.regs[u.rm]
		case uSXTBR:
			m.regs[u.rd] = uint32(int32(int8(m.regs[u.rm])))
		case uSXTHR:
			m.regs[u.rd] = uint32(int32(int16(m.regs[u.rm])))
		case uUXTBR:
			m.regs[u.rd] = m.regs[u.rm] & 0xFF
		case uUXTHR:
			m.regs[u.rd] = m.regs[u.rm] & 0xFFFF
		case uADDI:
			m.regs[u.rd] = m.regs[u.rn] + u.imm
		case uADDR:
			m.regs[u.rd] = m.regs[u.rn] + m.regs[u.rm]
		case uSUBI:
			m.regs[u.rd] = m.regs[u.rn] - u.imm
		case uSUBR:
			m.regs[u.rd] = m.regs[u.rn] - m.regs[u.rm]
		case uRSBI:
			m.regs[u.rd] = u.imm - m.regs[u.rn]
		case uMULR:
			m.regs[u.rd] = m.regs[u.rn] * m.regs[u.rm]
		case uSDIVR:
			m.regs[u.rd] = sdiv(m.regs[u.rn], m.regs[u.rm])
		case uUDIVR:
			m.regs[u.rd] = udiv(m.regs[u.rn], m.regs[u.rm])
		case uANDR:
			m.regs[u.rd] = m.regs[u.rn] & m.regs[u.rm]
		case uORRR:
			m.regs[u.rd] = m.regs[u.rn] | m.regs[u.rm]
		case uEORR:
			m.regs[u.rd] = m.regs[u.rn] ^ m.regs[u.rm]
		case uLSLR:
			m.regs[u.rd] = shiftL(m.regs[u.rn], m.regs[u.rm])
		case uLSRR:
			m.regs[u.rd] = shiftR(m.regs[u.rn], m.regs[u.rm])
		case uASRR:
			m.regs[u.rd] = shiftAR(m.regs[u.rn], m.regs[u.rm])
		case uCMPI:
			m.setSubFlags(m.regs[u.rn], u.imm)
		case uCMPR:
			m.setSubFlags(m.regs[u.rn], m.regs[u.rm])
		case uLDR:
			// m.load open-coded (it is beyond the inlining budget and
			// this is every load's path): same bounds rule, same fault,
			// same sign extension.
			addr := m.regs[u.rn] + u.imm
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
		case uSTR:
			addr := m.regs[u.rn] + u.imm
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
	if !isa.Emitted(in) {
		return fmt.Errorf("%q is outside the modeled instruction set", in.String())
	}
	return fmt.Errorf("unresolved literal %q", in.Sym)
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
