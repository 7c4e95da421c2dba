package sim

import (
	"context"
	"errors"

	"repro/internal/isa"
	"repro/internal/power"
)

// Intermittent execution (DESIGN.md §6l): RunIntermittent replays a
// PowerTrace against the program. Execution proceeds in segments of
// executed cycles; each segment ends at the nearer of the next periodic
// checkpoint mark and the next outage instant. A checkpoint journals the
// volatile state (registers, flags, RAM) to flash and charges the
// journal's write cost; an outage discards the volatile state, waits out
// the trace's down time, charges the restore cost (journal read-back
// plus the flash→RAM copy of RAM-resident code and data) and resumes at
// the last checkpoint, re-executing — and re-charging — the lost work.
//
// The segment boundaries live in executed-cycle space and the stop rule
// is "an instruction executes iff its pre-execution cycle count is below
// the stop mark", which depends only on Stats — not on how instructions
// are grouped into descriptors — so a trace-driven run is byte-identical
// with fusion on or off: runFrom declines the fused path for any
// superblock whose worst-case cycle bound could reach the mark, and the
// boundary instructions dispatch as length-1 descriptors either way.
//
// Replay fast-forward. Every attempt that starts from the current
// snapshot's state follows one deterministic trajectory — the machine
// state is registers, flags and RAM, and an outage discards exactly what
// a restore puts back — so every segment an outage loses since that
// snapshot is a prefix of it. Each lost segment is recorded at its
// outage (its state, pc and the integer delta of every run counter) in a
// fixed ring of the two most recent. A segment that starts in the
// snapshot state installs the longest record it would re-execute whole —
// the record's cycles within the stop mark, its instructions within
// MaxInstrs — and simulates on from there: the same instructions, the
// same counters, at the cost of one RAM copy. Observer-attached runs
// always simulate, since their event stream is per instruction.

// errStopCycles is runFrom's internal pause signal: the executed-cycle
// stop mark was reached at an instruction boundary. Machine.pausePC
// holds the resume address. Never escapes RunIntermittent.
var errStopCycles = errors.New("sim: cycle stop reached")

// DefaultCheckpointCycles is the checkpoint interval used when
// IntermittentConfig leaves it zero: frequent enough that an outage
// rarely loses more than a few percent of a BEEBS run, sparse enough
// that journal writes stay a small overhead.
const DefaultCheckpointCycles = 20000

// ckptFixedWords is the placement-independent part of the checkpoint
// journal: the register file and flags (17 words) plus a fixed reserve
// for the live stack, rounded up to a deliberately simple bound.
const ckptFixedWords = 82

// ckptCyclesPerWord prices one journal word through the flash port —
// the same per-word cost the startup .data/.ramcode copy charges
// (core.startupCopyCost), so boot-time and checkpoint-time flash↔RAM
// traffic are priced consistently.
const ckptCyclesPerWord = 6

// CheckpointCostPerByteNJ prices the journal traffic one RAM-placed byte
// adds to each checkpoint (store-class flash write out) and each restore
// (load-class read back), in nJ per byte per event — the basis a
// checkpoint-aware placement uses for model.Params.CkptNJPerByte. Uses
// the same per-word cycle cost the simulator charges, so the model term
// and the measured overhead agree.
func CheckpointCostPerByteNJ(prof *power.Profile) (ckptNJ, restoreNJ float64) {
	perByte := float64(ckptCyclesPerWord) / 4
	ckptNJ = perByte * prof.EnergyPerCycle(prof.FetchPower[power.Flash][isa.ClassStore])
	restoreNJ = perByte * prof.EnergyPerCycle(prof.FetchPower[power.Flash][isa.ClassLoad])
	return ckptNJ, restoreNJ
}

// IntermittentConfig parameterizes one trace-driven run.
type IntermittentConfig struct {
	// Trace schedules the power failures (nil or empty = none; the run
	// then differs from Run only by its periodic checkpoint costs).
	Trace *PowerTrace
	// CheckpointCycles is the executed-cycle interval between periodic
	// checkpoints (0 = DefaultCheckpointCycles).
	CheckpointCycles uint64
}

// IntermittentReport is the outcome of a trace-driven run. Stats keeps
// its usual meaning — every executed instruction, replays included — and
// the intermittent dimensions (overhead, down time, lost work) are
// itemized alongside so completed-work-per-joule and time-to-completion
// are derivable exactly.
type IntermittentReport struct {
	// Stats covers every executed instruction, including work that an
	// outage later discarded and the machine re-executed.
	Stats Stats
	// CheckpointIntervalCycles echoes the configured interval.
	CheckpointIntervalCycles uint64
	// Outages endured and checkpoints taken (the implicit power-on
	// checkpoint is free and uncounted).
	Outages     int
	Checkpoints int
	// ReplayedInstrs is the total work discarded by outages — every one
	// of these instructions was executed (and charged) at least twice.
	ReplayedInstrs uint64
	// DownCycles is wall-clock time spent with power off.
	DownCycles uint64
	// Checkpoint/restore overhead: journal traffic cycles and energy.
	CheckpointOverheadCycles uint64
	RestoreOverheadCycles    uint64
	CheckpointEnergyNJ       float64
	RestoreEnergyNJ          float64
	// WallCycles is time-to-completion: executed cycles plus overhead
	// plus down time.
	WallCycles uint64
}

// TotalEnergyNJ is everything the harvester had to deliver: execution
// (replays included) plus checkpoint and restore traffic.
func (r *IntermittentReport) TotalEnergyNJ() float64 {
	return r.Stats.EnergyNJ + r.CheckpointEnergyNJ + r.RestoreEnergyNJ
}

// UsefulInstructions is the program's forward progress: executed
// instructions minus the replays (each lost instruction re-executes
// exactly once per outage that discarded it).
func (r *IntermittentReport) UsefulInstructions() uint64 {
	return r.Stats.Instructions - r.ReplayedInstrs
}

// WorkPerMJ is completed work per delivered energy, in useful
// instructions per millijoule — the intermittent-computing figure of
// merit (forward progress per charge).
func (r *IntermittentReport) WorkPerMJ() float64 {
	e := r.TotalEnergyNJ() * 1e-6
	if e == 0 {
		return 0
	}
	return float64(r.UsefulInstructions()) / e
}

// TimeToCompletionS converts WallCycles to seconds at a clock rate.
func (r *IntermittentReport) TimeToCompletionS(clockHz float64) float64 {
	return float64(r.WallCycles) / clockHz
}

// cpuState is the volatile state an outage discards, and the pc to
// resume at. The RAM image covers data, stack and the RAM-resident code
// the restore copies back from flash.
type cpuState struct {
	regs       [isa.NumRegs]uint32
	n, z, c, v bool
	ram        []byte
	pc         uint32
}

// runCounters are a run's integer counters other than its block counts:
// Stats.Instructions, Cycles and ContentionStalls, the unfused count and
// the energy ledger.
type runCounters struct {
	instrs, cycles, stalls, unfused uint64
	led                             ledger
}

func (m *Machine) counters() runCounters {
	return runCounters{m.stats.Instructions, m.stats.Cycles, m.stats.ContentionStalls, m.unfused, m.led}
}

func (m *Machine) setCounters(c *runCounters) {
	m.stats.Instructions, m.stats.Cycles, m.stats.ContentionStalls = c.instrs, c.cycles, c.stalls
	m.unfused, m.led = c.unfused, c.led
}

// add adds d to c, counter by counter.
func (c *runCounters) add(d *runCounters) {
	c.instrs += d.instrs
	c.cycles += d.cycles
	c.stalls += d.stalls
	c.unfused += d.unfused
	c.led.add(&d.led)
}

// sub subtracts o from c, counter by counter.
func (c *runCounters) sub(o *runCounters) {
	c.instrs -= o.instrs
	c.cycles -= o.cycles
	c.stalls -= o.stalls
	c.unfused -= o.unfused
	c.led.sub(&o.led)
}

// saveCPU copies the registers and flags into s, with the pc to resume
// at; the RAM image is the caller's to move.
func (m *Machine) saveCPU(s *cpuState, pc uint32) {
	s.regs, s.pc = m.regs, pc
	s.n, s.z, s.c, s.v = m.n, m.z, m.c, m.v
}

func (m *Machine) loadCPU(s *cpuState) {
	m.regs = s.regs
	m.n, m.z, m.c, m.v = s.n, s.z, s.c, s.v
}

// ckptSnapshot is the state a checkpoint preserves, and the run's
// counters when the machine was last in that state — at the checkpoint
// or at the latest restore — which are the replay baseline for
// lost-work accounting and the origin of every lost segment's delta.
type ckptSnapshot struct {
	cpuState
	at       runCounters
	atCounts []uint64 // dense block counts at the same moment
}

// lostSegment is an attempt an outage discarded: the state it reached
// and its counter deltas from the snapshot state. instrs == 0 marks an
// empty ring slot.
type lostSegment struct {
	cpuState
	d      runCounters
	counts []uint64
}

// atSnapshot reports whether the machine is still in the snapshot state:
// nothing has executed or been installed since the checkpoint or the
// restore.
func (m *Machine) atSnapshot() bool { return m.stats.Instructions == m.snap.at.instrs }

// takeSnapshot checkpoints the current state and empties the ring: the
// recorded segments start from the previous snapshot's state.
func (m *Machine) takeSnapshot(pc uint32) {
	s := &m.snap
	m.saveCPU(&s.cpuState, pc)
	s.ram = grow(s.ram, len(m.ram))
	copy(s.ram, m.ram)
	m.markSnapshotState()
	for i := range m.lost {
		m.lost[i].d.instrs = 0
	}
}

// markSnapshotState records the counters as the snapshot state's.
func (m *Machine) markSnapshotState() {
	s := &m.snap
	s.at = m.counters()
	s.atCounts = grow(s.atCounts, len(m.eng.blockCounts))
	copy(s.atCounts, m.eng.blockCounts)
}

// recordLost files the attempt an outage just ended, stopped at pc, in
// the older ring slot — unless a record of the same length exists, which
// is the same prefix. The lost RAM image moves into the slot by a buffer
// swap: the restore overwrites m.ram anyway.
func (m *Machine) recordLost(pc uint32) {
	s := &m.snap
	d := m.counters()
	d.sub(&s.at)
	for i := range m.lost {
		if m.lost[i].d.instrs == d.instrs {
			return
		}
	}
	r := &m.lost[m.lostNext]
	m.lostNext ^= 1
	m.saveCPU(&r.cpuState, pc)
	r.d = d
	r.ram = grow(r.ram, len(m.ram))
	r.ram, m.ram = m.ram, r.ram
	r.counts = grow(r.counts, len(m.eng.blockCounts))
	for i, n := range m.eng.blockCounts {
		r.counts[i] = n - s.atCounts[i]
	}
}

// restore puts the snapshot's registers and flags back after an outage
// and makes the current counters the snapshot state's. The RAM copy is
// left to resume, which may install a recorded segment's RAM instead.
func (m *Machine) restore() {
	m.loadCPU(&m.snap.cpuState)
	m.markSnapshotState()
}

// resume completes a restore at the start of the segment that runs up to
// stop: it installs the longest recorded segment that segment would
// re-execute whole — its cycles within the stop mark, its instructions
// within the instruction limit — and returns the pc to simulate on from;
// with no such record it copies the snapshot's RAM back and returns the
// snapshot's pc.
func (m *Machine) resume(stop uint64) uint32 {
	cycles, instrs := stop-m.stats.Cycles, m.instrLimit()-m.stats.Instructions
	var best *lostSegment
	for i := range m.lost {
		r := &m.lost[i]
		if r.d.instrs != 0 && r.d.cycles <= cycles && r.d.instrs <= instrs &&
			(best == nil || r.d.instrs > best.d.instrs) {
			best = r
		}
	}
	if best == nil {
		copy(m.ram, m.snap.ram)
		return m.snap.pc
	}
	copy(m.ram, best.ram)
	m.loadCPU(&best.cpuState)
	c := m.counters()
	c.add(&best.d)
	m.setCounters(&c)
	for i, n := range best.counts {
		m.eng.blockCounts[i] += n
	}
	m.ffwd += best.d.instrs
	return best.pc
}

// grow returns s with length n, reallocating only when its capacity is
// short; the contents are not cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// checkpointFootprintWords is the journal size: RAM-resident code and
// data (this is where placement meets intermittence — every block moved
// to RAM grows every checkpoint and restore) plus the fixed register,
// flag and stack reserve.
func (m *Machine) checkpointFootprintWords() uint64 {
	return uint64(m.Img.RAMCodeBytes+m.Img.DataBytes+3)/4 + ckptFixedWords
}

// checkpointCost prices one journal write: flash-port store traffic.
func (m *Machine) checkpointCost() (cycles uint64, energyNJ float64) {
	cycles = m.checkpointFootprintWords() * ckptCyclesPerWord
	mw := m.Profile.FetchPower[power.Flash][isa.ClassStore]
	return cycles, float64(cycles) * m.Profile.EnergyPerCycle(mw)
}

// restoreCost prices one power-on restore: journal read-back and the
// flash→RAM copy-back, as flash-port load traffic.
func (m *Machine) restoreCost() (cycles uint64, energyNJ float64) {
	cycles = m.checkpointFootprintWords() * ckptCyclesPerWord
	mw := m.Profile.FetchPower[power.Flash][isa.ClassLoad]
	return cycles, float64(cycles) * m.Profile.EnergyPerCycle(mw)
}

// RunIntermittent executes the program under the power trace and returns
// the intermittent report. The machine must be freshly created or Reset.
// Outage instants are wall-clock; they convert to executed-cycle stop
// marks by subtracting the wall time not spent executing (overhead and
// down time so far), and an instant the wall clock has already passed —
// power failing during a restore, or back-to-back outages — fires at the
// very next instruction boundary. MaxInstrs counts replayed instructions
// too, so a trace that starves the program of progress faults instead of
// spinning forever; cancellation works exactly as in RunContext.
func (m *Machine) RunIntermittent(ctx context.Context, cfg IntermittentConfig) (*IntermittentReport, error) {
	trace := cfg.Trace
	if trace == nil {
		trace = &PowerTrace{}
	}
	if err := trace.Validate(); err != nil {
		return nil, err
	}
	interval := cfg.CheckpointCycles
	if interval == 0 {
		interval = DefaultCheckpointCycles
	}
	entry, err := m.entry()
	if err != nil {
		return nil, err
	}

	rep := &IntermittentReport{CheckpointIntervalCycles: interval}
	// The implicit checkpoint zero is the power-on state: flash holds
	// the whole image, so losing power before the first checkpoint just
	// replays from reset at restore cost.
	m.takeSnapshot(entry)
	snap := &m.snap
	// Traced runs always simulate: nothing is recorded, so nothing is
	// installed.
	record := m.obs == nil

	pc := entry
	// restoring is set from an outage that discarded work until the next
	// segment starts: m.ram awaits the snapshot's (or a record's) image.
	restoring := false
	var extra, down uint64 // wall-clock cycles beyond executed: overhead, outage time
	nextCkpt := interval
	outIdx := 0
	for {
		// The next stop in executed-cycle space: the nearer of the
		// periodic checkpoint mark and the next outage. A tie goes to
		// the checkpoint — progress is saved just before the lights go
		// out, which is also the deterministic choice.
		stop, isOutage := nextCkpt, false
		if outIdx < len(trace.Outages) {
			at := trace.Outages[outIdx].At
			stopOut := uint64(0)
			if at > extra+down {
				stopOut = at - (extra + down)
			}
			if stopOut < stop {
				stop, isOutage = stopOut, true
			}
		}
		// A mark at or below the current count pauses with no execution
		// (an instruction overshooting one stop can land past the next).
		if stop > m.stats.Cycles {
			if restoring {
				pc, restoring = m.resume(stop), false
			}
			err := m.runSegment(ctx, pc, stop)
			if err == nil {
				break // ran to completion
			}
			if !errors.Is(err, errStopCycles) {
				m.settle()
				return nil, err // fault, MaxInstrs, cancellation
			}
			pc = m.pausePC
		}
		if !isOutage {
			cyc, nj := m.checkpointCost()
			rep.Checkpoints++
			rep.CheckpointOverheadCycles += cyc
			rep.CheckpointEnergyNJ += nj
			extra += cyc
			// A checkpoint with nothing executed since the snapshot
			// state journals that same state: the snapshot and the
			// recorded segments stand.
			if !m.atSnapshot() {
				m.takeSnapshot(pc)
			}
			nextCkpt = m.stats.Cycles + interval
			continue
		}
		o := trace.Outages[outIdx]
		outIdx++
		rep.Outages++
		rep.ReplayedInstrs += m.stats.Instructions - snap.at.instrs
		down += o.Down
		if !m.atSnapshot() {
			if record {
				m.recordLost(pc)
			}
			// Work after this restore is a fresh attempt: lost-work
			// accounting restarts here, not at the (older) checkpoint.
			m.restore()
			restoring = true
		}
		pc = snap.pc
		cyc, nj := m.restoreCost()
		rep.RestoreOverheadCycles += cyc
		rep.RestoreEnergyNJ += nj
		extra += cyc
	}
	m.settle()
	rep.Stats = m.stats
	rep.Stats.BlockCounts = m.blockCountsMap()
	rep.DownCycles = down
	rep.WallCycles = m.stats.Cycles + extra + down
	return rep, nil
}

// runSegment runs from pc until the executed-cycle count reaches
// stopCycles (errStopCycles, resume address in pausePC), the program
// exits (nil), or a fault/cancellation surfaces. stopCycles is always
// nonzero here: RunIntermittent never starts a segment whose mark is at
// or below the current count, and runFrom treats zero as "no stop".
func (m *Machine) runSegment(ctx context.Context, pc uint32, stopCycles uint64) error {
	m.stopCycles = stopCycles
	err := m.runFrom(ctx, pc)
	m.stopCycles = 0
	return err
}
