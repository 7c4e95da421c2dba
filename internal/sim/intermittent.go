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

// ckptSnapshot is the volatile state a checkpoint preserves. The RAM
// image covers everything lost on an outage — data, stack and the
// RAM-resident code the restore copies back from flash.
type ckptSnapshot struct {
	regs       [isa.NumRegs]uint32
	n, z, c, v bool
	ram        []byte
	pc         uint32
	// instrs is Stats.Instructions at snapshot time — the replay
	// baseline for lost-work accounting.
	instrs uint64
}

func (m *Machine) takeSnapshot(s *ckptSnapshot, pc uint32) {
	s.regs = m.regs
	s.n, s.z, s.c, s.v = m.n, m.z, m.c, m.v
	if cap(s.ram) < len(m.ram) {
		s.ram = make([]byte, len(m.ram))
	}
	s.ram = s.ram[:len(m.ram)]
	copy(s.ram, m.ram)
	s.pc = pc
	s.instrs = m.stats.Instructions
}

func (m *Machine) restoreSnapshot(s *ckptSnapshot) {
	m.regs = s.regs
	m.n, m.z, m.c, m.v = s.n, s.z, s.c, s.v
	copy(m.ram, s.ram)
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
	var snap ckptSnapshot
	// The implicit checkpoint zero is the power-on state: flash holds
	// the whole image, so losing power before the first checkpoint just
	// replays from reset at restore cost.
	m.takeSnapshot(&snap, entry)

	pc := entry
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
			err := m.runSegment(ctx, pc, stop)
			if err == nil {
				break // ran to completion
			}
			if !errors.Is(err, errStopCycles) {
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
			m.takeSnapshot(&snap, pc)
			nextCkpt = m.stats.Cycles + interval
			continue
		}
		o := trace.Outages[outIdx]
		outIdx++
		rep.Outages++
		rep.ReplayedInstrs += m.stats.Instructions - snap.instrs
		down += o.Down
		m.restoreSnapshot(&snap)
		pc = snap.pc
		cyc, nj := m.restoreCost()
		rep.RestoreOverheadCycles += cyc
		rep.RestoreEnergyNJ += nj
		extra += cyc
		// Work after this restore is a fresh attempt: lost-work
		// accounting restarts here, not at the (older) checkpoint.
		snap.instrs = m.stats.Instructions
	}
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
