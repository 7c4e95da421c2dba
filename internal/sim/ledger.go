package sim

import (
	"repro/internal/isa"
	"repro/internal/power"
)

// The integer energy ledger. Every charge the simulator makes is cycles
// at the per-cycle energy of one (fetch memory, class, data memory) cell
// — engine.epc — so a run counts charged cycles per cell as integers and
// prices them once, when it ends. Energy is then a pure function of
// integers: independent of how instructions were grouped into
// descriptors, and exactly additive across run segments (the
// intermittent replay fast-forward adds recorded deltas).

// ledgerCells counts the charged cycles of one fetch memory, by class
// and data memory outcome (power.Flash, RAM, None).
type ledgerCells [isa.NumClasses][3]uint64

// ledger is a run's charged cycles by fetch memory.
type ledger [2]ledgerCells

// dynCharges accumulates the dynamic load charges of the descriptor
// being executed: the contention stalls of RAM-fetched loads that hit
// RAM (cycles, and events — static stalls count events too), and the
// cycles of loads that hit flash. They live on the Machine, not in the
// executor's locals, because they change only on those paths: a local
// would be carried around every uop of the loop.
type dynCharges struct {
	stallCyc, stallEv, flashCyc uint64
}

// flushDyn books and clears the dynamic load charges, in the cells of
// fetch memory lg: stalls on (load, RAM), and flash hits moved out of
// the (load, RAM) cell the descriptor pre-aggregated them in.
func (m *Machine) flushDyn(lg *ledgerCells) {
	d := &m.dyn
	m.stats.Cycles += d.stallCyc
	m.stats.ContentionStalls += d.stallEv
	lg[isa.ClassLoad][power.RAM] += d.stallCyc - d.flashCyc
	lg[isa.ClassLoad][power.Flash] += d.flashCyc
	*d = dynCharges{}
}

// add adds o to the ledger, cell by cell.
func (l *ledger) add(o *ledger) {
	for fm := range l {
		for cl := range l[fm] {
			for dm := range l[fm][cl] {
				l[fm][cl][dm] += o[fm][cl][dm]
			}
		}
	}
}

// sub subtracts o from the ledger, cell by cell.
func (l *ledger) sub(o *ledger) {
	for fm := range l {
		for cl := range l[fm] {
			for dm := range l[fm][cl] {
				l[fm][cl][dm] -= o[fm][cl][dm]
			}
		}
	}
}

// energyNJ prices the ledger: every cell's cycles at its per-cycle
// energy, summed in a fixed order (fetch memory, class, data memory).
func (l *ledger) energyNJ(epc *[2][isa.NumClasses][3]float64) float64 {
	e := 0.0
	for fm := range l {
		for cl := range l[fm] {
			for dm, c := range l[fm][cl] {
				e += float64(c) * epc[fm][cl][dm]
			}
		}
	}
	return e
}

// cyclesByMem folds the data memory dimension away: Stats.CyclesByMem.
func (l *ledger) cyclesByMem() (out [2][isa.NumClasses]uint64) {
	for fm := range l {
		for cl := range l[fm] {
			for _, c := range l[fm][cl] {
				out[fm][cl] += c
			}
		}
	}
	return out
}

// settle derives the ledger's views in Stats — EnergyNJ and CyclesByMem
// — at the end of a run.
func (m *Machine) settle() {
	m.stats.EnergyNJ = m.led.energyNJ(&m.eng.epc)
	m.stats.CyclesByMem = m.led.cyclesByMem()
}
