package trace_test

import (
	"errors"
	"math"
	"reflect"
	"repro/internal/core"
	"testing"

	"repro/internal/beebs"
	"repro/internal/evaluation"
	"repro/internal/freq"
	"repro/internal/layout"
	"repro/internal/mcc"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestConservationAllBenchmarks is the subsystem's hard invariant, checked
// at the paper's two headline levels on every BEEBS benchmark: every
// nanojoule (and cycle, and instruction) the simulator charges must land
// in exactly one block of the attribution, within ConservationTolerance
// relative error for the float energy sums and exactly for the integer
// quantities. It also pins the two profiled-frequency paths together:
// entry counts must equal the simulator's own BlockCounts, and an Estimate
// built from the trace must match freq.FromProfile.
func TestConservationAllBenchmarks(t *testing.T) {
	for _, bench := range beebs.All() {
		for _, level := range []mcc.OptLevel{mcc.O2, mcc.Os} {
			t.Run(bench.Name+"/"+level.String(), func(t *testing.T) {
				r, err := evaluation.NewSweep(1).RunBenchmark(t.Context(), bench, level, core.Options{Trace: true})
				if err != nil {
					t.Fatal(err)
				}
				rep := r.Report
				if err := rep.BaselineTrace.CheckConservation(rep.Baseline.Stats); err != nil {
					t.Errorf("baseline: %v", err)
				}
				if err := rep.OptimizedTrace.CheckConservation(rep.Optimized.Stats); err != nil {
					t.Errorf("optimized: %v", err)
				}

				if got, want := rep.BaselineTrace.Entries(), rep.Baseline.Stats.BlockCounts; !reflect.DeepEqual(got, want) {
					t.Errorf("baseline entry counts diverge from Stats.BlockCounts:\n got %v\nwant %v", got, want)
				}
				if got, want := rep.OptimizedTrace.Entries(), rep.Optimized.Stats.BlockCounts; !reflect.DeepEqual(got, want) {
					t.Errorf("optimized entry counts diverge from Stats.BlockCounts:\n got %v\nwant %v", got, want)
				}

				fromTrace := rep.BaselineTrace.FreqEstimate()
				fromStats := freq.FromProfile(rep.Baseline.Stats)
				if !reflect.DeepEqual(fromTrace, fromStats) {
					t.Errorf("freq estimate from trace diverges from freq.FromProfile:\n got %v\nwant %v",
						fromTrace, fromStats)
				}
			})
		}
	}
}

// compileAndLoad builds a fresh machine for the benchmark with everything
// in flash.
func compileAndLoad(t *testing.T, name string, level mcc.OptLevel) *sim.Machine {
	t.Helper()
	prog, err := mcc.Compile(beebs.Get(name).Source, level)
	if err != nil {
		t.Fatal(err)
	}
	img, err := layout.New(prog, layout.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return sim.New(img, power.STM32F100())
}

// TestObserverDoesNotChangeStats runs the same image with and without a
// collector attached and requires bit-identical statistics: the hook must
// observe the simulation, never perturb it.
func TestObserverDoesNotChangeStats(t *testing.T) {
	plain := compileAndLoad(t, "crc32", mcc.O2)
	st1, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}

	traced := compileAndLoad(t, "crc32", mcc.O2)
	col := trace.NewCollector()
	traced.Attach(col)
	st2, err := traced.Run()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(st1, st2) {
		t.Errorf("attaching an observer changed the run:\nplain  %+v\ntraced %+v", st1, st2)
	}
	if err := col.Profile().CheckConservation(st2); err != nil {
		t.Error(err)
	}
}

// TestProfileShape sanity-checks the aggregate views of one traced run.
func TestProfileShape(t *testing.T) {
	m := compileAndLoad(t, "int_matmult", mcc.O2)
	col := trace.NewCollector()
	m.Attach(col)
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	p := col.Profile()

	// Everything ran from flash, so the RAM bucket must be empty and the
	// flash share must be 1.
	if p.ByMem[power.RAM].Cycles != 0 {
		t.Errorf("all-flash run attributed %d cycles to RAM fetches", p.ByMem[power.RAM].Cycles)
	}
	if got := p.MemShare(power.Flash); math.Abs(got-1) > 1e-12 {
		t.Errorf("flash energy share = %v, want 1", got)
	}

	// Class cycles must add back up to the total.
	var classCycles uint64
	for _, c := range p.ByClass {
		classCycles += c.Cycles
	}
	if classCycles != st.Cycles {
		t.Errorf("per-class cycles sum to %d, machine counted %d", classCycles, st.Cycles)
	}

	// TopBlocks must be energy-sorted and bounded.
	top := p.TopBlocks(5)
	if len(top) > 5 {
		t.Errorf("TopBlocks(5) returned %d rows", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].EnergyNJ > top[i-1].EnergyNJ {
			t.Errorf("TopBlocks not sorted: %q (%v nJ) after %q (%v nJ)",
				top[i].Label, top[i].EnergyNJ, top[i-1].Label, top[i-1].EnergyNJ)
		}
	}

	// Function rows must cover the same instruction total.
	var fnInstrs uint64
	for _, f := range p.Functions() {
		fnInstrs += f.Instructions
	}
	if fnInstrs != st.Instructions {
		t.Errorf("per-function instructions sum to %d, machine counted %d", fnInstrs, st.Instructions)
	}
}

// TestFaultNamesBlockAndFunc forces an instruction-limit fault and checks
// the diagnostic carries the current block and function.
func TestFaultNamesBlockAndFunc(t *testing.T) {
	m := compileAndLoad(t, "crc32", mcc.O2)
	m.MaxInstrs = 100
	_, err := m.Run()
	if err == nil {
		t.Fatal("expected an instruction-limit fault")
	}
	var f *sim.Fault
	if !errors.As(err, &f) {
		t.Fatalf("expected *sim.Fault, got %T: %v", err, err)
	}
	if f.Block == "" || f.Func == "" {
		t.Errorf("fault does not name its location: %v", err)
	}
}
