package sim

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/power"
)

// longLoopProgram counts down 12800 iterations (~60k cycles): long
// enough that checkpoints, outages and replays all land mid-run with the
// default-scale costs, and loop-shaped so the superblock engine fuses
// nearly all of it — the pause-at-boundary path gets real exercise.
func longLoopProgram() *ir.Program {
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})
	ir.Build(f.AddBlock("entry")).
		MovImm(isa.R0, 200).
		OpImm(isa.LSL, isa.R0, isa.R0, 6). // 200<<6 = 12800 iterations
		MovImm(isa.R1, 0)
	ir.Build(f.AddBlock("loop")).
		AddImm(isa.R1, isa.R1, 1).
		SubImm(isa.R0, isa.R0, 1).
		CmpImm(isa.R0, 0).
		Bcond(isa.NE, "loop")
	ir.Build(f.AddBlock("done")).Ret()
	p.Reindex()
	return p
}

// runIntermittentPair executes one program under the same trace+config on
// fused and NoFuse (length-1 dispatch) machines, and on an
// observer-attached one that simulates every replayed instruction instead
// of fast-forwarding, and asserts the reports — stats, every intermittent
// dimension, registers — are byte-identical. Returns the fused report for
// further assertions.
func runIntermittentPair(t *testing.T, p *ir.Program, inRAM map[string]bool, cfg IntermittentConfig) *IntermittentReport {
	t.Helper()
	img := mustImage(t, p, inRAM)
	fused := New(img, power.STM32F100())
	fRep, fErr := fused.RunIntermittent(context.Background(), cfg)
	slot := New(img, power.STM32F100())
	slot.NoFuse = true
	sRep, sErr := slot.RunIntermittent(context.Background(), cfg)
	full := New(img, power.STM32F100())
	full.Attach(discardObserver{})
	tRep, tErr := full.RunIntermittent(context.Background(), cfg)
	if fErr != nil || sErr != nil || tErr != nil {
		t.Fatalf("unexpected faults: fused=%v slot=%v traced=%v", fErr, sErr, tErr)
	}
	if !reflect.DeepEqual(fRep, sRep) {
		t.Fatalf("intermittent report divergence:\nfused: %+v\nslot:  %+v", fRep, sRep)
	}
	if !reflect.DeepEqual(fRep, tRep) {
		t.Fatalf("intermittent report divergence:\nfused:  %+v\ntraced: %+v", fRep, tRep)
	}
	compareMachines(t, fused, slot)
	compareMachines(t, fused, full)
	return fRep
}

// An empty trace with an interval the program never reaches is a plain
// run: identical stats, zero intermittent overhead.
func TestIntermittentEmptyTraceNoCheckpoints(t *testing.T) {
	img := mustImage(t, ir.Figure2Program(), nil)
	plain := New(img, power.STM32F100())
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := New(img, power.STM32F100())
	rep, err := m.RunIntermittent(context.Background(), IntermittentConfig{CheckpointCycles: 1 << 60})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Stats, *want) {
		t.Fatalf("stats differ from plain run:\nintermittent: %+v\nplain:        %+v", rep.Stats, *want)
	}
	if rep.Checkpoints != 0 || rep.Outages != 0 || rep.ReplayedInstrs != 0 ||
		rep.CheckpointEnergyNJ != 0 || rep.RestoreEnergyNJ != 0 || rep.DownCycles != 0 {
		t.Fatalf("phantom intermittent overhead: %+v", rep)
	}
	if rep.WallCycles != want.Cycles {
		t.Fatalf("WallCycles %d != executed %d with no overhead", rep.WallCycles, want.Cycles)
	}
	if rep.UsefulInstructions() != want.Instructions {
		t.Fatalf("UsefulInstructions %d != %d", rep.UsefulInstructions(), want.Instructions)
	}
}

// Periodic checkpoints without outages never perturb the executed-cycle
// stats — overhead is itemized separately — and every checkpoint adds the
// same journal cost.
func TestIntermittentCheckpointAccounting(t *testing.T) {
	img := mustImage(t, ir.Figure2Program(), nil)
	plain := New(img, power.STM32F100())
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	const interval = 200
	m := New(img, power.STM32F100())
	rep, err := m.RunIntermittent(context.Background(), IntermittentConfig{CheckpointCycles: interval})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Stats, *want) {
		t.Fatalf("checkpoints perturbed executed stats:\nintermittent: %+v\nplain:        %+v", rep.Stats, *want)
	}
	if rep.Checkpoints == 0 {
		t.Fatalf("no checkpoints over %d cycles at interval %d", want.Cycles, interval)
	}
	cyc, nj := m.checkpointCost()
	if got := uint64(rep.Checkpoints) * cyc; rep.CheckpointOverheadCycles != got {
		t.Fatalf("CheckpointOverheadCycles %d != %d checkpoints × %d", rep.CheckpointOverheadCycles, rep.Checkpoints, cyc)
	}
	if got := float64(rep.Checkpoints) * nj; rep.CheckpointEnergyNJ != got {
		t.Fatalf("CheckpointEnergyNJ %v != %d checkpoints × %v", rep.CheckpointEnergyNJ, rep.Checkpoints, nj)
	}
	if rep.WallCycles != want.Cycles+rep.CheckpointOverheadCycles {
		t.Fatalf("WallCycles %d != executed %d + overhead %d", rep.WallCycles, want.Cycles, rep.CheckpointOverheadCycles)
	}
}

// An outage mid-run replays lost work: total executed instructions grow,
// but forward progress equals the uninterrupted run exactly — execution
// is deterministic, so the replayed prefix retires the same instructions.
// The checkpoint interval is set beyond the program so the snapshot stays
// at reset and the outage demonstrably loses the whole first half.
func TestIntermittentOutageReplay(t *testing.T) {
	img := mustImage(t, longLoopProgram(), nil)
	plain := New(img, power.STM32F100())
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	trace := &PowerTrace{Outages: []Outage{{At: want.Cycles / 2, Down: 1000}}}
	m := New(img, power.STM32F100())
	rep, err := m.RunIntermittent(context.Background(), IntermittentConfig{Trace: trace, CheckpointCycles: 1 << 60})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outages != 1 {
		t.Fatalf("Outages = %d, want 1", rep.Outages)
	}
	if rep.ReplayedInstrs == 0 {
		t.Fatal("outage with no checkpoint lost no work")
	}
	if rep.Checkpoints != 0 || rep.CheckpointOverheadCycles != 0 {
		t.Fatalf("phantom checkpoints: %+v", rep)
	}
	if rep.Stats.Instructions != want.Instructions+rep.ReplayedInstrs {
		t.Fatalf("executed %d != uninterrupted %d + replayed %d",
			rep.Stats.Instructions, want.Instructions, rep.ReplayedInstrs)
	}
	if rep.UsefulInstructions() != want.Instructions {
		t.Fatalf("UsefulInstructions %d != uninterrupted %d", rep.UsefulInstructions(), want.Instructions)
	}
	if rep.DownCycles != 1000 {
		t.Fatalf("DownCycles = %d, want 1000", rep.DownCycles)
	}
	// The replay re-executes the lost segment whole before anything can
	// stop it, so all of it is installed rather than simulated.
	if m.FastForwarded() != rep.ReplayedInstrs {
		t.Fatalf("fast-forwarded %d of %d replayed instructions", m.FastForwarded(), rep.ReplayedInstrs)
	}
	if rep.RestoreOverheadCycles == 0 || rep.RestoreEnergyNJ == 0 {
		t.Fatal("restore cost not charged")
	}
	wall := rep.Stats.Cycles + rep.CheckpointOverheadCycles + rep.RestoreOverheadCycles + rep.DownCycles
	if rep.WallCycles != wall {
		t.Fatalf("WallCycles %d != %d", rep.WallCycles, wall)
	}
	if rep.TotalEnergyNJ() <= want.EnergyNJ {
		t.Fatal("an interrupted run cannot cost less energy than the uninterrupted one")
	}
	if rep.WorkPerMJ() <= 0 || rep.WorkPerMJ() >= float64(want.Instructions)/(want.EnergyNJ*1e-6) {
		t.Fatalf("WorkPerMJ %v not strictly below the uninterrupted figure", rep.WorkPerMJ())
	}
}

// A checkpoint between reset and the outage bounds the loss: the replay
// restarts from the checkpoint, not from reset, so the lost work is a
// small fraction of the progress made.
func TestIntermittentCheckpointBoundsLoss(t *testing.T) {
	img := mustImage(t, longLoopProgram(), nil)
	plain := New(img, power.STM32F100())
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	const interval = 10_000
	// Land the outage roughly 1/4 interval past a checkpoint: executed
	// marks shift by the accumulated checkpoint overhead, so aim past the
	// second checkpoint's wall-clock time with margin.
	m := New(img, power.STM32F100())
	ckptCyc, _ := m.checkpointCost()
	at := 2*interval + 2*ckptCyc + interval/4
	rep, err := m.RunIntermittent(context.Background(), IntermittentConfig{
		Trace:            &PowerTrace{Outages: []Outage{{At: at, Down: 500}}},
		CheckpointCycles: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outages != 1 || rep.Checkpoints < 2 {
		t.Fatalf("scenario not hit: %d outages, %d checkpoints", rep.Outages, rep.Checkpoints)
	}
	if rep.ReplayedInstrs == 0 {
		t.Fatal("outage mid-interval lost no work")
	}
	// The loss is at most one interval's worth of instructions (~1/6 of
	// the run), nowhere near the from-reset half.
	if lost, total := rep.ReplayedInstrs, want.Instructions; lost*4 > total {
		t.Fatalf("checkpoint did not bound the loss: replayed %d of %d", lost, total)
	}
	if rep.UsefulInstructions() != want.Instructions {
		t.Fatalf("UsefulInstructions %d != uninterrupted %d", rep.UsefulInstructions(), want.Instructions)
	}
}

// The byte-identity contract extends to trace-driven runs: fused and
// length-1 dispatch must pause, checkpoint and replay at identical
// boundaries.
func TestIntermittentFusedVsSlotIdentity(t *testing.T) {
	progs := []struct {
		name  string
		p     *ir.Program
		inRAM map[string]bool
	}{
		{"figure2", ir.Figure2Program(), nil},
		{"figure2-optimized", func() *ir.Program { p, _ := optimizedFigure2(); return p }(),
			map[string]bool{"fn_loop": true, "fn_if": true}},
		{"long-loop", longLoopProgram(), nil},
	}
	traces := []struct {
		name string
		cfg  IntermittentConfig
	}{
		{"empty-small-interval", IntermittentConfig{CheckpointCycles: 97}},
		{"single-outage", IntermittentConfig{
			Trace:            &PowerTrace{Outages: []Outage{{At: 301, Down: 50}}},
			CheckpointCycles: 113,
		}},
		{"dense-outages", IntermittentConfig{
			Trace: &PowerTrace{Outages: []Outage{
				{At: 150, Down: 10}, {At: 400, Down: 25}, {At: 700, Down: 5}, {At: 1200, Down: 100},
			}},
			CheckpointCycles: 73,
		}},
		{"deep-outages", IntermittentConfig{
			Trace: &PowerTrace{Outages: []Outage{
				{At: 9_000, Down: 300}, {At: 26_000, Down: 40}, {At: 55_000, Down: 2_000},
			}},
			CheckpointCycles: 7_001,
		}},
	}
	for _, tp := range progs {
		for _, tr := range traces {
			t.Run(tp.name+"/"+tr.name, func(t *testing.T) {
				runIntermittentPair(t, tp.p, tp.inRAM, tr.cfg)
			})
		}
	}
}

// Identical trace + config ⇒ identical report, run to run: the
// deterministic-replay acceptance criterion at the sim layer.
func TestIntermittentDeterministicReplay(t *testing.T) {
	img := mustImage(t, ir.Figure2Program(), nil)
	cfg := IntermittentConfig{
		Trace:            &PowerTrace{Outages: []Outage{{At: 200, Down: 40}, {At: 900, Down: 10}}},
		CheckpointCycles: 128,
	}
	a, err := New(img, power.STM32F100()).RunIntermittent(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(img, power.STM32F100()).RunIntermittent(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay divergence:\nfirst:  %+v\nsecond: %+v", a, b)
	}
}

// Generated harvest profiles drive both engines identically too — this is
// the exact configuration the evaluation sweep runs.
func TestIntermittentHarvestProfilesIdentity(t *testing.T) {
	img := mustImage(t, longLoopProgram(), nil)
	horizon, err := New(img, power.STM32F100()).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, prof := range HarvestProfiles() {
		t.Run(prof, func(t *testing.T) {
			trace, err := GenerateTrace(prof, horizon.Cycles)
			if err != nil {
				t.Fatal(err)
			}
			rep := runIntermittentPair(t, longLoopProgram(), nil, IntermittentConfig{Trace: trace})
			if rep.UsefulInstructions() != horizon.Instructions {
				t.Fatalf("forward progress %d != uninterrupted %d", rep.UsefulInstructions(), horizon.Instructions)
			}
		})
	}
}

// A trace dense enough to starve the program of progress must trip
// MaxInstrs (replays count), not spin forever: with no checkpoints, each
// power-on window shorter than the program replays from reset and dies
// again, and the replayed instructions accumulate toward the limit.
func TestIntermittentStarvationHitsMaxInstrs(t *testing.T) {
	img := mustImage(t, longLoopProgram(), nil)
	m := New(img, power.STM32F100())
	// Space the outages so each attempt gets ~2000 executed cycles after
	// paying the restore: far short of the ~60k the loop needs.
	restoreCyc, _ := m.restoreCost()
	spacing := restoreCyc + 1 + 2000
	trace := &PowerTrace{}
	for k := uint64(1); k <= 4096; k++ {
		trace.Outages = append(trace.Outages, Outage{At: k * spacing, Down: 1})
	}
	m.MaxInstrs = 50_000
	_, err := m.RunIntermittent(context.Background(), IntermittentConfig{Trace: trace, CheckpointCycles: 1 << 60})
	if err == nil || !strings.Contains(err.Error(), "instruction limit") {
		t.Fatalf("got %v, want instruction-limit fault", err)
	}
}

// Invalid traces are rejected up front with the typed error, before any
// execution.
func TestIntermittentRejectsInvalidTrace(t *testing.T) {
	img := mustImage(t, ir.Figure2Program(), nil)
	m := New(img, power.STM32F100())
	bad := &PowerTrace{Outages: []Outage{{At: 10, Down: 0}}}
	if _, err := m.RunIntermittent(context.Background(), IntermittentConfig{Trace: bad}); err == nil {
		t.Fatal("zero-length outage accepted")
	}
	if m.stats.Instructions != 0 {
		t.Fatal("machine ran before trace validation")
	}
}

// The checkpoint snapshot and the lost-segment ring are the machine's:
// a second RunIntermittent on a Reset machine allocates none of the
// RAM-sized buffers (nor the block-count deltas) the first one did — the
// saving a pooled machine gets on every replay.
func TestIntermittentReusesMachineScratch(t *testing.T) {
	img := mustImage(t, longLoopProgram(), nil)
	m := New(img, power.STM32F100())
	// Two outages between checkpoints fill both ring slots.
	cfg := IntermittentConfig{
		Trace:            &PowerTrace{Outages: []Outage{{At: 9_000, Down: 10}, {At: 13_000, Down: 10}, {At: 40_000, Down: 10}}},
		CheckpointCycles: 25_000,
	}
	run := func() {
		m.Reset()
		rep, err := m.RunIntermittent(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Outages != 3 || m.FastForwarded() == 0 {
			t.Fatalf("scenario not hit: %d outages, %d instructions fast-forwarded", rep.Outages, m.FastForwarded())
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	first := after.Mallocs - before.Mallocs
	steady := testing.AllocsPerRun(5, run)
	// The snapshot and both ring slots each hold a RAM image and a
	// block-count array.
	if steady > float64(first)-6 {
		t.Fatalf("%v allocations per steady run, first run %d: the scratch buffers were reallocated", steady, first)
	}
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b >= uint64(len(m.ram)) {
		t.Fatalf("a steady run allocated %d bytes, at least a RAM image (%d)", b, len(m.ram))
	}
}
