package sim

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/power"
)

// runPair executes one program on two fresh machines — fused dispatch and
// length-1 dispatch only (the beebsbench -nofuse knob) — and returns both
// machines plus their run errors. Stats are compared via compareMachines
// so faulting runs (Run returns nil stats) still diff their partials.
func runPair(t *testing.T, p *ir.Program, inRAM map[string]bool, maxInstrs uint64) (fused, slot *Machine, fErr, sErr error) {
	t.Helper()
	img := mustImage(t, p, inRAM)
	fused = New(img, power.STM32F100())
	fused.MaxInstrs = maxInstrs
	_, fErr = fused.Run()
	slot = New(img, power.STM32F100())
	slot.MaxInstrs = maxInstrs
	slot.NoFuse = true
	_, sErr = slot.Run()
	return
}

// compareMachines asserts every statistic of a fused run is byte-identical
// to its length-1-dispatch twin: the superblock engine's core contract.
func compareMachines(t *testing.T, fused, slot *Machine) {
	t.Helper()
	f, s := &fused.stats, &slot.stats
	if f.Instructions != s.Instructions {
		t.Errorf("Instructions: fused %d != slot %d", f.Instructions, s.Instructions)
	}
	if f.Cycles != s.Cycles {
		t.Errorf("Cycles: fused %d != slot %d", f.Cycles, s.Cycles)
	}
	if f.EnergyNJ != s.EnergyNJ {
		t.Errorf("EnergyNJ: fused %v != slot %v (bit-exact required)", f.EnergyNJ, s.EnergyNJ)
	}
	if f.CyclesByMem != s.CyclesByMem {
		t.Errorf("CyclesByMem: fused %v != slot %v", f.CyclesByMem, s.CyclesByMem)
	}
	if fused.led != slot.led {
		t.Errorf("energy ledger: fused %v != slot %v", fused.led, slot.led)
	}
	if f.ContentionStalls != s.ContentionStalls {
		t.Errorf("ContentionStalls: fused %d != slot %d", f.ContentionStalls, s.ContentionStalls)
	}
	fb, sb := fused.blockCountsMap(), slot.blockCountsMap()
	if len(fb) != len(sb) {
		t.Errorf("BlockCounts: %d entries fused vs %d slot", len(fb), len(sb))
	}
	for k, v := range sb {
		if fb[k] != v {
			t.Errorf("BlockCounts[%s]: fused %d != slot %d", k, fb[k], v)
		}
	}
	for r := range fused.regs {
		if fused.regs[r] != slot.regs[r] {
			t.Errorf("r%d: fused %#x != slot %#x", r, fused.regs[r], slot.regs[r])
		}
	}
}

func TestFusedMatchesSlotDispatch(t *testing.T) {
	progs := []struct {
		name  string
		p     *ir.Program
		inRAM map[string]bool
	}{
		{"figure2", ir.Figure2Program(), nil},
		{"figure2-optimized", func() *ir.Program { p, _ := optimizedFigure2(); return p }(),
			map[string]bool{"fn_loop": true, "fn_if": true}},
	}
	for _, tc := range progs {
		t.Run(tc.name, func(t *testing.T) {
			fused, slot, fErr, sErr := runPair(t, tc.p, tc.inRAM, 0)
			if fErr != nil || sErr != nil {
				t.Fatalf("unexpected faults: fused=%v slot=%v", fErr, sErr)
			}
			compareMachines(t, fused, slot)
			if fused.FusedInstructions() == 0 {
				t.Error("fused run retired no instructions through superblocks")
			}
			if slot.FusedInstructions() != 0 {
				t.Errorf("NoFuse run retired %d fused instructions", slot.FusedInstructions())
			}
		})
	}
}

// TestFusedObserverBypassIdentity: attaching an observer must force
// length-1 dispatch (fusion would skip per-instruction events) and still
// produce the stats of the fused run.
func TestFusedObserverBypassIdentity(t *testing.T) {
	img := mustImage(t, ir.Figure2Program(), nil)
	fused := New(img, power.STM32F100())
	if _, err := fused.Run(); err != nil {
		t.Fatal(err)
	}
	obs := New(img, power.STM32F100())
	rec := &recordingObserver{}
	obs.Attach(rec)
	if _, err := obs.Run(); err != nil {
		t.Fatal(err)
	}
	if obs.FusedInstructions() != 0 {
		t.Errorf("observer-attached run fused %d instructions", obs.FusedInstructions())
	}
	if uint64(len(rec.events)) != obs.stats.Instructions {
		t.Errorf("%d events for %d instructions", len(rec.events), obs.stats.Instructions)
	}
	compareMachines(t, fused, obs)
}

// TestFusedMidRunLoadFault: a load faulting in the middle of a superblock
// must flush the exact partial stats and the exact fault length-1
// dispatch produces — including the faulting instruction's block entry (counted
// before the step) but none of its charge.
func TestFusedMidRunLoadFault(t *testing.T) {
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})
	b := f.AddBlock("entry")
	ir.Build(b).
		MovImm(isa.R0, 1).
		AddImm(isa.R0, isa.R0, 2).
		LdrConst(isa.R1, 0x40000000).
		Ldr(isa.R2, isa.R1, 0). // faults mid-run: unmapped address
		Ret()
	p.Reindex()

	fused, slot, fErr, sErr := runPair(t, p, nil, 0)
	if fErr == nil || sErr == nil {
		t.Fatalf("expected faults, got fused=%v slot=%v", fErr, sErr)
	}
	if fErr.Error() != sErr.Error() {
		t.Errorf("fault mismatch:\nfused: %v\nslot:  %v", fErr, sErr)
	}
	if !strings.Contains(fErr.Error(), "load outside memory") {
		t.Errorf("fault %v does not name the bad load", fErr)
	}
	compareMachines(t, fused, slot)
	if fused.stats.Instructions == 0 {
		t.Error("no partial stats flushed before the fault")
	}
}

// TestFusedMidRunStoreFault: same contract for the store fast path's
// fallback (store to flash is resolved by the slow path).
func TestFusedMidRunStoreFault(t *testing.T) {
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})
	b := f.AddBlock("entry")
	ir.Build(b).
		LdrLit(isa.R1, "ro").
		MovImm(isa.R0, 7).
		AddImm(isa.R0, isa.R0, 1).
		Str(isa.R0, isa.R1, 0). // store to flash faults
		Ret()
	p.AddGlobal(&ir.Global{Name: "ro", Size: 4, RO: true})
	p.Reindex()

	fused, slot, fErr, sErr := runPair(t, p, nil, 0)
	if fErr == nil || sErr == nil {
		t.Fatalf("expected faults, got fused=%v slot=%v", fErr, sErr)
	}
	if fErr.Error() != sErr.Error() {
		t.Errorf("fault mismatch:\nfused: %v\nslot:  %v", fErr, sErr)
	}
	compareMachines(t, fused, slot)
}

// TestFusedMaxInstrsExact: a run that would cross MaxInstrs inside a
// superblock must dispatch one instruction at a time so the limit faults
// on the exact instruction, like an unfused run.
func TestFusedMaxInstrsExact(t *testing.T) {
	fused, slot, fErr, sErr := runPair(t, spinProgram(), nil, 1000)
	if fErr == nil || sErr == nil {
		t.Fatalf("expected instruction-limit faults, got fused=%v slot=%v", fErr, sErr)
	}
	if fErr.Error() != sErr.Error() {
		t.Errorf("fault mismatch:\nfused: %v\nslot:  %v", fErr, sErr)
	}
	if fused.stats.Instructions != 1000 {
		t.Errorf("fused stopped at %d instructions, want exactly 1000", fused.stats.Instructions)
	}
	compareMachines(t, fused, slot)
}

// TestFusedMidRunEntry: a computed jump into the middle of a fused run
// lands on a slot without a descriptor and must dispatch length-1
// descriptors with identical results. The entry address is derived
// numerically (symbol + one instruction) so it is not in the static
// split set.
func TestFusedMidRunEntry(t *testing.T) {
	p := ir.NewProgram()
	fn := p.AddFunc(&ir.Function{Name: "fn"})
	b := fn.AddBlock("fn_body")
	ir.Build(b).
		Nop(). // skipped by the mid-run entry
		MovImm(isa.R0, 5).
		AddImm(isa.R0, isa.R0, 3).
		AddImm(isa.R0, isa.R0, 2).
		Ret()

	m := p.AddFunc(&ir.Function{Name: "main"})
	mb := m.AddBlock("main_entry")
	ir.Build(mb).
		Push(isa.R4, isa.LR).
		LdrLit(isa.R4, "fn_body").
		AddImm(isa.R4, isa.R4, 2). // past the 2-byte nop: mid-run address
		Blx(isa.R4).
		Pop(isa.R4, isa.PC)
	p.Reindex()

	fused, slot, fErr, sErr := runPair(t, p, nil, 0)
	if fErr != nil || sErr != nil {
		t.Fatalf("unexpected faults: fused=%v slot=%v", fErr, sErr)
	}
	if got := fused.Reg(isa.R0); got != 10 {
		t.Errorf("r0 = %d, want 10 (nop skipped, adds executed)", got)
	}
	compareMachines(t, fused, slot)
}

// longStraightProgram spins a block of n straight-line instructions — a
// single maximal superblock per iteration, chained back to itself — so a
// cancellable run must keep polling inside the fused path.
func longStraightProgram(n int) *ir.Program {
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})
	b := f.AddBlock("spin")
	bb := ir.Build(b)
	for i := 0; i < n; i++ {
		bb.AddImm(isa.R0, isa.R0, 1)
	}
	bb.B("spin")
	p.Reindex()
	return p
}

// TestSuperblockPollGranularity: the cancellation poll must fire at least
// once every cancelCheckMask+1 dispatched instructions even when whole
// superblock chains retire thousands of slots per dispatch — a long run
// may not stretch the <2% cancellation-latency guarantee. Pigeonhole: N
// instructions under a live context need at least N/(mask+1) polls.
func TestSuperblockPollGranularity(t *testing.T) {
	m := New(mustImage(t, longStraightProgram(600), nil), power.STM32F100())
	m.MaxInstrs = 50_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := m.RunContext(ctx) // never cancelled: runs to the limit fault
	if err == nil || !strings.Contains(err.Error(), "instruction limit") {
		t.Fatalf("err = %v, want instruction limit", err)
	}
	if m.FusedInstructions() == 0 {
		t.Fatal("straight-line spin did not exercise the fused path")
	}
	instrs := m.stats.Instructions
	if instrs != 50_000 {
		t.Fatalf("stopped at %d instructions, want exactly 50000", instrs)
	}
	window := uint64(cancelCheckMask + 1)
	if instrs > (m.polls+1)*window {
		t.Errorf("%d instructions with %d polls: some poll interval exceeded %d slots",
			instrs, m.polls, window)
	}
}

// TestSuperblockChaining: statically linked runs execute without returning
// to the dispatch loop, and the chain stays byte-identical to slot
// dispatch.
func TestSuperblockChaining(t *testing.T) {
	img := mustImage(t, ir.Figure2Program(), nil)
	m := New(img, power.STM32F100())
	var chained bool
	for i := range m.eng.super {
		if m.eng.super[i].nextSB >= 0 {
			chained = true
			break
		}
	}
	if !chained {
		t.Error("no superblock chain links were resolved")
	}
	for i := range m.eng.super {
		sb := &m.eng.super[i]
		if sb.n < minFuse {
			t.Errorf("superblock %d has %d instructions, below minFuse", i, sb.n)
		}
		if sb.n > maxFuse {
			t.Errorf("superblock %d has %d instructions, above the poll window", i, sb.n)
		}
	}
}
