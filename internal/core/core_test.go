package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/ir"
)

func TestOptimizeFigure2(t *testing.T) {
	p := ir.Figure2Program()
	rep, err := Optimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EnergyChange >= 0 {
		t.Errorf("energy change %+.1f%%, want negative", 100*rep.EnergyChange)
	}
	if rep.TimeChange <= 0 {
		t.Errorf("time change %+.1f%%, want positive (instrumentation overhead)",
			100*rep.TimeChange)
	}
	if rep.PowerChange >= 0 {
		t.Errorf("power change %+.1f%%, want negative", 100*rep.PowerChange)
	}
	if len(rep.MovedLabels()) == 0 {
		t.Fatal("no blocks moved to RAM")
	}
	if rep.Optimized.RAMCodeBytes == 0 {
		t.Error("no RAM code bytes after placement")
	}
	if rep.Ke >= 1 || rep.Kt <= 1 {
		t.Errorf("ke=%.3f kt=%.3f, want ke<1, kt>1", rep.Ke, rep.Kt)
	}
	if !strings.Contains(rep.Summary(), "blocks in RAM") {
		t.Error("summary missing placement info")
	}
}

func TestOptimizeWithProfile(t *testing.T) {
	p := ir.Figure2Program()
	static, err := Optimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Optimize(p, Options{UseProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	// Both must save energy; the paper's point is they are close (§6).
	if prof.EnergyChange >= 0 {
		t.Errorf("profiled run saves nothing: %+.1f%%", 100*prof.EnergyChange)
	}
	diff := prof.EnergyChange - static.EnergyChange
	if diff < -0.15 || diff > 0.15 {
		t.Errorf("static %+.3f vs profiled %+.3f energy change: too far apart",
			static.EnergyChange, prof.EnergyChange)
	}
}

func TestOptimizeAllSolvers(t *testing.T) {
	p := ir.Figure2Program()
	var ilpEnergy float64
	for _, s := range []Solver{SolverILP, SolverGreedy, SolverFunction, SolverExhaustive} {
		rep, err := Optimize(p, Options{Solver: s})
		if err != nil {
			t.Fatalf("solver %s: %v", s, err)
		}
		if rep.Optimized.EnergyMJ <= 0 {
			t.Errorf("solver %s: nonpositive energy", s)
		}
		if s == SolverILP {
			ilpEnergy = rep.Optimized.EnergyMJ
		}
		if s == SolverExhaustive && rep.Optimized.EnergyMJ < ilpEnergy-1e-9 {
			// Both optimize the model, not measured energy; they should
			// agree on this small instance.
			t.Errorf("exhaustive measured %.6f mJ < ILP %.6f mJ", rep.Optimized.EnergyMJ, ilpEnergy)
		}
	}
}

func TestOptimizeBadSolver(t *testing.T) {
	p := ir.Figure2Program()
	if _, err := Optimize(p, Options{Solver: "magic"}); err == nil {
		t.Fatal("expected unknown-solver error")
	}
}

func TestOptimizeRejectsInvalidProgram(t *testing.T) {
	p := ir.NewProgram() // no entry function
	if _, err := Optimize(p, Options{}); err == nil {
		t.Fatal("expected verification error")
	}
}

func TestTightXlimitReducesSlowdown(t *testing.T) {
	p := ir.Figure2Program()
	loose, err := Optimize(p, Options{Xlimit: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Optimize(p, Options{Xlimit: 1.01})
	if err != nil {
		t.Fatal(err)
	}
	if tight.TimeChange > loose.TimeChange+1e-9 {
		t.Errorf("tight Xlimit slowdown %.3f exceeds loose %.3f",
			tight.TimeChange, loose.TimeChange)
	}
	// With almost no time slack the solver must pick nearly nothing.
	if tight.Optimized.RAMCodeBytes > loose.Optimized.RAMCodeBytes {
		t.Errorf("tight Xlimit uses more RAM code (%d) than loose (%d)",
			tight.Optimized.RAMCodeBytes, loose.Optimized.RAMCodeBytes)
	}
}

func TestTinyRspare(t *testing.T) {
	p := ir.Figure2Program()
	rep, err := Optimize(p, Options{Rspare: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MovedLabels()) != 0 {
		t.Errorf("4-byte budget moved blocks: %v", rep.MovedLabels())
	}
	if rep.EnergyChange != 0 || rep.TimeChange != 0 {
		t.Errorf("no-op placement changed metrics: %+v", rep)
	}
}

func TestStartupCopyCostIsAmortizable(t *testing.T) {
	p := ir.Figure2Program()
	rep, err := Optimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StartupCopyCycles == 0 {
		t.Fatal("startup copy cost not accounted (blocks were moved)")
	}
	// The paper's implicit assumption: the one-time copy is negligible
	// against even one run of the application.
	if rep.StartupCopyCycles > rep.Optimized.Cycles {
		t.Errorf("startup copy %d cycles exceeds a whole run (%d); amortization claim broken",
			rep.StartupCopyCycles, rep.Optimized.Cycles)
	}
	if rep.StartupCopyEnergyMJ <= 0 {
		t.Error("startup energy must be positive when code moved")
	}
}

// beside reports the base side's error ahead of the other's, and a panic
// of the base side, on its own goroutine, reaches the caller as a
// *errs.PanicError.
func TestBesideOrdersErrorsAndReportsPanics(t *testing.T) {
	errBase, errOpt := errors.New("base"), errors.New("opt")
	if err := beside(func() error { return errBase }, func(func() error) error { return errOpt }); err != errBase {
		t.Errorf("both sides failed: got %v, want the base error", err)
	}
	if err := beside(func() error { return nil }, func(func() error) error { return errOpt }); err != errOpt {
		t.Errorf("opt side failed: got %v, want its error", err)
	}
	err := beside(func() error { panic("base panicked") }, func(func() error) error { return nil })
	var pe *errs.PanicError
	if !errors.As(err, &pe) || pe.Value != "base panicked" || len(pe.Stack) == 0 {
		t.Errorf("got %v, want the base side's panic with its stack", err)
	}
}
