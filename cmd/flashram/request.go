package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/errs"
	"repro/internal/evaluation"
)

// requestFlags is the pipeline request a flashram run mode builds from
// its command line: the evaluation.Request fields flashramd decodes from
// JSON, registered once, plus the two spellings only a command line has —
// a source file path, and Duration syntax for the millisecond fields.
type requestFlags struct {
	req          evaluation.Request
	src          string
	solveTimeout time.Duration
	timeout      time.Duration
}

// addRequestFlags registers the request flags on fs.
func addRequestFlags(fs *flag.FlagSet) *requestFlags {
	f := &requestFlags{}
	r := &f.req
	fs.StringVar(&r.Bench, "bench", "", "built-in BEEBS benchmark name")
	fs.StringVar(&f.src, "src", "", "mcc source file to compile")
	fs.StringVar(&r.Level, "O", "O2", "optimization level: O0 O1 O2 O3 Os")
	fs.StringVar(&r.Solver, "solver", "", "placement solver: ilp greedy function exhaustive (default ilp)")
	fs.Float64Var(&r.Xlimit, "xlimit", 0, "max execution-time ratio, >= 1 (0 = default 2.0)")
	fs.Float64Var(&r.Rspare, "rspare", 0, "RAM budget for code in bytes (0 = derive)")
	fs.BoolVar(&r.UseProfile, "profile", false, "use measured block frequencies instead of the static estimate")
	fs.BoolVar(&r.LinkTime, "linktime", false, "link-time mode: library code (soft-float) becomes placeable (§8 future work)")
	fs.Uint64Var(&r.MaxInstrs, "maxinstr", 0, "per-run instruction limit (0 = simulator default)")
	fs.StringVar(&r.PowerTrace, "powertrace", "", "replay both images under injected power failures: a harvest profile (steady bursty adversarial), an inline trace spec, or @file")
	fs.Uint64Var(&r.CheckpointCycles, "checkpoint", 0, "checkpoint interval in executed cycles for -powertrace runs (0 = default)")
	fs.BoolVar(&r.CkptAware, "ckptaware", false, "price per-checkpoint journal traffic of RAM residency into the placement model")
	fs.IntVar(&r.SolveMaxNodes, "solvenodes", 0, "branch-and-bound node budget (0 = solver default); on exhaustion the degradation ladder keeps the best answer it has")
	fs.IntVar(&r.SolveMaxLPIter, "solvelpiter", 0, "simplex pivot budget per LP relaxation (0 = none); on exhaustion the ladder degrades instead of failing")
	fs.DurationVar(&f.solveTimeout, "solvetimeout", 0, "ILP solve wall-clock budget in whole milliseconds (0 = none); on expiry the ladder degrades instead of failing")
	fs.DurationVar(&f.timeout, "timeout", 0, "overall wall-clock budget (0 = none); SIGINT also cancels")
	return f
}

// resolve reads the files the flags name and validates the request with
// the daemon's own Request.Resolve, before anything compiles. Every
// rejection matches errs.ErrBadInput.
func (f *requestFlags) resolve() (evaluation.Cell, error) {
	r := f.req
	var err error
	if f.src != "" {
		if r.Source, err = readFile(f.src); err != nil {
			return evaluation.Cell{}, err
		}
		r.Name = f.src
	}
	if path, ok := strings.CutPrefix(r.PowerTrace, "@"); ok {
		if r.PowerTrace, err = readFile(path); err != nil {
			return evaluation.Cell{}, err
		}
	}
	if r.SolveTimeoutMS, err = millis("solvetimeout", f.solveTimeout); err != nil {
		return evaluation.Cell{}, err
	}
	if r.TimeoutMS, err = millis("timeout", f.timeout); err != nil {
		return evaluation.Cell{}, err
	}
	return r.Resolve()
}

func readFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	return string(data), errs.BadInput(err)
}

// millis converts a Duration flag to the request's millisecond field.
// A value that is not a whole number of milliseconds is rejected, not
// rounded: truncating 500µs to 0 would turn a budget into "no limit".
func millis(name string, d time.Duration) (int, error) {
	if d%time.Millisecond != 0 {
		return 0, errs.BadInput(fmt.Errorf("-%s %v is not a whole number of milliseconds", name, d))
	}
	return int(d / time.Millisecond), nil
}
