package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"

	"repro/internal/analysis"
	"repro/internal/analysis/bounds"
	"repro/internal/beebs"
	"repro/internal/cliutil"
	"repro/internal/evaluation"
)

// analyzeFlags is the command line of `flashram analyze`: the subset of
// flashram's request flags that reaches the static half of the pipeline,
// resolved the same way, plus the target and output switches.
type analyzeFlags struct {
	requestFlags
	all, baseline, bounds, json, verbose bool
}

// addAnalyzeFlags registers the analyze flags on fs.
func addAnalyzeFlags(fs *flag.FlagSet) *analyzeFlags {
	f := &analyzeFlags{}
	r := &f.req
	fs.StringVar(&r.Bench, "bench", "", "built-in BEEBS benchmark name")
	fs.StringVar(&f.src, "src", "", "mcc source file to compile")
	fs.BoolVar(&f.all, "all", false, "analyze every built-in benchmark")
	fs.StringVar(&r.Level, "O", "O2", "optimization level: O0 O1 O2 O3 Os")
	fs.StringVar(&r.Solver, "solver", "ilp", "placement solver: ilp greedy function exhaustive")
	fs.Float64Var(&r.Xlimit, "xlimit", 0, "max execution-time ratio (0 = default 2.0)")
	fs.Float64Var(&r.Rspare, "rspare", 0, "RAM budget for code in bytes (0 = derive)")
	fs.BoolVar(&r.LinkTime, "linktime", false, "link-time mode: library code becomes placeable")
	fs.BoolVar(&f.baseline, "baseline", false, "lint the untransformed program instead")
	fs.BoolVar(&f.bounds, "bounds", false, "also run the energy-bounds pass (EB diagnostics)")
	fs.BoolVar(&f.json, "json", false, "emit diagnostics as a JSON array of result objects")
	fs.BoolVar(&f.verbose, "v", false, "print a per-pass summary even when clean")
	fs.DurationVar(&f.timeout, "timeout", 0, "overall wall-clock budget (0 = none); SIGINT also cancels")
	return f
}

// cells resolves the programs the flags name with requestFlags.resolve,
// flashram's own validation, before anything compiles. Every rejection
// matches errs.ErrBadInput. No cells and no error means no program was
// named. -all names every benchmark and overrides -bench and -src.
func (f *analyzeFlags) cells() ([]evaluation.Cell, error) {
	if !f.all {
		if f.req.Bench == "" && f.src == "" {
			return nil, nil
		}
		cell, err := f.resolve()
		if err != nil {
			return nil, err
		}
		return []evaluation.Cell{cell}, nil
	}
	var cells []evaluation.Cell
	for _, b := range beebs.All() {
		r := f.requestFlags
		r.req.Bench, r.src = b.Name, ""
		cell, err := r.resolve()
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// runAnalyze implements the `flashram analyze` subcommand: compile, place,
// transform and then lint the result with the full static-analysis suite —
// no simulation. Exits 1 when any pass reports an error diagnostic.
func runAnalyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	f := addAnalyzeFlags(fs)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: flashram analyze [-bench name | -src file | -all] [flags]

Runs the placement pipeline up to the code transformation, then verifies
the result with the static-analysis suite (branch-range, instrumentation,
cfg-equivalence, memory-map, stack-depth; -bounds adds energy-bounds).
Prints one line per diagnostic (or, with -json, a JSON array of result
objects) and exits 1 if any error-severity diagnostic is found.`)
		fs.PrintDefaults()
	}
	fs.Parse(args)

	cells, err := f.cells()
	if err != nil {
		fatal(err)
	}
	if len(cells) == 0 {
		fs.Usage()
		os.Exit(2)
	}

	ctx, stop := cliutil.Context(f.timeout)
	defer stop()

	failed := 0
	var docs []analysis.ResultJSON
	for _, cell := range cells {
		name := cell.Bench.Name
		res, err := analyzeCell(ctx, cell, f.baseline, f.bounds)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		if f.json {
			docs = append(docs, analysis.NewResultJSON(name, cell.Level.String(), res))
		} else {
			for _, d := range res.Diags {
				fmt.Printf("%s: %s\n", name, d)
			}
		}
		nerr := len(res.Errors())
		if nerr > 0 {
			failed++
		}
		if !f.json && (f.verbose || nerr > 0) {
			fmt.Printf("%s at %v: %s\n", name, cell.Level, res.Summary())
		}
	}
	if f.json {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(docs); err != nil {
			fatal(err)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "flashram analyze: %d of %d program(s) failed verification\n",
			failed, len(cells))
		os.Exit(1)
	}
}

// analyzeCell lints one cell. By default it is the static half of the
// session pipeline (Session.Verify): the default suite's verdict on the
// transformed program, which fails on an error diagnostic as Optimize
// does. withBounds adds the energy-bounds pass over the same artifacts —
// it is not a default pass, so the pipeline's own gate stays the
// five-pass suite. baseline lints the untransformed program instead.
func analyzeCell(ctx context.Context, cell evaluation.Cell, baseline, withBounds bool) (*analysis.Result, error) {
	sess, err := evaluation.NewSession(cell.Bench, cell.Level)
	if err != nil {
		return nil, err
	}
	var extra []analysis.Pass
	if withBounds {
		extra = append(extra, bounds.Pass{})
	}
	if baseline {
		return analysis.Run(&analysis.Context{Prog: sess.Program(), Config: sess.LayoutConfig()},
			append(analysis.DefaultPasses(), extra...)...)
	}
	actx, res, err := sess.Verify(ctx, cell.Opts)
	if err != nil || len(extra) == 0 {
		return res, err
	}
	more, err := analysis.Run(actx, extra...)
	if err != nil {
		return nil, err
	}
	// The extra passes sort after the default ones, so appending keeps
	// Run's order. res is the session's memoized verdict: extend a copy.
	return &analysis.Result{
		Diags:  append(slices.Clone(res.Diags), more.Diags...),
		Passes: append(slices.Clone(res.Passes), more.Passes...),
	}, nil
}
