package evaluation

import (
	"fmt"
	"time"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/mcc"
	"repro/internal/sim"
)

// Request is one pipeline run as every surface spells it: the JSON body
// of flashramd's /v1/optimize (and one cell of /v1/sweep), and what the
// flashram flags fill in. It names the program — a built-in BEEBS
// benchmark or inline mcc source — and the pipeline knobs. Zero values
// mean the pipeline defaults, so the same logical request hits the same
// stage memos no matter which surface spelled it. Resolve is the one
// validation every surface runs before any compile.
type Request struct {
	// Bench names a built-in BEEBS benchmark; Source carries inline mcc
	// source (exactly one of the two must be set). Name labels inline
	// source in the report ("source" when empty).
	Bench  string `json:"bench,omitempty"`
	Source string `json:"source,omitempty"`
	Name   string `json:"name,omitempty"`

	Level  string  `json:"level,omitempty"`  // O0..Os, default O2
	Solver string  `json:"solver,omitempty"` // ilp greedy function exhaustive
	Xlimit float64 `json:"xlimit,omitempty"` // 0 (default 2.0) or >= 1
	Rspare float64 `json:"rspare,omitempty"`

	UseProfile bool   `json:"use_profile,omitempty"`
	LinkTime   bool   `json:"link_time,omitempty"`
	MaxInstrs  uint64 `json:"max_instrs,omitempty"`

	// PowerTrace schedules injected power failures for an intermittent
	// replay (DESIGN.md §6l): a harvest-profile name or an inline trace
	// spec. CheckpointCycles and CkptAware tune the replay and the solve
	// (core.Options).
	PowerTrace       string `json:"power_trace,omitempty"`
	CheckpointCycles uint64 `json:"checkpoint_cycles,omitempty"`
	CkptAware        bool   `json:"ckpt_aware,omitempty"`

	SolveMaxNodes  int `json:"solve_max_nodes,omitempty"`
	SolveMaxLPIter int `json:"solve_max_lp_iter,omitempty"`
	SolveTimeoutMS int `json:"solve_timeout_ms,omitempty"`

	// TimeoutMS bounds the whole run's wall clock (0 = the server
	// default). It changes whether a run finishes, never what it says.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Resolve validates the request into a sweep cell. Every rejection
// matches errs.ErrBadInput: the request asks for something the pipeline
// can never do, so it fails before the compile instead of inside it.
func (r *Request) Resolve() (Cell, error) {
	cell, err := r.resolve()
	return cell, errs.BadInput(err)
}

func (r *Request) resolve() (Cell, error) {
	var cell Cell
	switch {
	case r.Bench != "" && r.Source != "":
		return cell, fmt.Errorf("bench and source are mutually exclusive")
	case r.Bench != "":
		if cell.Bench = beebs.Get(r.Bench); cell.Bench == nil {
			return cell, fmt.Errorf("unknown benchmark %q", r.Bench)
		}
	case r.Source != "":
		name := r.Name
		if name == "" {
			name = "source"
		}
		cell.Bench = &beebs.Benchmark{Name: name, Source: r.Source}
	default:
		return cell, fmt.Errorf("one of bench or source is required")
	}
	level := r.Level
	if level == "" {
		level = "O2"
	}
	var err error
	if cell.Level, err = mcc.ParseOptLevel(level); err != nil {
		return cell, err
	}
	switch core.Solver(r.Solver) {
	case "", core.SolverILP, core.SolverGreedy, core.SolverFunction, core.SolverExhaustive:
	default:
		return cell, fmt.Errorf("unknown solver %q", r.Solver)
	}
	for _, k := range []struct {
		name string
		v    float64
	}{
		{"xlimit", r.Xlimit}, {"rspare", r.Rspare}, {"timeout_ms", float64(r.TimeoutMS)},
		{"solve_max_nodes", float64(r.SolveMaxNodes)}, {"solve_max_lp_iter", float64(r.SolveMaxLPIter)},
		{"solve_timeout_ms", float64(r.SolveTimeoutMS)},
	} {
		if k.v < 0 {
			return cell, fmt.Errorf("negative %s %g is invalid", k.name, k.v)
		}
	}
	if r.Xlimit != 0 && r.Xlimit < 1 {
		// Eq. 9 bounds the optimized run at Xlimit × the baseline's
		// cycles; below 1 no placement, not even all-flash, satisfies it.
		return cell, fmt.Errorf("xlimit %g can never be satisfied: it must be 0 (the default) or at least 1", r.Xlimit)
	}
	if r.PowerTrace != "" {
		// Resolve against a placeholder horizon: profile names generate
		// lazily per program, but a malformed inline trace spec must fail
		// here, not inside the pipeline.
		if _, err := sim.ResolveTrace(r.PowerTrace, 1<<20); err != nil {
			return cell, err
		}
	}
	cell.Opts = core.Options{
		UseProfile:       r.UseProfile,
		Solver:           core.Solver(r.Solver),
		Xlimit:           r.Xlimit,
		Rspare:           r.Rspare,
		LinkTime:         r.LinkTime,
		MaxInstrs:        r.MaxInstrs,
		PowerTrace:       r.PowerTrace,
		CheckpointCycles: r.CheckpointCycles,
		CkptAware:        r.CkptAware,
		SolveMaxNodes:    r.SolveMaxNodes,
		SolveMaxLPIter:   r.SolveMaxLPIter,
		SolveTimeout:     time.Duration(r.SolveTimeoutMS) * time.Millisecond,
	}
	return cell, nil
}
