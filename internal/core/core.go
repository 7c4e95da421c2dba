// Package core is the public face of the reproduction: it wires the whole
// pipeline together the way the paper's prototype does —
//
//	program (IR) → CFG analysis → Fb estimation → cost model (Eqs. 1–9)
//	→ ILP solve → code transformation (Figure 4) → layout → simulation
//
// and reports baseline-versus-optimized energy, execution time and
// average power, validating along the way that the transformed program
// computes exactly the same results as the original.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transform"
)

// Solver selects the placement algorithm.
type Solver string

// Available solvers.
const (
	SolverILP        Solver = "ilp"        // the paper's formulation (default)
	SolverGreedy     Solver = "greedy"     // density heuristic baseline
	SolverFunction   Solver = "function"   // whole-function granularity baseline
	SolverExhaustive Solver = "exhaustive" // true optimum over the hottest blocks
)

// Options configures one pipeline run over a Session. The board profile
// and memory map are not options: they are the session's invariants
// (SessionConfig). The zero value means: Rspare derived statically from
// the data and stack budget, Xlimit 2.0, static frequency estimate, ILP
// solver, no injected power trace.
type Options struct {
	// Rspare caps RAM used for code, in bytes. 0 derives it statically
	// (RAM − data − stack reserve), as §4.1 suggests.
	Rspare float64
	// Xlimit is the maximum execution-time ratio (Eq. 9). 0 means 2.0.
	Xlimit float64
	// UseProfile runs the baseline once and feeds the measured block
	// frequencies to the model instead of the static estimate — the
	// "w/Frequency" variant in Figure 5.
	UseProfile bool
	// Solver picks the placement algorithm ("" = ILP).
	Solver Solver
	// MaxCandidates caps ILP branching variables (0 = model default).
	MaxCandidates int
	// LinkTime enables the paper's §8 future-work mode: the optimizer
	// sees library code (soft-float runtime) and may place it in RAM,
	// as if the pass ran in the linker with a full view of the program.
	LinkTime bool
	// Trace attaches an energy-attribution collector (internal/trace) to
	// both simulations and fills Report.BaselineTrace/OptimizedTrace.
	Trace bool
	// MaxInstrs bounds each simulated run (0 = simulator default); runs
	// exceeding it fault with the current block and function named.
	MaxInstrs uint64

	// SolveMaxNodes caps branch-and-bound nodes in the ILP solve
	// (0 = the solver default). When the cap trips, the degradation
	// ladder keeps the best incumbent instead of failing; the Report's
	// Strategy records which rung produced the placement.
	SolveMaxNodes int
	// SolveMaxLPIter caps simplex pivots per LP relaxation (0 = none).
	SolveMaxLPIter int
	// SolveTimeout bounds the ILP solve's wall time (0 = none). Unlike
	// the count budgets it is non-deterministic by nature; the ladder
	// records a deterministic reason string, never the elapsed time.
	SolveTimeout time.Duration

	// PowerTrace selects the intermittent-computing environment
	// (DESIGN.md §6l): a built-in harvest profile name (steady, bursty,
	// adversarial — generated against the baseline run's cycle count) or
	// inline trace text/JSON. Both images then also run trace-driven
	// (sim.RunIntermittent) and Report.Intermittent compares them; the
	// same concrete outage schedule is injected into baseline and
	// optimized runs. "" (the default) is the always-powered pipeline,
	// byte-identical to builds without this field.
	PowerTrace string
	// CheckpointCycles is the periodic checkpoint interval for the
	// trace-driven runs (0 = sim.DefaultCheckpointCycles). Ignored
	// without PowerTrace.
	CheckpointCycles uint64
	// CkptAware makes the placement solve intermittent-aware: the model
	// objective charges each RAM-placed byte its journal traffic over
	// the run's expected checkpoints and outages (model.Params.
	// CkptNJPerByte). Off, the placement is checkpoint-oblivious and the
	// trace only affects measurement. Ignored without PowerTrace.
	CkptAware bool
}

func (o *Options) fill() {
	if o.Xlimit == 0 {
		o.Xlimit = 2.0
	}
	if o.Solver == "" {
		o.Solver = SolverILP
	}
}

// RunMetrics captures one simulated execution.
type RunMetrics struct {
	EnergyMJ     float64
	TimeS        float64
	PowerMW      float64
	Cycles       uint64
	Instructions uint64
	RAMCodeBytes int
	Stats        *sim.Stats
}

// Report is the outcome of an Optimize run.
type Report struct {
	Baseline  RunMetrics
	Optimized RunMetrics

	Placement  *placement.Result
	Model      *model.Model
	Transform  *transform.Report
	Optimized0 *ir.Program // the transformed program
	Image      *layout.Image
	Analysis   *analysis.Result // static verification of the transformed image

	// BaselineTrace and OptimizedTrace are the per-block energy
	// attributions of the two runs (nil unless Options.Trace).
	BaselineTrace  *trace.Profile
	OptimizedTrace *trace.Profile

	// Strategy names the degradation-ladder rung that produced the
	// placement ("ilp-optimal" when nothing degraded; see the
	// placement.Strategy* constants). StrategyReason is the deterministic
	// explanation of why a degraded rung was taken ("" for the exact
	// solve).
	Strategy       string
	StrategyReason string

	// EnergyChange, TimeChange and PowerChange are fractional changes
	// (optimized/baseline − 1); negative is an improvement for energy
	// and power.
	EnergyChange float64
	TimeChange   float64
	PowerChange  float64
	// Ke and Kt are the case-study factors of Eq. 11.
	Ke, Kt float64

	// Intermittent compares the two images under the injected power
	// trace (nil unless Options.PowerTrace).
	Intermittent *IntermittentComparison

	// StartupCopyCycles and StartupCopyEnergyMJ estimate the one-time
	// boot cost of the runtime's flash→RAM copy of .data and .ramcode
	// ("loaded to RAM at start-up by the runtime", §5). The paper leaves
	// this out — it amortizes over the application's lifetime — and this
	// report surfaces it so that assumption can be checked: it is a few
	// thousand cycles against millions per run.
	StartupCopyCycles   uint64
	StartupCopyEnergyMJ float64

	// rendered is the one document Encoded keeps for this report. It
	// lives as long as the report, so whatever bounds the reports a
	// session memoizes bounds it too.
	rendered atomic.Pointer[renderedDoc]
}

// renderedDoc is an encoded document and the tag it was rendered under.
type renderedDoc struct {
	tag  string
	body []byte
}

// Encoded returns the document render builds from this report under tag,
// rendering it once and serving the stored bytes to every later call
// with the same tag. The report keeps one document: a call under another
// tag renders afresh and replaces it, so a report reached under many tags
// holds one body, not one per tag. tag must name the document exactly —
// render called under one tag must always give the same bytes — and
// callers must not modify the slice. Concurrent first calls may each
// render; they get identical bytes, and the last store wins. An error
// from render is returned and nothing is stored.
func (r *Report) Encoded(tag string, render func() ([]byte, error)) ([]byte, error) {
	if d := r.rendered.Load(); d != nil && d.tag == tag {
		return d.body, nil
	}
	body, err := render()
	if err != nil {
		return nil, err
	}
	r.rendered.Store(&renderedDoc{tag: tag, body: body})
	return body, nil
}

// IntermittentComparison is the trace-driven half of a Report: both
// images replayed against the same concrete outage schedule.
type IntermittentComparison struct {
	// Spec is the resolved schedule in canonical trace text ("at down"
	// per line) — profile names resolve against the baseline cycle count
	// before keying, so two spellings of one schedule share this value.
	// Outages is the schedule length.
	Spec    string
	Outages int
	// CheckpointCycles is the resolved periodic checkpoint interval.
	CheckpointCycles uint64
	// CkptAware and CkptNJPerByte record whether — and at what per-byte
	// price — the placement solve saw the checkpoint term.
	CkptAware     bool
	CkptNJPerByte float64

	Baseline  *sim.IntermittentReport
	Optimized *sim.IntermittentReport
}

// WorkPerMJChange is the fractional change in completed work per
// millijoule (optimized/baseline − 1); positive is an improvement.
func (c *IntermittentComparison) WorkPerMJChange() float64 {
	b := c.Baseline.WorkPerMJ()
	if b == 0 {
		return 0
	}
	return c.Optimized.WorkPerMJ()/b - 1
}

// Optimize runs the full pipeline on the program. It is a thin wrapper
// over a single-use Session; sweeps that revisit the same program should
// build one Session and call its Optimize instead, so the compile,
// baseline simulation, CFG, frequency and model stages are shared across
// configurations.
func Optimize(p *ir.Program, opts Options) (*Report, error) {
	return OptimizeContext(context.Background(), p, opts)
}

// OptimizeContext is Optimize with cooperative cancellation: ctx reaches
// the solver's branch-and-bound loop and both simulated runs, so a
// cancelled or deadline-expired context stops the pipeline within their
// poll windows with an error matching the context error.
func OptimizeContext(ctx context.Context, p *ir.Program, opts Options) (*Report, error) {
	s, err := NewSession(p, SessionConfig{})
	if err != nil {
		return nil, err
	}
	return s.Optimize(ctx, opts)
}

// startupCopyCost estimates the boot-time copy of .data and .ramcode: a
// word-copy loop (ldr+str+index+branch ≈ 6 cycles per word) fetching from
// flash.
func startupCopyCost(img *layout.Image, prof *power.Profile) (uint64, float64) {
	words := uint64((img.RAMCodeBytes + img.DataBytes + 3) / 4)
	cycles := words * 6
	mw := prof.FetchPower[power.Flash][0] // ClassALU-dominated loop
	energyNJ := float64(cycles) * prof.EnergyPerCycle(mw)
	return cycles, energyNJ * 1e-6
}

func metrics(m *sim.Machine, st *sim.Stats, img *layout.Image) RunMetrics {
	return RunMetrics{
		EnergyMJ:     st.EnergyMJ(),
		TimeS:        m.TimeSeconds(st),
		PowerMW:      m.AveragePowerMW(st),
		Cycles:       st.Cycles,
		Instructions: st.Instructions,
		RAMCodeBytes: img.RAMCodeBytes,
		Stats:        st,
	}
}

// BlockSaving attributes part of the run-level energy change to one
// block: the difference between its baseline and optimized attributed
// energy. Positive SavedNJ is a saving. Blocks that appear in only one
// run (e.g. never executed after optimization) still get a row.
type BlockSaving struct {
	Label       string
	Func        string
	InRAM       bool // placed in RAM in the optimized image
	BaselineNJ  float64
	OptimizedNJ float64
	SavedNJ     float64
}

// BlockSavings ranks blocks by their contribution to the measured energy
// change, largest absolute contribution first (n <= 0 returns all).
// Requires Options.Trace; returns nil when the report has no traces.
func (r *Report) BlockSavings(n int) []BlockSaving {
	if r.BaselineTrace == nil || r.OptimizedTrace == nil {
		return nil
	}
	rows := make(map[string]*BlockSaving)
	get := func(label, fn string) *BlockSaving {
		s := rows[label]
		if s == nil {
			s = &BlockSaving{Label: label, Func: fn}
			rows[label] = s
		}
		return s
	}
	for lbl, b := range r.BaselineTrace.Blocks {
		get(lbl, b.Func).BaselineNJ = b.EnergyNJ
	}
	for lbl, b := range r.OptimizedTrace.Blocks {
		s := get(lbl, b.Func)
		s.OptimizedNJ = b.EnergyNJ
		s.InRAM = b.InRAM
	}
	out := make([]BlockSaving, 0, len(rows))
	for _, s := range rows {
		s.SavedNJ = s.BaselineNJ - s.OptimizedNJ
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := math.Abs(out[i].SavedNJ), math.Abs(out[j].SavedNJ)
		if ai != aj {
			return ai > aj
		}
		return out[i].Label < out[j].Label
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// MovedLabels returns the RAM-placed block labels, sorted.
func (r *Report) MovedLabels() []string {
	var out []string
	for lbl, in := range r.Placement.InRAM {
		if in {
			out = append(out, lbl)
		}
	}
	sort.Strings(out)
	return out
}

// Summary renders a one-paragraph human-readable report.
func (r *Report) Summary() string {
	return fmt.Sprintf(
		"energy %+.1f%% (%.4f → %.4f mJ), time %+.1f%% (%.4f → %.4f ms), "+
			"power %+.1f%% (%.2f → %.2f mW), %d blocks in RAM (%d bytes of code)",
		100*r.EnergyChange, r.Baseline.EnergyMJ, r.Optimized.EnergyMJ,
		100*r.TimeChange, 1e3*r.Baseline.TimeS, 1e3*r.Optimized.TimeS,
		100*r.PowerChange, r.Baseline.PowerMW, r.Optimized.PowerMW,
		len(r.MovedLabels()), r.Optimized.RAMCodeBytes)
}
