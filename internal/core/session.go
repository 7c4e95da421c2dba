package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/errs"
	"repro/internal/freq"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transform"
)

// Session is the staged form of the pipeline: one program, one board
// profile, one memory map — and every expensive artifact (baseline
// image/run, CFG, frequency estimates, cost models, placements, whole
// reports) materialized at most once and shared across configurations.
// The paper's experiments are sweeps: Figure 5 solves every benchmark
// twice (static and profiled Fb), Figure 6 re-solves one program at a
// dozen constraint points, and the §6 aggregate revisits the same
// benchmark×level cells other experiments already ran. A Session makes
// all of that share work instead of recompiling and re-simulating the
// identical baseline each time.
//
// Every artifact handed out is treated as immutable once built: models,
// graphs and estimates are read-only to the solvers, the baseline
// machine state is snapshotted into plain bytes, and each placement is
// transformed on a fresh clone of the program. That makes concurrent solves
// over one Session safe (the evaluation sweeps run them across a worker
// pool under the race detector).
type Session struct {
	prog      *ir.Program
	profile   *power.Profile
	layout    layout.Config
	warmSolve bool
	noFuse    bool

	counters sessionCounters

	// warmIdx is the warm-start registry: per solve family (same model
	// inputs except the Rspare/Xlimit bounds, same solver and budget),
	// the last warmDonors completed proven solves and their reusable
	// state. A solve at one constraint point consults its nearest
	// single-axis neighbor here before paying for a cold solve. bytes is
	// the storage of the distinct lp end states the registry holds
	// (lp.State.Bytes).
	warmIdx struct {
		mu    sync.Mutex
		idx   map[solveFamily][]solvePoint
		bytes int
	}

	graphs     memo[struct{}, map[string]*cfg.Graph]
	spare      memo[struct{}, float64]
	freqs      memo[freqKey, freq.Estimate]
	families   memo[modelKey, *model.Model] // per modelKey.family(), off the ledger
	models     memo[modelKey, *model.Model] // per point: WithBounds views of a family
	solves     memo[solveKey, *placement.Result]
	placements memo[transformKey, *placed]      // per transformKey.placed(), off the ledger
	transforms memo[transformKey, *transformed] // per budget: analyses of a shared placement
	reports    memo[reportKey, *Report]
	// runs and intermits key on the image they read, not on the
	// configuration that asked: the baseline and every configuration whose
	// solve lands on the empty placement share one entry, and so do two
	// configurations that differ only in Rspare.
	runs      memo[runKey, *Measurement]
	intermits memo[intermitKey, *sim.IntermittentReport]
}

// SessionConfig fixes the per-session invariants. Zero values mean the
// pipeline defaults (STM32F100 profile, default memory map).
type SessionConfig struct {
	Profile *power.Profile
	Layout  layout.Config
	// WarmSolve enables the warm-start registry: an ILP solve consults
	// the completed solve at a neighboring Rspare/Xlimit point and reuses
	// its incumbent, bound and simplex basis. The placement and every
	// RunJSON-level output are identical to a cold solve's (golden
	// tests); what changes is solver effort — Result.Nodes, the recorded
	// warm-ilp-optimal strategy — and which neighbor is consulted can
	// depend on completion order under concurrency. Consumers that
	// fingerprint solver effort (or need it deterministic under
	// concurrent solves) must leave this off; the sweeps and the service
	// turn it on.
	WarmSolve bool
	// NoFuse makes every simulator run dispatch length-1 descriptors
	// only, bypassing superblock fusion (sim.Machine.NoFuse). Outputs are
	// byte-identical either way — that identity is the fused engine's
	// contract and what the differential sweeps assert — so this is a
	// debug/verification knob (beebsbench -nofuse), never a semantics
	// switch.
	NoFuse bool
}

// NewSession verifies the program once and wraps it in an empty staged
// pipeline. The program must not be mutated afterwards; every transform
// the Session performs works on a clone.
func NewSession(p *ir.Program, cfg SessionConfig) (*Session, error) {
	if cfg.Profile == nil {
		cfg.Profile = power.STM32F100()
	}
	if cfg.Layout == (layout.Config{}) {
		cfg.Layout = layout.DefaultConfig()
	}
	if err := ir.Verify(p); err != nil {
		return nil, errs.Wrap(errs.StageVerify, err)
	}
	return &Session{prog: p, profile: cfg.Profile, layout: cfg.Layout, warmSolve: cfg.WarmSolve, noFuse: cfg.NoFuse}, nil
}

// Program returns the session's (immutable) input program.
func (s *Session) Program() *ir.Program { return s.prog }

// Profile returns the session's board power profile.
func (s *Session) Profile() *power.Profile { return s.profile }

// LayoutConfig returns the session's memory map.
func (s *Session) LayoutConfig() layout.Config { return s.layout }

// ---------------------------------------------------------------------
// Stage keys. Each stage is memoized on exactly the parameters that can
// change its output; everything else is a session invariant.

// freqKey identifies a frequency estimate: the static estimate has one
// value per session; the profiled estimate depends on the baseline run,
// hence on the instruction limit.
type freqKey struct {
	profiled  bool
	maxInstrs uint64
}

// modelKey carries every parameter that reaches model.Build: the Fb
// source, the (resolved) RAM and time budgets, the candidate cap,
// link-time visibility, and the checkpoint term (0 = always-powered).
// EFlash/ERAM come from the session profile.
type modelKey struct {
	freq          freqKey
	rspare        float64
	xlimit        float64
	maxCandidates int
	linkTime      bool
	ckptNJPerByte float64
}

// family zeroes the constraint bounds: the key of the model family the
// point belongs to, whose points share blocks, edges and ILP lowering
// and differ only in the Eq. 7 and Eq. 9 right-hand sides.
func (k modelKey) family() modelKey {
	k.rspare, k.xlimit = 0, 0
	return k
}

// solveKey is a modelKey plus the solver choice and its resource budget.
// The budget is part of the key: a budget-degraded placement must never
// be served to a caller that asked for the exact solve, and vice versa.
type solveKey struct {
	model  modelKey
	solver Solver
	budget placement.Budget
}

// reportKey identifies a full Optimize outcome: the solve plus the
// run-level knobs (tracing, instruction limit, injected power trace).
type reportKey struct {
	solve        solveKey
	traced       bool
	maxInstrs    uint64
	intermittent intermittentSpec
}

// intermittentSpec is the resolved intermittent environment of one
// configuration: the concrete outage schedule (canonical text form — a
// profile name plus the measured horizon resolves to this before keying,
// so identical schedules share memo slots however they were spelled),
// its outage count, the checkpoint interval, and whether the solve saw
// the checkpoint term. The zero value is the always-powered pipeline.
type intermittentSpec struct {
	enabled    bool
	trace      string
	outages    int
	ckptCycles uint64
	aware      bool
}

// transformKey identifies a verified transformed program: the chosen
// placement, the transform mode, and the RAM budget the static analysis
// verifies against. Two solves that pick the same block set — common
// between the static and profiled Figure 5 variants, which also share the
// derived budget — share one analysis; budgets that differ share the
// transformed program and image underneath (placed).
type transformKey struct {
	placement string
	linkTime  bool
	rspare    float64
}

// placed zeroes the RAM budget: the key of the transformed program and
// image, which only the analysis on top of them reads the budget against.
func (k transformKey) placed() transformKey {
	k.rspare = 0
	return k
}

// transform is the transform key of the placement the configuration's
// solve chose.
func (k reportKey) transform(res *placement.Result) transformKey {
	return transformKey{placement: canonicalPlacement(res.InRAM), linkTime: k.solve.model.linkTime, rspare: k.solve.model.rspare}
}

// imageForm is how a placement reaches its image: laid out over the
// untransformed program (Measure), or through the Figure 4 transform
// without or with link-time visibility.
type imageForm uint8

const (
	formRaw imageForm = iota
	formFig4
	formLinkTime
)

// imageKey identifies one laid-out image: the placement and its form.
// The empty placement is the all-flash baseline in every form (the
// transform leaves the program untouched, which placeFor checks), so
// it normalizes to the zero key.
type imageKey struct {
	placement string
	form      imageForm
}

func newImageKey(placement string, form imageForm) imageKey {
	if placement == "" {
		return imageKey{}
	}
	return imageKey{placement: placement, form: form}
}

// image is the key of the transformed program's image. The RAM budget
// drops out: only the static analysis reads it.
func (k transformKey) image() imageKey {
	if k.linkTime {
		return newImageKey(k.placement, formLinkTime)
	}
	return newImageKey(k.placement, formFig4)
}

// runKey identifies one simulated run: the image, whether the
// energy-attribution collector was attached, and the instruction limit.
type runKey struct {
	image     imageKey
	traced    bool
	maxInstrs uint64
}

// intermitKey identifies one trace-driven run: the image, the canonical
// trace text, the checkpoint interval and the instruction limit.
type intermitKey struct {
	image      imageKey
	trace      string
	ckptCycles uint64
	maxInstrs  uint64
}

func canonicalPlacement(inRAM map[string]bool) string {
	if len(inRAM) == 0 {
		return ""
	}
	labels := make([]string, 0, len(inRAM))
	for lbl, in := range inRAM {
		if in {
			labels = append(labels, lbl)
		}
	}
	sort.Strings(labels)
	return strings.Join(labels, "\x00")
}

// resolve normalizes Options into stage keys. It derives the Rspare a
// zero Options.Rspare asks for and the checkpoint term, then keys the
// solve through resolveSolve, the defaults Solve and Model apply, so
// that e.g. Xlimit 0 and Xlimit 2.0 hit the same cache slot from either
// entry point. With PowerTrace set, resolution includes the
// baseline run (memoized — it is the trace horizon and the checkpoint
// term's event-count basis), which is why it takes a context.
func (s *Session) resolve(ctx context.Context, opts Options) (reportKey, error) {
	rspare := opts.Rspare
	if rspare == 0 {
		var err error
		rspare, err = s.SpareRAM()
		if err != nil {
			return reportKey{}, err
		}
	}
	ispec, ckptNJ, err := s.resolveIntermittent(ctx, opts)
	if err != nil {
		return reportKey{}, err
	}
	return reportKey{
		solve: resolveSolve(SolveSpec{
			ModelSpec: ModelSpec{
				UseProfile:    opts.UseProfile,
				Rspare:        rspare,
				Xlimit:        opts.Xlimit,
				MaxCandidates: opts.MaxCandidates,
				LinkTime:      opts.LinkTime,
				MaxInstrs:     opts.MaxInstrs,
				CkptNJPerByte: ckptNJ,
			},
			Solver: opts.Solver,
			Budget: placement.Budget{
				MaxNodes:  opts.SolveMaxNodes,
				MaxLPIter: opts.SolveMaxLPIter,
				Timeout:   opts.SolveTimeout,
			},
		}),
		traced:       opts.Trace,
		maxInstrs:    opts.MaxInstrs,
		intermittent: ispec,
	}, nil
}

// resolveIntermittent turns the PowerTrace/CheckpointCycles/CkptAware
// knobs into the resolved spec plus the model's checkpoint term. The
// horizon for profile generation is the baseline run's cycle count, so
// the outage density scales with the workload; the same concrete trace
// is injected into the baseline and optimized runs. The checkpoint term
// prices each RAM-placed byte at its journal traffic over the run's
// expected checkpoint count (baseline cycles / interval) and the
// schedule's outage count — deterministic in the key inputs, so the
// model memo stays exact.
func (s *Session) resolveIntermittent(ctx context.Context, opts Options) (intermittentSpec, float64, error) {
	if opts.PowerTrace == "" {
		return intermittentSpec{}, 0, nil
	}
	base, err := s.Measure(ctx, nil, false, opts.MaxInstrs)
	if err != nil {
		return intermittentSpec{}, 0, err
	}
	tr, err := sim.ResolveTrace(opts.PowerTrace, base.Stats.Cycles)
	if err != nil {
		return intermittentSpec{}, 0, err
	}
	ispec := intermittentSpec{
		enabled:    true,
		trace:      tr.String(),
		outages:    len(tr.Outages),
		ckptCycles: opts.CheckpointCycles,
		aware:      opts.CkptAware,
	}
	if ispec.ckptCycles == 0 {
		ispec.ckptCycles = sim.DefaultCheckpointCycles
	}
	var ckptNJ float64
	if opts.CkptAware {
		perCkptNJ, perRestoreNJ := sim.CheckpointCostPerByteNJ(s.profile)
		nCkpt := float64(base.Stats.Cycles / ispec.ckptCycles)
		ckptNJ = nCkpt*perCkptNJ + float64(ispec.outages)*perRestoreNJ
	}
	return ispec, ckptNJ, nil
}

// profiledMaxInstrs keeps the static-estimate key independent of the
// instruction limit (the estimate never simulates).
func profiledMaxInstrs(profiled bool, maxInstrs uint64) uint64 {
	if !profiled {
		return 0
	}
	return maxInstrs
}

// ---------------------------------------------------------------------
// Stages.

// Graphs builds (once) the per-function control-flow graphs.
func (s *Session) Graphs() (map[string]*cfg.Graph, error) {
	return s.graphs.do(&s.counters.cfg, struct{}{}, func() (map[string]*cfg.Graph, error) {
		g, err := cfg.BuildAll(s.prog)
		if err != nil {
			return nil, errs.Wrap(errs.StageCFG, err)
		}
		return g, nil
	})
}

// SpareRAM derives (once) the default Rspare: physical RAM minus data
// and the statically bounded stack, as §4.1 suggests.
func (s *Session) SpareRAM() (float64, error) {
	return s.spare.do(&s.counters.cfg, struct{}{}, func() (float64, error) {
		return float64(layout.SpareRAM(s.prog, s.layout)), nil
	})
}

// Measurement is one simulated execution of the session program under a
// given placement: the image, the run statistics, the derived headline
// metrics, the optional energy attribution, and a snapshot of every
// writable global's final bytes (for semantic-equivalence checks).
type Measurement struct {
	Image   *layout.Image
	Stats   *sim.Stats
	Metrics RunMetrics
	// Trace is the per-block energy attribution (nil unless the run was
	// requested with tracing).
	Trace *trace.Profile

	globals map[string][]byte
}

// Measure lays out the untransformed session program with the given
// placement and simulates it. A nil placement is the all-in-flash
// baseline.
func (s *Session) Measure(ctx context.Context, inRAM map[string]bool, traced bool, maxInstrs uint64) (*Measurement, error) {
	key := runKey{image: newImageKey(canonicalPlacement(inRAM), formRaw), traced: traced, maxInstrs: maxInstrs}
	return s.run(ctx, &s.counters.baseline, errs.StageBaseline, key, s.rawImage(inRAM))
}

// rawImage lays out the untransformed session program.
func (s *Session) rawImage(inRAM map[string]bool) func() (*layout.Image, error) {
	return func() (*layout.Image, error) {
		img, err := layout.New(s.prog, s.layout, inRAM)
		if err != nil {
			return nil, errs.Wrap(errs.StageLayout, err)
		}
		return img, nil
	}
}

// run simulates one image, memoized on (image, tracing, instruction
// limit) and ledgered on the caller's stage counter; a simulator error
// carries the caller's stage. A completed traced run also satisfies an
// untraced request: the observer is passive, so the statistics and final
// memory state are identical. A traced run checks that its attribution
// conserves energy. Cancelling ctx stops the simulation within its poll
// window; a cancelled computation is evicted from the memo so a later
// caller with a live context can retry.
func (s *Session) run(ctx context.Context, st *stageCounter, stage errs.Stage, key runKey, image func() (*layout.Image, error)) (*Measurement, error) {
	if !key.traced {
		tk := key
		tk.traced = true
		if m, ok := s.runs.peek(tk); ok {
			st.hit()
			return m, nil
		}
	}
	return s.runs.do(st, key, func() (*Measurement, error) {
		img, err := image()
		if err != nil {
			return nil, err
		}
		machine := sim.Acquire(img, s.profile)
		defer machine.Release()
		machine.NoFuse = s.noFuse
		machine.MaxInstrs = key.maxInstrs
		var col *trace.Collector
		if key.traced {
			col = trace.NewCollector()
			machine.Attach(col)
		}
		stats, err := machine.RunContext(ctx)
		if err != nil {
			return nil, errs.Wrap(stage, err)
		}
		s.counters.simRuns.Add(1)
		s.counters.cyclesSimulated.Add(stats.Cycles)
		m := &Measurement{
			Image:   img,
			Stats:   stats,
			Metrics: metrics(machine, stats, img),
			globals: snapshotGlobals(s.prog, machine),
		}
		if col != nil {
			m.Trace = col.Profile()
			// The attribution invariant is cheap to check and catastrophic
			// to miss: every nanojoule the simulator charged must have
			// landed in exactly one block.
			if err := m.Trace.CheckConservation(stats); err != nil {
				return nil, errs.Wrap(stage, err)
			}
		}
		return m, nil
	})
}

// Baseline is the all-in-flash Measure with the default instruction
// limit — the shared denominator of every configuration.
func (s *Session) Baseline(ctx context.Context) (*Measurement, error) {
	return s.Measure(ctx, nil, false, 0)
}

// Frequencies returns the Fb estimate: the static loop-depth estimate,
// or the measured block counts of the baseline run.
func (s *Session) Frequencies(ctx context.Context, useProfile bool, maxInstrs uint64) (freq.Estimate, error) {
	key := freqKey{profiled: useProfile, maxInstrs: profiledMaxInstrs(useProfile, maxInstrs)}
	return s.freqs.do(&s.counters.freq, key, func() (freq.Estimate, error) {
		if useProfile {
			base, err := s.Measure(ctx, nil, false, maxInstrs)
			if err != nil {
				return nil, errs.Wrap(errs.StageFreq, err)
			}
			return freq.FromProfile(base.Stats), nil
		}
		graphs, err := s.Graphs()
		if err != nil {
			return nil, err
		}
		return freq.Static(s.prog, graphs), nil
	})
}

// ModelSpec selects one cost-model instance. Unlike Options.Rspare,
// the Rspare here is literal bytes — a zero budget is a real (placeable-
// nothing) configuration in the Figure 6 sweeps; callers wanting the
// derived default pass SpareRAM(). Xlimit 0 and MaxCandidates 0 resolve
// to the pipeline defaults.
type ModelSpec struct {
	UseProfile    bool
	Rspare        float64
	Xlimit        float64
	MaxCandidates int
	LinkTime      bool
	// MaxInstrs only matters when UseProfile is set (it bounds the
	// profiling run).
	MaxInstrs uint64
	// CkptNJPerByte is the intermittent checkpoint term passed through
	// to model.Params (0 = always-powered).
	CkptNJPerByte float64
}

// resolveModel keys a ModelSpec, filling the pipeline defaults.
func resolveModel(spec ModelSpec) modelKey {
	if spec.Xlimit == 0 {
		spec.Xlimit = 2.0
	}
	if spec.MaxCandidates == 0 {
		spec.MaxCandidates = model.DefaultMaxCandidates
	}
	return modelKey{
		freq:          freqKey{profiled: spec.UseProfile, maxInstrs: profiledMaxInstrs(spec.UseProfile, spec.MaxInstrs)},
		rspare:        spec.Rspare,
		xlimit:        spec.Xlimit,
		maxCandidates: spec.MaxCandidates,
		linkTime:      spec.LinkTime,
		ckptNJPerByte: spec.CkptNJPerByte,
	}
}

// Model assembles (or reuses) the Eq. 1–9 cost model for the spec.
func (s *Session) Model(ctx context.Context, spec ModelSpec) (*model.Model, error) {
	return s.model(ctx, resolveModel(spec))
}

// model returns the point view of key's family: each point counts on
// the model ledger (and reads the CFG and frequency stages, as a
// stand-alone build would), while the family it shares is built once
// per session and stays off the ledger.
func (s *Session) model(ctx context.Context, key modelKey) (*model.Model, error) {
	return s.models.do(&s.counters.model, key, func() (*model.Model, error) {
		graphs, err := s.Graphs()
		if err != nil {
			return nil, err
		}
		est, err := s.Frequencies(ctx, key.freq.profiled, key.freq.maxInstrs)
		if err != nil {
			return nil, err
		}
		fam, err := s.families.do(nil, key.family(), func() (*model.Model, error) {
			ef, er := s.profile.Coefficients()
			// Built at the tightest valid point; every caller gets a
			// WithBounds view.
			mdl, err := model.Build(s.prog, graphs, est, model.Params{
				EFlash: ef, ERAM: er,
				Rspare: 0, Xlimit: 1,
				MaxCandidates:  key.maxCandidates,
				IncludeLibrary: key.linkTime,
				CkptNJPerByte:  key.ckptNJPerByte,
			})
			if err != nil {
				return nil, errs.Wrap(errs.StageModel, err)
			}
			return mdl, nil
		})
		if err != nil {
			return nil, err
		}
		mdl, err := fam.WithBounds(key.rspare, key.xlimit)
		if err != nil {
			return nil, errs.Wrap(errs.StageModel, err)
		}
		return mdl, nil
	})
}

// SolveSpec is a ModelSpec plus the placement algorithm.
type SolveSpec struct {
	ModelSpec
	Solver Solver
	// Budget bounds the ILP solve; when any of its limits trips, the
	// degradation ladder (placement.SolveLadder) steps down and the
	// result's Strategy records the rung. The zero budget is the exact
	// solve.
	Budget placement.Budget
}

// Solve runs (or reuses) the placement solver on the spec's model.
func (s *Session) Solve(ctx context.Context, spec SolveSpec) (*placement.Result, error) {
	return s.solve(ctx, resolveSolve(spec))
}

// resolveSolve keys a SolveSpec, filling the pipeline defaults: the ILP
// solver and resolveModel's.
func resolveSolve(spec SolveSpec) solveKey {
	if spec.Solver == "" {
		spec.Solver = SolverILP
	}
	return solveKey{model: resolveModel(spec.ModelSpec), solver: spec.Solver, budget: spec.Budget}
}

// exhaustiveK is how many of the hottest blocks SolverExhaustive
// enumerates every placement of.
const exhaustiveK = 12

func (s *Session) solve(ctx context.Context, key solveKey) (*placement.Result, error) {
	return s.solves.do(&s.counters.solve, key, func() (*placement.Result, error) {
		mdl, err := s.model(ctx, key.model)
		if err != nil {
			return nil, err
		}
		var res *placement.Result
		switch key.solver {
		case SolverILP:
			// The ladder degrades through incumbent → rounding → greedy →
			// identity when the budget trips; with the zero budget and a
			// live context it is exactly the exact ILP solve.
			var warm *placement.Warm
			if s.warmSolve {
				warm = s.neighborWarm(key)
			}
			res, err = placement.SolveLadder(ctx, mdl, key.budget, warm)
			if err == nil && s.warmSolve {
				s.accountWarm(warm, res)
			}
			if err == nil && res.Warm != nil {
				// Only the warm registry reads a donated state, and it
				// takes the state over: the memoized result keeps none.
				if s.warmSolve {
					s.recordWarm(key, *res.Warm)
				}
				res.Warm.State = nil
			}
		case SolverGreedy:
			res = placement.SolveGreedy(mdl)
		case SolverFunction:
			res = placement.SolveFunctionLevel(mdl, s.prog)
		case SolverExhaustive:
			res, err = placement.SolveExhaustive(mdl, exhaustiveK)
		default:
			return nil, fmt.Errorf("core: unknown solver %q", key.solver)
		}
		if err != nil {
			return nil, errs.Wrap(errs.StageSolve, err)
		}
		return res, nil
	})
}

// solveFamily groups solves that differ only in their Rspare/Xlimit
// constraint bounds — the model columns and objective are identical
// across a family, which is exactly the precondition for warm reuse.
type solveFamily struct {
	model  modelKey // modelKey.family()
	solver Solver
	budget placement.Budget
}

// solvePoint is one completed proven solve within a family.
type solvePoint struct {
	rspare, xlimit float64
	warm           *placement.Warm
}

func familyOf(key solveKey) solveFamily {
	return solveFamily{model: key.model.family(), solver: key.solver, budget: key.budget}
}

// warmDonors is how many completed solves the registry keeps per family.
// A sweep walks its path loosest first, so the point a solve consults is
// the one registered just before it; a daemon's scattered Rspare writes
// would otherwise park one state per distinct budget for the session's
// whole life.
const warmDonors = 4

// neighborWarm picks the carried state for a solve: the nearest
// completed solve in the same family that differs on exactly one
// constraint axis. Preference order is deterministic for a fixed
// registry state — rspare neighbors before xlimit neighbors, then
// smallest bound distance, then the tighter of two equidistant points —
// so identical solve sequences always consult identical neighbors.
func (s *Session) neighborWarm(key solveKey) *placement.Warm {
	fam := familyOf(key)
	s.warmIdx.mu.Lock()
	defer s.warmIdx.mu.Unlock()
	pts := s.warmIdx.idx[fam]

	best := -1
	bestAxis, bestDist, bestVal := 2, 0.0, 0.0
	for i, pt := range pts {
		sameR := pt.rspare == key.model.rspare
		sameX := pt.xlimit == key.model.xlimit
		var axis int // 0 = rspare neighbor, 1 = xlimit neighbor
		var dist, val float64
		switch {
		case sameX && !sameR:
			axis, dist, val = 0, absf(pt.rspare-key.model.rspare), pt.rspare
		case sameR && !sameX:
			axis, dist, val = 1, absf(pt.xlimit-key.model.xlimit), pt.xlimit
		default:
			continue // same point (impossible: memoized) or diagonal
		}
		if best < 0 || axis < bestAxis ||
			(axis == bestAxis && (dist < bestDist ||
				(dist == bestDist && val < bestVal))) {
			best, bestAxis, bestDist, bestVal = i, axis, dist, val
		}
	}
	if best < 0 {
		return nil
	}
	return pts[best].warm
}

// recordWarm registers a proven solve's donation and takes its state
// over: the registry keeps its own copy of warm. A warm proof's
// passthrough is its donor's state, registered already and shared with
// other solves. A full family drops the point evictee picks. The dropped
// state is never written — a solve that consulted it may still be
// copying it — so the collector takes it once nothing reads it, and the
// byte gauge lets go of it unless a remaining point shares it.
func (s *Session) recordWarm(key solveKey, warm placement.Warm) {
	fam := familyOf(key)
	s.warmIdx.mu.Lock()
	defer s.warmIdx.mu.Unlock()
	if s.warmIdx.idx == nil {
		s.warmIdx.idx = make(map[solveFamily][]solvePoint)
	}
	pts := s.warmIdx.idx[fam]
	holds := func(st *lp.State) bool {
		return slices.ContainsFunc(pts, func(pt solvePoint) bool { return pt.warm.State == st })
	}
	if len(pts) == warmDonors {
		i := evictee(pts, key.model.rspare, key.model.xlimit)
		old := pts[i].warm.State
		pts = slices.Delete(pts, i, i+1)
		if old != nil && !holds(old) {
			s.warmIdx.bytes -= old.Bytes()
		}
	}
	// A warm proof hands its donor's state through, and the donor is in
	// the same family already: count each state once.
	if st := warm.State; st != nil && !holds(st) {
		s.warmIdx.bytes += st.Bytes()
	}
	s.warmIdx.idx[fam] = append(pts,
		solvePoint{rspare: key.model.rspare, xlimit: key.model.xlimit, warm: &warm})
}

// evictee picks the point a full family, pts in registration order,
// drops to admit a new point at (rspare, xlimit): the older point of the
// closest pair on a shared constraint line, the new point included, so
// the donors stay spread along each line. Pairs are ranked as
// neighborWarm ranks neighbors, rspare lines before xlimit lines, then
// by bound distance; ties go to the older point. With no two points on
// one line it is the oldest point. The new point is never the older of
// a pair, so the point a sweep consults next, the last one solved, is
// never dropped.
func evictee(pts []solvePoint, rspare, xlimit float64) int {
	at := func(i int) (float64, float64) {
		if i == len(pts) {
			return rspare, xlimit
		}
		return pts[i].rspare, pts[i].xlimit
	}
	best, bestAxis, bestDist := 0, 2, 0.0
	for a := range pts {
		ra, xa := at(a)
		for b := a + 1; b <= len(pts); b++ {
			rb, xb := at(b)
			var axis int // 0 = a shared xlimit (an rspare line), 1 = a shared rspare
			var dist float64
			switch {
			case xa == xb:
				axis, dist = 0, absf(ra-rb)
			case ra == rb:
				axis, dist = 1, absf(xa-xb)
			default:
				continue
			}
			if axis < bestAxis || axis == bestAxis && dist < bestDist {
				best, bestAxis, bestDist = a, axis, dist
			}
		}
	}
	return best
}

// accountWarm ledgers one ILP solve's warm outcome.
func (s *Session) accountWarm(warm *placement.Warm, res *placement.Result) {
	if warm == nil || !res.WarmUse.Consumed {
		s.counters.warmMisses.Add(1)
		return
	}
	s.counters.warmHits.Add(1)
	if res.WarmUse.Incumbent {
		s.counters.warmIncumbents.Add(1)
	}
	if res.WarmUse.InstantProof {
		s.counters.warmProofs.Add(1)
	}
	if res.WarmUse.ItersSaved > 0 {
		s.counters.simplexItersSaved.Add(uint64(res.WarmUse.ItersSaved))
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// placed is the placement-determined artifact set: the transformed
// program clone, the transformation report and the optimized image. The
// Figure 4 transform reads only the block set and the transform mode, so
// every RAM budget that lands on one placement shares one. All immutable
// after construction.
type placed struct {
	prog *ir.Program
	trep *transform.Report
	img  *layout.Image
}

// transformed is one budget's view of a placement: the shared placed
// artifacts and the static analysis verified against that budget.
type transformed struct {
	*placed
	ares *analysis.Result
}

func (tf *transformed) image() (*layout.Image, error) { return tf.img, nil }

// transformFor statically verifies the placement's image against the
// key's RAM budget, on top of placeFor's shared transform. res.InRAM
// must canonicalize to key.placement. The transform ledger counts one
// lookup per budget, as the analysis is what each budget adds.
func (s *Session) transformFor(key transformKey, inRAM map[string]bool) (*transformed, error) {
	return s.transforms.do(&s.counters.transform, key, func() (*transformed, error) {
		pl, err := s.placeFor(key.placed(), inRAM)
		if err != nil {
			return nil, err
		}
		// Static verification of the transformed artifact: every branch in
		// range, every cross-memory edge instrumented with a dead scratch,
		// the CFG preserved, the memory map sound, the stack bounded, the
		// RAM code within the budget (MM005, the only pass that reads it).
		// Error diagnostics abort the run before simulation can mask them.
		ares, err := analysis.Analyze(&analysis.Context{
			Original: s.prog, Prog: pl.prog, InRAM: inRAM,
			Config: s.layout, Image: pl.img, Rspare: key.rspare,
		})
		if err != nil {
			return nil, errs.Wrap(errs.StageAnalysis, err)
		}
		if n := len(ares.Errors()); n > 0 {
			return nil, errs.Wrap(errs.StageAnalysis, fmt.Errorf("found %d error(s):\n%s", n, ares))
		}
		return &transformed{placed: pl, ares: ares}, nil
	})
}

// placeFor clones, transforms and lays out the program for one placement
// and transform mode (key.rspare is zero), once per session and off the
// ledger, like the model families.
func (s *Session) placeFor(key transformKey, inRAM map[string]bool) (*placed, error) {
	return s.placements.do(nil, key, func() (*placed, error) {
		// Transformation on a clone: the shared session program stays
		// pristine for every other configuration.
		opt := s.prog.Clone()
		applyFn := transform.Apply
		if key.linkTime {
			applyFn = transform.ApplyLinkTime
		}
		trep, err := applyFn(opt, inRAM)
		if err != nil {
			return nil, errs.Wrap(errs.StageTransform, err)
		}
		// The image memos serve the empty placement from the baseline's
		// entries; that holds only while the transform leaves it alone.
		if key.placement == "" && (len(trep.Moved) > 0 || len(trep.Instrumented) > 0) {
			return nil, errs.Wrap(errs.StageTransform,
				fmt.Errorf("empty placement rewrote the program (moved %v, instrumented %v)", trep.Moved, trep.Instrumented))
		}
		optImg, err := layout.New(opt, s.layout, inRAM)
		if err != nil {
			return nil, errs.Wrap(errs.StageLayout, err)
		}
		return &placed{prog: opt, trep: trep, img: optImg}, nil
	})
}

// intermittentRun replays the key's power trace against one image,
// memoized on the image and the schedule. The trace is re-parsed from
// its canonical text so the stage depends on nothing but its key;
// parsing the canonical form cannot fail for keys produced by
// resolveIntermittent, but a defensive error path keeps the invariant
// visible.
func (s *Session) intermittentRun(ctx context.Context, key intermitKey, img *layout.Image) (*sim.IntermittentReport, error) {
	return s.intermits.do(&s.counters.intermit, key, func() (*sim.IntermittentReport, error) {
		tr := &sim.PowerTrace{}
		if key.trace != "" {
			var err error
			tr, err = sim.ParsePowerTrace([]byte(key.trace))
			if err != nil {
				return nil, errs.Wrap(errs.StageIntermittent, err)
			}
		}
		machine := sim.Acquire(img, s.profile)
		defer machine.Release()
		machine.NoFuse = s.noFuse
		machine.MaxInstrs = key.maxInstrs
		rep, err := machine.RunIntermittent(ctx, sim.IntermittentConfig{
			Trace:            tr,
			CheckpointCycles: key.ckptCycles,
		})
		if err != nil {
			return nil, errs.Wrap(errs.StageIntermittent, err)
		}
		s.counters.simRuns.Add(1)
		s.counters.cyclesSimulated.Add(rep.Stats.Cycles)
		return rep, nil
	})
}

// Optimize runs the full pipeline for one configuration, reusing every
// stage the session has already materialized. Identical configurations
// return the same (immutable) Report. Cancelling ctx aborts the run at
// the next stage boundary or simulator/solver poll; a stage computation
// that failed with a cancellation is evicted from its memo, so a retry
// with a live context recomputes instead of replaying the cancellation.
func (s *Session) Optimize(ctx context.Context, opts Options) (*Report, error) {
	key, err := s.resolve(ctx, opts)
	if err != nil {
		return nil, err
	}
	return s.reports.do(&s.counters.optimize, key, func() (*Report, error) {
		return s.optimize(ctx, key)
	})
}

// Verify runs the static half of Optimize for one configuration:
// resolve, solve, transform and layout, then the default analysis suite,
// without simulating. Every stage is the memoized one Optimize uses, so a
// later Optimize of the configuration finds them done. It returns the
// suite's result and the context the suite ran on, so a caller can run
// further passes over the same artifacts. The result is the session's
// memoized one: callers must not modify it. An error diagnostic fails the
// call as a StageAnalysis error, as it fails Optimize.
func (s *Session) Verify(ctx context.Context, opts Options) (*analysis.Context, *analysis.Result, error) {
	key, err := s.resolve(ctx, opts)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.solve(ctx, key.solve)
	if err != nil {
		return nil, nil, err
	}
	tkey := key.transform(res)
	tf, err := s.transformFor(tkey, res.InRAM)
	if err != nil {
		return nil, nil, err
	}
	return &analysis.Context{
		Original: s.prog, Prog: tf.prog, InRAM: res.InRAM,
		Config: s.layout, Image: tf.img, Rspare: tkey.rspare,
	}, tf.ares, nil
}

// optimize assembles one Report from the staged artifacts plus the
// per-configuration tail (transform, optimized run, semantic check) —
// each of which is itself memoized on the placement the solve chose.
// The baseline run reads nothing the solve → model → transform →
// optimized-run chain writes, and the baseline replay nothing the
// optimized replay writes, so the two sides of each pair run side by
// side with the semantics of a serial run (see beside).
func (s *Session) optimize(ctx context.Context, key reportKey) (*Report, error) {
	var (
		base *Measurement
		res  *placement.Result
		mdl  *model.Model
		tf   *transformed
		img  imageKey
		orun *Measurement
	)
	err := beside(func() (err error) {
		base, err = s.Measure(ctx, nil, key.traced, key.maxInstrs)
		return err
	}, func(waitBase func() error) (err error) {
		// A traced configuration's profiled estimate reads the baseline
		// run through run's traced-entry peek, which only a finished
		// traced run satisfies.
		if key.traced && key.solve.model.freq.profiled {
			if err := waitBase(); err != nil {
				return err
			}
		}
		if res, err = s.solve(ctx, key.solve); err != nil {
			return err
		}
		if mdl, err = s.model(ctx, key.solve.model); err != nil {
			return err
		}
		tkey := key.transform(res)
		if tf, err = s.transformFor(tkey, res.InRAM); err != nil {
			return err
		}
		img = tkey.image()
		if img == (imageKey{}) {
			if err := waitBase(); err != nil {
				return err
			}
		}
		orun, err = s.run(ctx, &s.counters.optrun, errs.StageOptRun, runKey{image: img, traced: key.traced, maxInstrs: key.maxInstrs}, tf.image)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Semantic validation: every writable global must hold identical
	// bytes after both runs.
	if err := compareGlobals(s.prog, base.globals, orun.globals); err != nil {
		return nil, errs.Wrap(errs.StageValidate,
			fmt.Errorf("transformation changed program behaviour: %w", err))
	}

	rep := &Report{
		Baseline:       base.Metrics,
		Optimized:      orun.Metrics,
		Placement:      res,
		Model:          mdl,
		Transform:      tf.trep,
		Optimized0:     tf.prog,
		Image:          tf.img,
		Analysis:       tf.ares,
		Strategy:       res.Strategy,
		StrategyReason: res.StrategyReason,
	}
	if key.traced {
		rep.BaselineTrace = base.Trace
		rep.OptimizedTrace = orun.Trace
	}
	if rep.Baseline.EnergyMJ > 0 {
		rep.Ke = rep.Optimized.EnergyMJ / rep.Baseline.EnergyMJ
		rep.EnergyChange = rep.Ke - 1
	}
	if rep.Baseline.TimeS > 0 {
		rep.Kt = rep.Optimized.TimeS / rep.Baseline.TimeS
		rep.TimeChange = rep.Kt - 1
	}
	if rep.Baseline.PowerMW > 0 {
		rep.PowerChange = rep.Optimized.PowerMW/rep.Baseline.PowerMW - 1
	}
	rep.StartupCopyCycles, rep.StartupCopyEnergyMJ = startupCopyCost(tf.img, s.profile)

	// The intermittent tail: replay the same concrete outage schedule
	// against both images. Each replay keys on its image, so aware and
	// oblivious solves that land on different placements measure
	// separately, while identical images — the baseline included — share.
	if is := key.intermittent; is.enabled {
		baseKey := intermitKey{trace: is.trace, ckptCycles: is.ckptCycles, maxInstrs: key.maxInstrs}
		optKey := baseKey
		optKey.image = img
		var baseRep, optRep *sim.IntermittentReport
		err := beside(func() (err error) {
			baseRep, err = s.intermittentRun(ctx, baseKey, base.Image)
			return err
		}, func(waitBase func() error) (err error) {
			if optKey == baseKey {
				if err := waitBase(); err != nil {
					return err
				}
			}
			optRep, err = s.intermittentRun(ctx, optKey, tf.img)
			return err
		})
		if err != nil {
			return nil, err
		}
		rep.Intermittent = &IntermittentComparison{
			Spec:             is.trace,
			Outages:          is.outages,
			CheckpointCycles: is.ckptCycles,
			CkptAware:        is.aware,
			CkptNJPerByte:    key.solve.model.ckptNJPerByte,
			Baseline:         baseRep,
			Optimized:        optRep,
		}
	}
	return rep, nil
}

// beside runs base on a new goroutine and opt on the calling one, and
// reports what a serial run of base then opt would: base's error ahead of
// opt's. opt calls waitBase at the points where it reaches what base
// produces — a shared memo entry must be base's miss and opt's hit, as it
// is serially. A failing side does not cancel the other, because the memo
// would hand that cancellation to every waiter on the other side's key;
// so when base fails, opt still runs until it finishes or fails, and its
// stages stay in the ledger, which a serial run would not have started.
// A panic in base, which no caller's isolation could catch on its own
// goroutine, becomes an *errs.PanicError carrying its stack.
func beside(base func() error, opt func(waitBase func() error) error) error {
	done := make(chan struct{})
	var baseErr error
	go func() {
		defer close(done)
		defer func() {
			if r := recover(); r != nil {
				baseErr = &errs.PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		baseErr = base()
	}()
	waitBase := func() error {
		<-done
		return baseErr
	}
	err := opt(waitBase)
	if err := waitBase(); err != nil {
		return err
	}
	return err
}

// snapshotGlobals captures the final bytes of every writable global so
// later optimized runs can be checked against the baseline without
// retaining the (mutable) machine.
func snapshotGlobals(p *ir.Program, m *sim.Machine) map[string][]byte {
	out := make(map[string][]byte)
	for _, g := range p.Globals {
		if g.RO {
			continue
		}
		if b, err := m.ReadGlobalBytes(g.Name, g.Size); err == nil {
			out[g.Name] = b
		}
	}
	return out
}

func compareGlobals(p *ir.Program, base, opt map[string][]byte) error {
	for _, g := range p.Globals {
		if g.RO {
			continue
		}
		av := base[g.Name]
		bv := opt[g.Name]
		for i := range av {
			if av[i] != bv[i] {
				return fmt.Errorf("global %q differs at byte %d: %#x vs %#x",
					g.Name, i, av[i], bv[i])
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Stage accounting.

// StageStats counts one stage's memo lookups: a miss computes the
// artifact, a hit reuses it.
type StageStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// SessionStats is a snapshot of how much work a Session (or a set of
// sessions, via Add) performed versus reused. `beebsbench -json` emits
// it so the sweep-level saving is observable. It ledgers the pipeline's
// stages only; static energy brackets (`flashram bounds`) are computed
// outside the session.
type SessionStats struct {
	Baseline  StageStats `json:"baseline"`
	CFG       StageStats `json:"cfg"`
	Freq      StageStats `json:"freq"`
	Model     StageStats `json:"model"`
	Solve     StageStats `json:"solve"`
	Transform StageStats `json:"transform"`
	OptRun    StageStats `json:"opt_run"`
	Optimize  StageStats `json:"optimize"`
	// Intermit is the trace-driven replay memo; nil when the stage was
	// never touched, so always-powered documents keep their schema.
	Intermit *StageStats `json:"intermit,omitempty"`
	// SimRuns and CyclesSimulated count actual simulator executions
	// (baseline + optimized, deduplicated by the memo).
	SimRuns         uint64 `json:"sim_runs"`
	CyclesSimulated uint64 `json:"cycles_simulated"`
}

func (st *StageStats) add(o StageStats) {
	st.Hits += o.Hits
	st.Misses += o.Misses
}

// Add accumulates another snapshot (for aggregating across sessions).
func (st *SessionStats) Add(o SessionStats) {
	st.Baseline.add(o.Baseline)
	st.CFG.add(o.CFG)
	st.Freq.add(o.Freq)
	st.Model.add(o.Model)
	st.Solve.add(o.Solve)
	st.Transform.add(o.Transform)
	st.OptRun.add(o.OptRun)
	st.Optimize.add(o.Optimize)
	if o.Intermit != nil {
		// Copy on write: a struct copy of st shares its Intermit pointer,
		// so summing in place would change the copy's source too.
		sum := *o.Intermit
		if st.Intermit != nil {
			sum.add(*st.Intermit)
		}
		st.Intermit = &sum
	}
	st.SimRuns += o.SimRuns
	st.CyclesSimulated += o.CyclesSimulated
}

// SolverStats is the solver-level warm-start ledger, kept beside the
// stage counters of SessionStats. `beebsbench -json` and the daemon's
// /statsz emit it as the solver_stats section.
type SolverStats struct {
	// WarmHits counts ILP solves that consumed carried warm state;
	// WarmMisses those that ran cold (no neighbor, or state rejected).
	WarmHits   uint64 `json:"warm_hits"`
	WarmMisses uint64 `json:"warm_misses"`
	// IncumbentsAccepted counts solves whose starting incumbent came
	// from a neighbor's proven optimum.
	IncumbentsAccepted uint64 `json:"incumbents_accepted"`
	// WarmProofs counts solves closed by the carried bound alone — zero
	// LP relaxations solved.
	WarmProofs uint64 `json:"warm_proofs"`
	// SimplexItersSaved estimates root-relaxation simplex pivots avoided
	// across all warm solves.
	SimplexItersSaved uint64 `json:"simplex_iters_saved"`
	// WarmStateBytes is a gauge, not a counter: the bytes of the solver
	// end states the warm-start registry holds now, each state counted
	// once.
	WarmStateBytes uint64 `json:"warm_state_bytes"`
}

// Add accumulates another snapshot (for aggregating across sessions).
func (st *SolverStats) Add(o SolverStats) {
	st.WarmHits += o.WarmHits
	st.WarmMisses += o.WarmMisses
	st.IncumbentsAccepted += o.IncumbentsAccepted
	st.WarmProofs += o.WarmProofs
	st.SimplexItersSaved += o.SimplexItersSaved
	st.WarmStateBytes += o.WarmStateBytes
}

// SolverStats snapshots the session's warm-start solver counters.
func (s *Session) SolverStats() SolverStats {
	return SolverStats{
		WarmHits:           s.counters.warmHits.Load(),
		WarmMisses:         s.counters.warmMisses.Load(),
		IncumbentsAccepted: s.counters.warmIncumbents.Load(),
		WarmProofs:         s.counters.warmProofs.Load(),
		SimplexItersSaved:  s.counters.simplexItersSaved.Load(),
		WarmStateBytes:     uint64(s.warmStateBytes()),
	}
}

// warmStateBytes reads the warm registry's byte gauge.
func (s *Session) warmStateBytes() int {
	s.warmIdx.mu.Lock()
	defer s.warmIdx.mu.Unlock()
	return s.warmIdx.bytes
}

type stageCounter struct {
	hits, misses atomic.Uint64
}

// hit and miss count a memo lookup; a nil counter keeps a stage off
// the ledger.
func (c *stageCounter) hit() {
	if c != nil {
		c.hits.Add(1)
	}
}

func (c *stageCounter) miss() {
	if c != nil {
		c.misses.Add(1)
	}
}

func (c *stageCounter) snapshot() StageStats {
	return StageStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

type sessionCounters struct {
	baseline, cfg, freq, model, solve, transform, optrun, optimize, intermit stageCounter

	simRuns, cyclesSimulated atomic.Uint64

	warmHits, warmMisses, warmIncumbents atomic.Uint64
	warmProofs, simplexItersSaved        atomic.Uint64
}

// Stats snapshots the session's stage hit/miss counters.
func (s *Session) Stats() SessionStats {
	st := SessionStats{
		Baseline:        s.counters.baseline.snapshot(),
		CFG:             s.counters.cfg.snapshot(),
		Freq:            s.counters.freq.snapshot(),
		Model:           s.counters.model.snapshot(),
		Solve:           s.counters.solve.snapshot(),
		Transform:       s.counters.transform.snapshot(),
		OptRun:          s.counters.optrun.snapshot(),
		Optimize:        s.counters.optimize.snapshot(),
		SimRuns:         s.counters.simRuns.Load(),
		CyclesSimulated: s.counters.cyclesSimulated.Load(),
	}
	if in := s.counters.intermit.snapshot(); in != (StageStats{}) {
		st.Intermit = &in
	}
	return st
}

// ---------------------------------------------------------------------
// Concurrency-safe per-key memoization. First caller computes, everyone
// else blocks on that computation and shares the (immutable) result.

type memoEntry[V any] struct {
	once sync.Once
	done atomic.Bool
	val  V
	err  error
}

type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

func (c *memo[K, V]) do(st *stageCounter, k K, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*memoEntry[V])
	}
	e := c.m[k]
	if e == nil {
		e = new(memoEntry[V])
		c.m[k] = e
		st.miss()
	} else {
		st.hit()
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.val, e.err = fn()
		e.done.Store(true)
	})
	// A computation that died of cancellation says nothing about the
	// artifact — evict it so a later caller with a live context retries
	// instead of replaying the stale cancellation forever.
	if e.err != nil && errs.IsCancellation(e.err) {
		c.mu.Lock()
		if c.m[k] == e {
			delete(c.m, k)
		}
		c.mu.Unlock()
	}
	return e.val, e.err
}

// peek returns a key's value only if its computation already finished
// successfully — it never blocks on an in-flight computation.
func (c *memo[K, V]) peek(k K) (V, bool) {
	c.mu.Lock()
	e := c.m[k]
	c.mu.Unlock()
	if e == nil || !e.done.Load() || e.err != nil {
		var zero V
		return zero, false
	}
	return e.val, true
}
