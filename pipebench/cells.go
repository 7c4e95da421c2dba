package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/beebs"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/freq"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/mcc"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/sim"
)

// cell is one BEEBS benchmark at one of the paper's two levels.
type cell struct {
	bench *beebs.Benchmark
	level mcc.OptLevel
}

func (c cell) String() string { return c.bench.Name + "/" + c.level.String() }

// paperCells is the paper's 20-cell matrix: every BEEBS benchmark at O2
// and Os.
func paperCells() []cell {
	var out []cell
	for _, b := range beebs.All() {
		out = append(out, cell{b, mcc.O2}, cell{b, mcc.Os})
	}
	return out
}

// bag draws n indices into k items as rounds of seeded permutations, so
// every item is visited equally often when k divides n.
func bag(rng *rand.Rand, k, n int) []int {
	out := make([]int, 0, n+k)
	for len(out) < n {
		out = append(out, rng.Perm(k)...)
	}
	return out[:n]
}

// opCount converts the nominal measured seconds into a fixed operation
// count: seconds × the workload's nominal rate on a 2-core x86 host,
// rounded up to whole rounds of its item set, and never so few that the
// median lacks minBeyond operations above it.
func opCount(seconds int, rate float64, round int) int {
	n := int(math.Ceil(float64(seconds) * rate / float64(round)))
	return max(n, (2*minBeyond+round-1)/round) * round
}

// ratios is one cell's optimized/baseline triple.
type ratios struct{ energy, time, work float64 }

// geomeans folds per-cell ratios in sorted key order, so the result is
// bit-identical whatever order the cells were visited in.
func geomeans(byKey map[string]ratios) (energy, time, work float64) {
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var le, lt, lw float64
	for _, k := range keys {
		r := byKey[k]
		le += math.Log(r.energy)
		lt += math.Log(r.time)
		lw += math.Log(r.work)
	}
	n := float64(len(keys))
	return math.Exp(le / n), math.Exp(lt / n), math.Exp(lw / n)
}

// reportRatios is an always-powered report's triple. Useful work per
// delivered mJ is executed instructions per run energy, as
// sim.IntermittentReport.WorkPerMJ counts it when nothing is replayed.
func reportRatios(rep *core.Report) ratios {
	return ratios{
		energy: rep.Ke,
		time:   rep.Kt,
		work: (float64(rep.Optimized.Instructions) / rep.Optimized.EnergyMJ) /
			(float64(rep.Baseline.Instructions) / rep.Baseline.EnergyMJ),
	}
}

// openSession wraps a compiled program in a fresh session and derives its
// default RAM budget.
func openSession(o *opTrace, prog *ir.Program, sc core.SessionConfig) (*core.Session, float64, error) {
	var sess *core.Session
	var spare float64
	err := o.span("core.session", func() error {
		var err error
		if sess, err = core.NewSession(prog, sc); err != nil {
			return err
		}
		spare, err = sess.SpareRAM()
		return err
	})
	return sess, spare, err
}

// stagedOptimize runs the default pipeline through the session's stage
// methods, one span per layer, and then Optimize. Each stage call fills
// exactly the memo slot Optimize resolves to, so the work is that of a
// bare sess.Optimize(ctx, core.Options{}), and the Optimize span (core.tail)
// is what is left: transform, layout, analysis, the optimized run and the
// globals check.
func stagedOptimize(ctx context.Context, o *opTrace, sess *core.Session, spare float64) (*core.Report, *placement.Result, error) {
	if _, err := call(o, "cfg.graphs", func() (map[string]*cfg.Graph, error) { return sess.Graphs() }); err != nil {
		return nil, nil, err
	}
	if _, err := call(o, "freq.estimate", func() (freq.Estimate, error) { return sess.Frequencies(ctx, false, 0) }); err != nil {
		return nil, nil, err
	}
	if _, err := call(o, "sim.baseline", func() (*core.Measurement, error) { return sess.Baseline(ctx) }); err != nil {
		return nil, nil, err
	}
	spec := core.ModelSpec{Rspare: spare}
	if _, err := call(o, "model.build", func() (*model.Model, error) { return sess.Model(ctx, spec) }); err != nil {
		return nil, nil, err
	}
	res, err := call(o, "placement.solve", func() (*placement.Result, error) {
		return sess.Solve(ctx, core.SolveSpec{ModelSpec: spec})
	})
	if err != nil {
		return nil, nil, err
	}
	rep, err := call(o, "core.tail", func() (*core.Report, error) { return sess.Optimize(ctx, core.Options{}) })
	return rep, res, err
}

// resultWords reads a benchmark's result global from a finished machine.
func resultWords(m *sim.Machine, b *beebs.Benchmark) ([]uint32, error) {
	base, ok := m.Img.Symbols["result"]
	if !ok {
		return nil, fmt.Errorf("image has no result global")
	}
	words := make([]uint32, b.ResultWords)
	for i := range words {
		w, err := m.ReadWord(base + uint32(4*i))
		if err != nil {
			return nil, err
		}
		words[i] = w
	}
	return words, nil
}

// checkImage runs a placed image in a fresh machine and checks its result
// words against the BEEBS Go reference, which is independent of the
// compiler and the placement under test.
func checkImage(o *opTrace, b *beebs.Benchmark, img *layout.Image) error {
	return o.span("check.sim", func() error {
		m := sim.New(img, power.STM32F100())
		if _, err := m.Run(); err != nil {
			return err
		}
		words, err := resultWords(m, b)
		if err != nil {
			return err
		}
		return b.Validate(words)
	})
}

// tally accumulates the per-layer counters of a single-client pass.
// simInstrs counts the instructions simulated inside the spans named in
// simSpans, which sim.instrs_per_s divides by their time.
type tally struct {
	ops                  int
	modelBuilds, simRuns uint64
	nodes                uint64
	memoHits, memoMisses uint64
	solver               core.SolverStats
	simInstrs, replayed  uint64
	simSpans             []string
}

func (t *tally) addSession(sess *core.Session) {
	st := sess.Stats()
	t.ops++
	t.modelBuilds += st.Model.Misses
	t.simRuns += st.SimRuns
	tot := st.Totals()
	t.memoHits += tot.Hits
	t.memoMisses += tot.Misses
	t.solver.Add(sess.SolverStats())
}

func (t *tally) layers(spans *spanTotals) map[string]float64 {
	n := float64(t.ops)
	if n == 0 {
		n = 1
	}
	m := map[string]float64{
		"model.builds":                  float64(t.modelBuilds) / n,
		"placement.bb_nodes":            float64(t.nodes) / n,
		"placement.warm_proofs":         float64(t.solver.WarmProofs) / n,
		"placement.simplex_iters_saved": float64(t.solver.SimplexItersSaved) / n,
		"placement.warm_hit_ratio":      ratio(t.solver.WarmHits, t.solver.WarmMisses),
		"sim.runs":                      float64(t.simRuns) / n,
		"sim.replayed_instrs":           float64(t.replayed) / n,
		"core.memo_hit_ratio":           ratio(t.memoHits, t.memoMisses),
	}
	var simS float64
	for _, name := range t.simSpans {
		simS += spans.self[name].Seconds()
	}
	if simS > 0 {
		m["sim.instrs_per_s"] = float64(t.simInstrs) / simS
	}
	return m
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// ---------------------------------------------------------------------
// cold-cells: what `flashram -bench X` does, once per operation.

const coldRate = 40 // nominal cold cells per second

type coldCells struct {
	cells []cell
	seq   []cell
	ref   map[string]ratios
	tally tally
}

func newColdCells(seed int64, seconds int) workload {
	cells := paperCells()
	rng := rand.New(rand.NewSource(seed))
	idx := bag(rng, len(cells), opCount(seconds, coldRate, len(cells)))
	// The optimized run sits inside core.tail with transform and analysis,
	// so the simulator rate times it in the check's fresh machine instead.
	w := &coldCells{cells: cells, seq: make([]cell, len(idx)),
		tally: tally{simSpans: []string{"sim.baseline", "check.sim"}}}
	for i, k := range idx {
		w.seq[i] = cells[k]
	}
	return w
}

func (w *coldCells) describe() string {
	return "closed loop, 1 client: compile + default pipeline in a fresh session"
}
func (w *coldCells) clients() int { return 1 }
func (w *coldCells) ops() int     { return len(w.seq) }
func (w *coldCells) round() int   { return len(w.cells) }
func (w *coldCells) close()       {}

// setUp warms every cell up once; its ratios are the references each
// timed visit must reproduce bit for bit.
func (w *coldCells) setUp(ctx context.Context) error {
	w.ref = map[string]ratios{}
	for _, c := range w.cells {
		out, err := runCold(ctx, c, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
		w.ref[c.String()] = reportRatios(out.rep)
	}
	return nil
}

type coldOut struct {
	cell cell
	sess *core.Session
	rep  *core.Report
	res  *placement.Result
}

func runCold(ctx context.Context, c cell, o *opTrace) (*coldOut, error) {
	o.label(c.String())
	prog, err := call(o, "mcc.compile", func() (*ir.Program, error) { return mcc.Compile(c.bench.Source, c.level) })
	if err != nil {
		return nil, err
	}
	sess, spare, err := openSession(o, prog, core.SessionConfig{})
	if err != nil {
		return nil, err
	}
	rep, res, err := stagedOptimize(ctx, o, sess, spare)
	if err != nil {
		return nil, err
	}
	return &coldOut{cell: c, sess: sess, rep: rep, res: res}, nil
}

func (w *coldCells) do(ctx context.Context, i int, o *opTrace) (any, error) {
	return runCold(ctx, w.seq[i], o)
}

func (w *coldCells) check(ctx context.Context, i int, v any, o *opTrace) error {
	out := v.(*coldOut)
	if err := checkImage(o, out.cell.bench, out.rep.Image); err != nil {
		return err
	}
	if got, want := reportRatios(out.rep), w.ref[out.cell.String()]; got != want {
		return fmt.Errorf("%s: ratios %+v, warm-up had %+v", out.cell, got, want)
	}
	w.tally.addSession(out.sess)
	w.tally.nodes += uint64(out.res.Nodes)
	w.tally.simInstrs += out.rep.Baseline.Instructions + out.rep.Optimized.Instructions
	return nil
}

func (w *coldCells) finish(context.Context) ([]int, error) { return nil, nil }

func (w *coldCells) ratios() (float64, float64, float64) { return geomeans(w.ref) }

func (w *coldCells) layers(spans *spanTotals) map[string]float64 {
	return w.tally.layers(spans)
}

// ---------------------------------------------------------------------
// intermittent-replay: one cell under one harvest profile per operation,
// checkpoint-oblivious and then checkpoint-aware.

const intermitRate = 16 // nominal replays per second

// The pairs cross the kernels in which the simulator is the largest layer
// of an operation with the harvest profile whose outages force the most
// re-execution. In the other benchmarks the two solves (plain and aware)
// outweigh the replays, and under the steady and bursty profiles they do
// in most kernels too.
var (
	intermitBenches  = []string{"crc32", "cubic", "float_matmult", "int_matmult"}
	intermitProfiles = []string{sim.ProfileAdversarial}
)

type replayPair struct {
	cell    cell
	profile string
}

func (p replayPair) String() string { return p.cell.String() + "/" + p.profile }

type intermittentReplay struct {
	pairs []replayPair
	seq   []replayPair
	progs map[string]*ir.Program
	ref   map[string]ratios
	tally tally
}

func newIntermittentReplay(seed int64, seconds int) workload {
	var pairs []replayPair
	for _, name := range intermitBenches {
		b := beebs.Get(name)
		for _, level := range []mcc.OptLevel{mcc.O2, mcc.Os} {
			for _, p := range intermitProfiles {
				pairs = append(pairs, replayPair{cell{b, level}, p})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	idx := bag(rng, len(pairs), opCount(seconds, intermitRate, len(pairs)))
	w := &intermittentReplay{pairs: pairs, seq: make([]replayPair, len(idx)),
		tally: tally{simSpans: []string{"sim.baseline", "sim.replay"}}}
	for i, k := range idx {
		w.seq[i] = pairs[k]
	}
	return w
}

func (w *intermittentReplay) describe() string {
	return "closed loop, 1 client: plain, oblivious and aware replay in a fresh warm session"
}
func (w *intermittentReplay) clients() int { return 1 }
func (w *intermittentReplay) ops() int     { return len(w.seq) }
func (w *intermittentReplay) round() int   { return len(w.pairs) }
func (w *intermittentReplay) close()       {}

// setUp compiles every cell once (the operations start from the compiled
// program) and warms every pair up; the warm-up ratios are the references
// each timed visit must reproduce bit for bit.
func (w *intermittentReplay) setUp(ctx context.Context) error {
	w.progs = map[string]*ir.Program{}
	for _, p := range w.pairs {
		c := p.cell
		if w.progs[c.String()] != nil {
			continue
		}
		prog, err := mcc.Compile(c.bench.Source, c.level)
		if err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
		w.progs[c.String()] = prog
	}
	w.ref = map[string]ratios{}
	for _, p := range w.pairs {
		out, err := w.replay(ctx, p, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		w.ref[p.String()] = out.ratios()
	}
	return nil
}

// ratios compare images with the all-flash baseline under the same outage
// schedule: the paper's (checkpoint-oblivious) placement for delivered
// energy and time to completion, and the checkpoint-aware placement for
// useful work per delivered mJ. On these kernels the aware solve keeps
// everything in flash under adversarial outages, so the work ratio reads
// 1 until the checkpoint model changes.
func (out *replayOut) ratios() ratios {
	o, a := out.obl.Intermittent, out.aware.Intermittent
	return ratios{
		energy: o.Optimized.TotalEnergyNJ() / o.Baseline.TotalEnergyNJ(),
		time:   float64(o.Optimized.WallCycles) / float64(o.Baseline.WallCycles),
		work:   a.Optimized.WorkPerMJ() / a.Baseline.WorkPerMJ(),
	}
}

type replayOut struct {
	pair              replayPair
	sess              *core.Session
	plain, obl, aware *core.Report
	nodes             int
}

func (w *intermittentReplay) replay(ctx context.Context, p replayPair, o *opTrace) (*replayOut, error) {
	o.label(p.String())
	sess, spare, err := openSession(o, w.progs[p.cell.String()], core.SessionConfig{WarmSolve: true})
	if err != nil {
		return nil, err
	}
	plain, res, err := stagedOptimize(ctx, o, sess, spare)
	if err != nil {
		return nil, err
	}
	// Solve and transform are memoized by now, so this Optimize is the
	// two trace-driven runs: the baseline and the oblivious image.
	obl, err := call(o, "sim.replay", func() (*core.Report, error) {
		return sess.Optimize(ctx, core.Options{PowerTrace: p.profile})
	})
	if err != nil {
		return nil, err
	}
	// The aware solve sees the checkpoint term core prices from the
	// baseline run and the schedule; building its model and solve here
	// keeps them out of the aware Optimize span.
	spec := core.ModelSpec{Rspare: spare}
	if _, err := call(o, "model.build", func() (*model.Model, error) {
		ckpt, err := checkpointTerm(sess.Profile(), plain.Baseline.Cycles, p.profile)
		spec.CkptNJPerByte = ckpt
		if err != nil {
			return nil, err
		}
		return sess.Model(ctx, spec)
	}); err != nil {
		return nil, err
	}
	ares, err := call(o, "placement.solve", func() (*placement.Result, error) {
		return sess.Solve(ctx, core.SolveSpec{ModelSpec: spec})
	})
	if err != nil {
		return nil, err
	}
	aware, err := call(o, "core.aware_tail", func() (*core.Report, error) {
		return sess.Optimize(ctx, core.Options{PowerTrace: p.profile, CkptAware: true})
	})
	if err != nil {
		return nil, err
	}
	return &replayOut{pair: p, sess: sess, plain: plain, obl: obl, aware: aware, nodes: res.Nodes + ares.Nodes}, nil
}

// checkpointTerm is the per-byte journal price a checkpoint-aware solve
// sees: every expected periodic checkpoint and every outage of the
// profile's schedule, generated against the baseline cycle count.
func checkpointTerm(prof *power.Profile, baseCycles uint64, profile string) (float64, error) {
	tr, err := sim.ResolveTrace(profile, baseCycles)
	if err != nil {
		return 0, err
	}
	perCkpt, perRestore := sim.CheckpointCostPerByteNJ(prof)
	return float64(baseCycles/sim.DefaultCheckpointCycles)*perCkpt + float64(len(tr.Outages))*perRestore, nil
}

func (w *intermittentReplay) do(ctx context.Context, i int, o *opTrace) (any, error) {
	return w.replay(ctx, w.seq[i], o)
}

// check replays the baseline, oblivious and aware images in fresh machines
// under the same schedule: each must reproduce its report's replay exactly
// and finish with the BEEBS reference results.
func (w *intermittentReplay) check(ctx context.Context, i int, v any, o *opTrace) error {
	out := v.(*replayOut)
	b := out.pair.cell.bench
	base, err := layout.New(w.progs[out.pair.cell.String()], layout.DefaultConfig(), nil)
	if err != nil {
		return err
	}
	ic := out.aware.Intermittent
	if ic == nil || out.obl.Intermittent == nil {
		return fmt.Errorf("report carries no intermittent comparison")
	}
	for _, r := range []struct {
		img  *layout.Image
		want *sim.IntermittentReport
	}{
		{base, ic.Baseline},
		{out.obl.Image, out.obl.Intermittent.Optimized},
		{out.aware.Image, ic.Optimized},
	} {
		if err := checkReplay(ctx, o, b, r.img, ic, r.want); err != nil {
			return err
		}
	}
	if got, want := out.ratios(), w.ref[out.pair.String()]; got != want {
		return fmt.Errorf("%s: ratios %+v, warm-up had %+v", out.pair, got, want)
	}
	w.tally.addSession(out.sess)
	w.tally.nodes += uint64(out.nodes)
	oc := out.obl.Intermittent
	w.tally.simInstrs += out.plain.Baseline.Instructions + oc.Baseline.Stats.Instructions + oc.Optimized.Stats.Instructions
	for _, c := range []*core.IntermittentComparison{out.obl.Intermittent, ic} {
		w.tally.replayed += c.Baseline.ReplayedInstrs + c.Optimized.ReplayedInstrs
	}
	return nil
}

// checkReplay replays img in a fresh machine under the comparison's
// schedule and compares the outcome with the report's.
func checkReplay(ctx context.Context, o *opTrace, b *beebs.Benchmark, img *layout.Image, ic *core.IntermittentComparison, want *sim.IntermittentReport) error {
	return o.span("check.replay", func() error {
		tr, err := sim.ParsePowerTrace([]byte(ic.Spec))
		if err != nil {
			return err
		}
		m := sim.New(img, power.STM32F100())
		got, err := m.RunIntermittent(ctx, sim.IntermittentConfig{Trace: tr, CheckpointCycles: ic.CheckpointCycles})
		if err != nil {
			return err
		}
		if got.Stats.Instructions != want.Stats.Instructions || got.ReplayedInstrs != want.ReplayedInstrs ||
			got.Outages != want.Outages || got.WallCycles != want.WallCycles || got.TotalEnergyNJ() != want.TotalEnergyNJ() {
			return fmt.Errorf("fresh replay differs from the report's")
		}
		words, err := resultWords(m, b)
		if err != nil {
			return err
		}
		return b.Validate(words)
	})
}

func (w *intermittentReplay) finish(context.Context) ([]int, error) { return nil, nil }

func (w *intermittentReplay) ratios() (float64, float64, float64) { return geomeans(w.ref) }

func (w *intermittentReplay) layers(spans *spanTotals) map[string]float64 {
	return w.tally.layers(spans)
}
