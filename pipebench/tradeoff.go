package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"

	"repro/internal/beebs"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/evaluation"
	"repro/internal/freq"
	"repro/internal/ir"
	"repro/internal/mcc"
	"repro/internal/model"
	"repro/internal/placement"
)

// tradeoff-sweep: one Figure 6 sweep per operation in a fresh warm
// session — the 2^k cloud plus 24 ILP solves along the RAM and Xlimit
// paths, loosest constraint first, as evaluation.Figure6 orders them.

const tradeoffRate = 30 // nominal sweeps per second

// The Figure 6 constraint paths and cloud size, as cmd/tradeoff uses them.
var (
	ramSweep    = []float64{0, 16, 32, 64, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 4096}
	xlimitSweep = []float64{1.0, 1.01, 1.02, 1.05, 1.1, 1.15, 1.2, 1.3, 1.5, 2.0}
)

const figure6K = 8

type tradeoffSweep struct {
	benches []*beebs.Benchmark
	seq     []*beebs.Benchmark
	progs   map[string]*ir.Program
	ref     map[string]*evaluation.Figure6Data
	tally   tally
}

// tradeoffBenches are the benchmarks the sweeps rotate over: every BEEBS
// benchmark but cubic, whose time goes to soft-float library code the
// optimizer cannot place, so its whole 2^8 cloud spans a 7% energy band.
// An odd count also keeps the median sweep inside one benchmark's class
// rather than at the gap between two.
func tradeoffBenches() []*beebs.Benchmark {
	var out []*beebs.Benchmark
	for _, b := range beebs.All() {
		if b.Name != "cubic" {
			out = append(out, b)
		}
	}
	return out
}

func newTradeoffSweep(seed int64, seconds int) workload {
	benches := tradeoffBenches()
	rng := rand.New(rand.NewSource(seed))
	idx := bag(rng, len(benches), opCount(seconds, tradeoffRate, len(benches)))
	w := &tradeoffSweep{benches: benches, seq: make([]*beebs.Benchmark, len(idx))}
	for i, k := range idx {
		w.seq[i] = benches[k]
	}
	return w
}

func (w *tradeoffSweep) describe() string {
	return "closed loop, 1 client: Figure 6 cloud + 24 warm ILP solves in a fresh session"
}
func (w *tradeoffSweep) clients() int { return 1 }
func (w *tradeoffSweep) ops() int     { return len(w.seq) }
func (w *tradeoffSweep) round() int   { return len(w.benches) }
func (w *tradeoffSweep) close()       {}

// setUp compiles every benchmark at O2 (the operations start from the
// compiled program) and runs each one's first sweep through
// evaluation.Sweep.Figure6; every timed sweep must reproduce it exactly.
func (w *tradeoffSweep) setUp(ctx context.Context) error {
	w.progs = map[string]*ir.Program{}
	w.ref = map[string]*evaluation.Figure6Data{}
	for _, b := range w.benches {
		prog, err := mcc.Compile(b.Source, mcc.O2)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		w.progs[b.Name] = prog
		data, err := evaluation.NewSweep(1).Figure6(ctx, b.Name, mcc.O2, figure6K, ramSweep, xlimitSweep)
		if err != nil {
			return err
		}
		w.ref[b.Name] = data
	}
	return nil
}

type sweepOut struct {
	data  *evaluation.Figure6Data
	sess  *core.Session
	nodes int
}

func (w *tradeoffSweep) do(ctx context.Context, i int, o *opTrace) (any, error) {
	b := w.seq[i]
	o.label(b.Name)
	sess, spare, err := openSession(o, w.progs[b.Name], core.SessionConfig{WarmSolve: true})
	if err != nil {
		return nil, err
	}
	if _, err := call(o, "cfg.graphs", func() (map[string]*cfg.Graph, error) { return sess.Graphs() }); err != nil {
		return nil, err
	}
	if _, err := call(o, "freq.estimate", func() (freq.Estimate, error) { return sess.Frequencies(ctx, false, 0) }); err != nil {
		return nil, err
	}
	spec := func(rspare, xlimit float64) core.ModelSpec {
		return core.ModelSpec{Rspare: rspare, Xlimit: xlimit, MaxCandidates: figure6K}
	}
	free, err := call(o, "model.build", func() (*model.Model, error) { return sess.Model(ctx, spec(spare, 1e9)) })
	if err != nil {
		return nil, err
	}
	out := &sweepOut{sess: sess, data: &evaluation.Figure6Data{Bench: b.Name, BaseEnergyNJ: free.BaseEnergyNJ, BaseCycles: free.BaseCycles}}
	var blocks []*model.BlockData
	if err := o.span("placement.enumerate", func() error {
		var err error
		out.data.Points, blocks, err = placement.Enumerate(free, figure6K)
		return err
	}); err != nil {
		return nil, err
	}
	for _, bd := range blocks {
		out.data.Blocks = append(out.data.Blocks, bd.Block.Label)
	}
	solvePath := func(sweep []float64, mk func(v float64) core.ModelSpec) ([]evaluation.PathPoint, error) {
		order := make([]int, len(sweep))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return sweep[order[a]] > sweep[order[b]] })
		pts := make([]evaluation.PathPoint, len(sweep))
		for _, i := range order {
			s := mk(sweep[i])
			if _, err := call(o, "model.build", func() (*model.Model, error) { return sess.Model(ctx, s) }); err != nil {
				return nil, err
			}
			res, err := call(o, "placement.solve", func() (*placement.Result, error) {
				return sess.Solve(ctx, core.SolveSpec{ModelSpec: s, Solver: core.SolverILP})
			})
			if err != nil {
				return nil, err
			}
			out.nodes += res.Nodes
			pts[i] = evaluation.PathPoint{Constraint: sweep[i], EnergyNJ: res.Outcome.EnergyNJ, Cycles: res.Outcome.Cycles, RAMBytes: res.Outcome.RAMBytes}
		}
		return pts, nil
	}
	if out.data.RAMPath, err = solvePath(ramSweep, func(rs float64) core.ModelSpec { return spec(rs, 1e9) }); err != nil {
		return nil, err
	}
	if out.data.TimePath, err = solvePath(xlimitSweep, func(xl float64) core.ModelSpec { return spec(spare, xl) }); err != nil {
		return nil, err
	}
	return out, nil
}

func (w *tradeoffSweep) check(_ context.Context, _ int, v any, _ *opTrace) error {
	out := v.(*sweepOut)
	if !reflect.DeepEqual(out.data, w.ref[out.data.Bench]) {
		return fmt.Errorf("%s: sweep differs from the run's first sweep", out.data.Bench)
	}
	w.tally.addSession(out.sess)
	w.tally.nodes += uint64(out.nodes)
	return nil
}

func (w *tradeoffSweep) finish(context.Context) ([]int, error) { return nil, nil }

// ratios are model predictions along every solved path point: energy and
// cycles over the all-flash point. The transformed program computes the
// same result, so useful work per mJ is the inverse energy ratio.
func (w *tradeoffSweep) ratios() (float64, float64, float64) {
	byKey := map[string]ratios{}
	for name, d := range w.ref {
		for k, path := range [][]evaluation.PathPoint{d.RAMPath, d.TimePath} {
			for i, p := range path {
				e := p.EnergyNJ / d.BaseEnergyNJ
				byKey[fmt.Sprintf("%s/%d/%02d", name, k, i)] = ratios{energy: e, time: p.Cycles / d.BaseCycles, work: 1 / e}
			}
		}
	}
	return geomeans(byKey)
}

func (w *tradeoffSweep) layers(spans *spanTotals) map[string]float64 {
	return w.tally.layers(spans)
}
