// Command pipebench is the repository's end-to-end benchmark. It drives the
// placement pipeline through its public entry points (mcc.Compile,
// core.NewSession and the Session stage methods, evaluation.Sweep, and the
// service.New handler over loopback) on one of four workloads. Every run is
// a fixed, seeded sequence of operations, so two runs with the same seed
// do the same work; every operation's output is checked outside the timed
// region.
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the same sequence untraced and then traced, and prints the per-layer
// metrics derived from spans recorded around each call into a layer. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
//
//	bash pipebench/run.sh --workload cold-cells --seed 1 --seconds 10 --trace 0
//	bash pipebench/run.sh --workload all --steady 10
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setUpReps is how many times a run builds its workload from scratch;
// setup_s is the median, and the last build serves the timed pass.
const setUpReps = 5

// A workload is one fixed, seeded sequence of operations over the
// pipeline. setUp builds everything the operations need outside the timed
// region: inputs, references and warm state. do runs operation i and is
// the only timed call. check verifies operation i's output right after it,
// untimed; finish runs the checks that need the whole pass and returns the
// operations that failed them.
type workload interface {
	describe() string
	clients() int
	ops() int
	// round is the length of the sequence's equal-work rounds: each round
	// visits every cell (or request class) equally often.
	round() int
	setUp(ctx context.Context) error
	do(ctx context.Context, i int, o *opTrace) (any, error)
	check(ctx context.Context, i int, out any, o *opTrace) error
	finish(ctx context.Context) ([]int, error)
	// ratios are the deterministic geomeans over the workload's cells:
	// optimized/baseline energy, time, and useful work per delivered mJ.
	ratios() (energy, time, work float64)
	// layers returns the workload's per-layer counters for a traced pass.
	layers(spans *spanTotals) map[string]float64
	close()
}

// workloads maps each workload name to its constructor, in report order.
var workloads = []struct {
	name string
	make func(seed int64, seconds int) workload
}{
	{"cold-cells", newColdCells},
	{"tradeoff-sweep", newTradeoffSweep},
	{"intermittent-replay", newIntermittentReplay},
	{"daemon-warm", newDaemonWarm},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed for the operation sequence")
		seconds = flag.Int("seconds", 10, "nominal measured seconds; fixes the operation count")
		traced  = flag.Int("trace", 0, "1 = untraced and traced pass, per-layer metrics")
		steady  = flag.Int("steady", 0, "run each workload this many times (seeds seed, seed+1, ...) in child processes and check the spread against BENCHMARK.json")
	)
	flag.Parse()
	ctx := context.Background()

	if *name == "all" || *steady > 0 {
		runs := *steady
		if runs < 1 {
			runs = 1
		}
		if err := steadiness(ctx, *name, *seed, *seconds, runs); err != nil {
			fmt.Fprintln(os.Stderr, "pipebench:", err)
			os.Exit(1)
		}
		return
	}
	mk := lookup(*name)
	if mk == nil {
		fmt.Fprintf(os.Stderr, "pipebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "pipebench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := runWorkload(ctx, *name, mk, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func lookup(name string) func(int64, int) workload {
	for _, w := range workloads {
		if w.name == name {
			return w.make
		}
	}
	return nil
}

// pass is one timed execution of a workload's operation sequence.
type pass struct {
	lat    []time.Duration
	rounds []float64 // operations per timed second, by round
	failed int
	allocs uint64 // heap bytes allocated by the operations
	// peakRSSMB is the resident-set peak over the pass and its checks.
	peakRSSMB float64
}

// opsPerS is the median over the pass's equal-work rounds of each round's
// operations per timed second, which keeps a burst of host noise inside
// one round from moving the run's figure.
func (p *pass) opsPerS() float64 { return median(p.rounds) }

// setUp builds the workload setUpReps times and returns the last build
// with the median set-up time.
func setUp(ctx context.Context, mk func(int64, int) workload, seed int64, seconds int) (workload, float64, error) {
	var times []float64
	var w workload
	for r := 0; r < setUpReps; r++ {
		if w != nil {
			w.close()
		}
		w = mk(seed, seconds)
		start := time.Now()
		if err := w.setUp(ctx); err != nil {
			w.close()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return w, median(times), nil
}

func runWorkload(ctx context.Context, name string, mk func(int64, int) workload, seed int64, seconds int, traced bool) (*result, error) {
	w, setupS, err := setUp(ctx, mk, seed, seconds)
	if err != nil {
		return nil, err
	}
	plain, err := runPass(ctx, w, nil)
	w.close()
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s, seed %d: %d ops, %s\n", name, seed, len(plain.lat), w.describe())
	res := &result{Attempted: len(plain.lat), Failed: plain.failed, Metrics: map[string]metricValue{}}
	put := func(name, unit string, v float64) {
		res.Metrics[name] = metricValue{Value: v, Unit: unit}
		fmt.Printf("  %-28s %14.6g %s\n", name, v, unit)
	}
	if !traced {
		ms := make([]float64, len(plain.lat))
		for i, d := range plain.lat {
			ms[i] = float64(d) / 1e6
		}
		tail, err := tailPercentile(ms)
		if err != nil {
			return nil, err
		}
		energy, timeR, work := w.ratios()
		put("setup_s", "s", setupS)
		put("ops_per_s", "1/s", plain.opsPerS())
		fmt.Printf("  %-28s median over %d rounds of %d ops\n", "", len(plain.lat)/w.round(), w.round())
		put("p50_ms", "ms", median(ms))
		fmt.Printf("  %-28s p50 over %d ops\n", "", len(ms))
		put("tail_ms", "ms", tail.value)
		fmt.Printf("  %-28s %s\n", "", tail)
		put("energy_ratio_geomean", "ratio", energy)
		put("time_ratio_geomean", "ratio", timeR)
		put("work_per_mj_ratio_geomean", "ratio", work)
		put("peak_rss_mb", "MB", plain.peakRSSMB)
		put("alloc_mb_per_op", "MB", float64(plain.allocs)/float64(len(plain.lat))/(1<<20))
		res.Correct = res.Failed == 0
		return res, nil
	}

	// The traced pass runs on a fresh build of the same workload, so it
	// repeats exactly the operations the untraced pass timed.
	w, _, err = setUp(ctx, mk, seed, seconds)
	if err != nil {
		return nil, err
	}
	defer w.close()
	tr := newTracer()
	tp, err := runPass(ctx, w, tr)
	if err != nil {
		return nil, err
	}
	res.Attempted += len(tp.lat)
	res.Failed += tp.failed
	totals := tr.totals()
	layers := w.layers(totals)
	layers["trace.overhead_pct"] = 100 * (plain.opsPerS() - tp.opsPerS()) / plain.opsPerS()
	for _, m := range perLayerMetrics {
		v, ok := layers[m.name]
		if !ok && m.unit == "ms" {
			v = totals.perOp(m.name)
		}
		put(m.name, m.unit, v)
	}
	totals.printShares(os.Stdout)
	path, err := tr.write(name, seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("  %d spans written to %s\n", len(tr.spans), path)
	res.Correct = res.Failed == 0
	return res, nil
}

// perLayerMetrics is the --trace 1 metric set. A _ms metric a workload
// does not override is the span's self time per operation.
var perLayerMetrics = []struct{ name, unit string }{
	{"mcc.compile_ms", "ms"},
	{"core.session_ms", "ms"},
	{"cfg.graphs_ms", "ms"},
	{"freq.estimate_ms", "ms"},
	{"model.build_ms", "ms"},
	{"model.builds", "count"},
	{"placement.enumerate_ms", "ms"},
	{"placement.solve_ms", "ms"},
	{"placement.bb_nodes", "count"},
	{"placement.warm_hit_ratio", "ratio"},
	{"placement.warm_proofs", "count"},
	{"placement.simplex_iters_saved", "count"},
	{"sim.baseline_ms", "ms"},
	{"sim.runs", "count"},
	{"sim.instrs_per_s", "1/s"},
	{"sim.replay_ms", "ms"},
	{"sim.replayed_instrs", "count"},
	{"core.tail_ms", "ms"},
	{"core.aware_tail_ms", "ms"},
	{"core.memo_hit_ratio", "ratio"},
	{"service.read_ms", "ms"},
	{"service.revalidate_ms", "ms"},
	{"service.write_ms", "ms"},
	{"service.store_hit_ratio", "ratio"},
	{"service.response_kb", "KiB"},
	{"trace.overhead_pct", "%"},
}

// runPass executes the operation sequence round by round with the
// workload's closed-loop clients. Each client takes the next operation
// index of the round, times do, then checks the output. With one client a
// round's timed wall is the sum of its operation latencies, so checks stay
// out of it; with several it is the round's elapsed time, so checks must
// be cheap. Between rounds, and with one client between operations too,
// the heap is collected untimed, so neither latency nor peak RSS hinges on
// where collections of earlier garbage fall.
func runPass(ctx context.Context, w workload, tr *tracer) (*pass, error) {
	n, round, clients := w.ops(), w.round(), w.clients()
	p := &pass{lat: make([]time.Duration, n)}
	failed := make([]bool, n)
	var checkAllocs atomic.Uint64
	var logMu sync.Mutex
	logged := 0
	fail := func(i int, err error) {
		failed[i] = true
		logMu.Lock()
		defer logMu.Unlock()
		if logged < 5 {
			fmt.Fprintf(os.Stderr, "pipebench: op %d: %v\n", i, err)
		}
		logged++
	}
	client := func(next *atomic.Int64, hi int) {
		for {
			i := int(next.Add(1) - 1)
			if i >= hi {
				return
			}
			o := tr.op(i)
			t0 := time.Now()
			out, err := w.do(ctx, i, o)
			p.lat[i] = time.Since(t0)
			o.end(t0, p.lat[i])
			if err != nil {
				fail(i, err)
				continue
			}
			c0 := heapAllocs()
			if err := w.check(ctx, i, out, o); err != nil {
				fail(i, fmt.Errorf("output check: %w", err))
			}
			if clients == 1 {
				checkAllocs.Add(heapAllocs() - c0)
				runtime.GC()
			}
		}
	}

	runtime.GC()
	resetPeakRSS()
	a0 := heapAllocs()
	for lo := 0; lo < n; lo += round {
		hi := min(lo+round, n)
		var next atomic.Int64
		next.Store(int64(lo))
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client(&next, hi)
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		if clients == 1 {
			wall = 0
			for _, d := range p.lat[lo:hi] {
				wall += d
			}
		}
		p.rounds = append(p.rounds, float64(hi-lo)/wall.Seconds())
		if clients > 1 {
			runtime.GC()
		}
	}
	p.allocs = heapAllocs() - a0 - checkAllocs.Load()
	bad, err := w.finish(ctx)
	if err != nil {
		return nil, err
	}
	p.peakRSSMB = peakRSSMB()
	for _, i := range bad {
		failed[i] = true
	}
	for _, f := range failed {
		if f {
			p.failed++
		}
	}
	return p, nil
}

// heapAllocs is the cumulative number of heap bytes the process allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// resetPeakRSS returns freed heap pages to the OS and restarts the
// kernel's resident-set high-water mark (Linux clear_refs), so the next
// peakRSSMB covers only what follows.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// Best effort: where this fails, the peak covers the whole process.
	if f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0); err == nil {
		defer f.Close()
		_, _ = f.Write([]byte("5"))
	}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), or its
// lifetime maximum RSS where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// tail is the highest standard percentile with at least minBeyond
// samples above it.
type tail struct {
	pct          float64
	n, beyond    int
	value        float64
	refusedAbove float64
}

func (t tail) String() string {
	s := fmt.Sprintf("p%g over %d ops (%d beyond", t.pct, t.n, t.beyond)
	if t.refusedAbove < 100 {
		s += fmt.Sprintf("; p%g refused: fewer than %d beyond", t.refusedAbove, minBeyond)
	}
	return s + ")"
}

const minBeyond = 10

// tailPercentiles is the ladder tail_ms climbs; a workload's op count
// fixes its rung, so the percentile is fixed per workload and seconds.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tailPercentile picks the highest percentile on the ladder that leaves at
// least minBeyond samples above its nearest-rank value.
func tailPercentile(ms []float64) (tail, error) {
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	n := len(sorted)
	prev := 100.0
	for _, pct := range tailPercentiles {
		rank := (int(pct*float64(n)) + 99) / 100 // ceil(pct/100 · n)
		if rank < 1 {
			rank = 1
		}
		if n-rank >= minBeyond {
			return tail{pct: pct, n: n, beyond: n - rank, value: sorted[rank-1], refusedAbove: prev}, nil
		}
		prev = pct
	}
	return tail{}, errors.New("too few operations for any tail percentile")
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
