package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, or (named "op") one whole
// operation. Spans of one operation share Op; a layer span's Parent is its
// operation's ID. Spans named "check.*" time output checks, which run
// after the operation and outside its wall time.
type span struct {
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"` // the operation's input, on "op" spans
	Op     int    `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for an operation's root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a pass in memory; write saves them when the
// run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// opTrace records the spans of one operation; a nil *opTrace (tracing
// off) just runs the calls.
type opTrace struct {
	tr    *tracer
	op    int
	root  int64
	input string
}

func (t *tracer) op(i int) *opTrace {
	if t == nil {
		return nil
	}
	return &opTrace{tr: t, op: i, root: t.ids.Add(1)}
}

// end records the operation's root span.
func (o *opTrace) end(start time.Time, d time.Duration) {
	if o == nil {
		return
	}
	s := int64(start.Sub(o.tr.t0))
	o.tr.add(span{Name: "op", Label: o.input, Op: o.op, ID: o.root, Start: s, End: s + int64(d)})
}

// label names the operation's input on its root span.
func (o *opTrace) label(input string) {
	if o != nil {
		o.input = input
	}
}

// span times fn as a child of the operation.
func (o *opTrace) span(name string, fn func() error) error {
	if o == nil {
		return fn()
	}
	start := time.Since(o.tr.t0)
	err := fn()
	end := time.Since(o.tr.t0)
	o.tr.add(span{Name: name, Op: o.op, ID: o.tr.ids.Add(1), Parent: o.root, Start: int64(start), End: int64(end)})
	return err
}

// call is span for a call that returns a value.
func call[T any](o *opTrace, name string, fn func() (T, error)) (T, error) {
	var v T
	err := o.span(name, func() error {
		var err error
		v, err = fn()
		return err
	})
	return v, err
}

// write saves the spans as JSON lines under .bench_build in the working
// directory and returns the file's path.
func (t *tracer) write(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// spanTotals aggregates a pass's spans by name.
type spanTotals struct {
	ops    int
	opWall time.Duration
	// self is each span name's total self time: its duration minus the
	// part of it that child spans cover. For "op" that is the time the
	// operation spent outside every layer call.
	self  map[string]time.Duration
	count map[string]int
}

func (t *tracer) totals() *spanTotals {
	st := &spanTotals{self: map[string]time.Duration{}, count: map[string]int{}}
	children := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 && !strings.HasPrefix(s.Name, "check.") {
			children[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		if s.Name == "op" {
			st.ops++
			st.opWall += d
			d -= children[s.ID]
		}
		st.self[s.Name] += d
		st.count[s.Name]++
	}
	return st
}

// perOp is a span's self time per operation, in milliseconds; a metric
// name "x.y_ms" reads span "x.y".
func (st *spanTotals) perOp(metric string) float64 {
	if st.ops == 0 {
		return 0
	}
	return float64(st.self[strings.TrimSuffix(metric, "_ms")]) / 1e6 / float64(st.ops)
}

// perCall is a span's mean self time per call, in milliseconds.
func (st *spanTotals) perCall(name string) float64 {
	if st.count[name] == 0 {
		return 0
	}
	return float64(st.self[name]) / 1e6 / float64(st.count[name])
}

// printShares prints each layer's self time per operation and its share
// of operation wall time; "bench" is time inside operations but outside
// every layer call, so the shares add up to the whole operation.
func (st *spanTotals) printShares(w io.Writer) {
	layer := map[string]time.Duration{}
	for name, d := range st.self {
		switch {
		case name == "op":
			layer["bench"] += d
		case strings.HasPrefix(name, "check."):
		default:
			layer[strings.SplitN(name, ".", 2)[0]] += d
		}
	}
	names := make([]string, 0, len(layer))
	for n := range layer {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return layer[names[i]] > layer[names[j]] })
	fmt.Fprintf(w, "  layer self time per op (op wall %.4f ms over %d ops):\n", float64(st.opWall)/1e6/float64(st.ops), st.ops)
	var sum time.Duration
	for _, n := range names {
		sum += layer[n]
		fmt.Fprintf(w, "    %-10s %10.4f ms  %5.1f%%\n", n, float64(layer[n])/1e6/float64(st.ops), 100*float64(layer[n])/float64(st.opWall))
	}
	fmt.Fprintf(w, "    %-10s %10.4f ms  %5.1f%% of op wall explained\n", "sum", float64(sum)/1e6/float64(st.ops), 100*float64(sum)/float64(st.opWall))
}
