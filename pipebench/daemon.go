package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/evaluation"
	"repro/internal/layout"
	"repro/internal/mcc"
	"repro/internal/service"
)

// daemon-warm: an in-process service.New server on loopback, its store
// filled with service.DefaultMix(), then a seeded mix of full-document
// reads, If-None-Match revalidations and writes carrying knob values not
// seen before, issued by daemonClients closed-loop clients.

const (
	// daemonRate is set by memory rather than speed: every write adds memo
	// entries the store keeps, so the run is shorter than --seconds.
	daemonRate    = 6000 // nominal requests per second
	daemonClients = 2
)

const (
	kindRead = iota
	kindRevalidate
	kindWrite
)

var kindSpans = [...]string{"service.read", "service.revalidate", "service.write"}

// kindShares is one round of request kinds, shuffled per round: 169
// reads, 30 revalidations and one write per 200 requests. Writes are the
// only requests that take milliseconds, and each adds memo entries the
// store keeps, so their count is what bounds the run's memory; at this
// share the p99.9 tail falls well inside the write class.
var kindShares = [...]int{kindRead: 169, kindRevalidate: 30, kindWrite: 1}

type daemonReq struct {
	kind int
	mix  int // DefaultMix index of a read or revalidation
	cell int // paperCells index of a write
	body []byte
}

type daemonResp struct {
	status int
	etag   string
	body   []byte
}

type daemonWarm struct {
	seed  int64
	n     int
	mix   []service.OptimizeRequest
	cells []cell
	seq   []daemonReq

	// first holds the store fill's documents and ETags, by mix index.
	first     [][]byte
	firstETag []string
	// writes holds each write's response, by op index, for finish.
	writes []*daemonResp

	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	before, after      *service.StatsDoc
	bytes200, count200 atomic.Int64
}

// daemonRound is the operation count in which every paper cell is written
// once: 20 kind rounds of 200 requests.
const daemonRound = 20 * 200

func newDaemonWarm(seed int64, seconds int) workload {
	return &daemonWarm{seed: seed, n: opCount(seconds, daemonRate, daemonRound)}
}

func (w *daemonWarm) describe() string {
	return fmt.Sprintf("closed loop, %d clients over loopback: reads, revalidations, writes", daemonClients)
}
func (w *daemonWarm) clients() int { return daemonClients }
func (w *daemonWarm) ops() int     { return w.n }
func (w *daemonWarm) round() int   { return daemonRound }

// setUp draws the request sequence, boots the server and fills its store.
// Writes need each cell's derived RAM budget to draw Rspare values below
// it, so the cells are compiled here.
func (w *daemonWarm) setUp(ctx context.Context) error {
	w.mix = service.DefaultMix()
	w.cells = paperCells()
	spare := make([]int, len(w.cells))
	for i, c := range w.cells {
		prog, err := mcc.Compile(c.bench.Source, c.level)
		if err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
		spare[i] = layout.SpareRAM(prog, layout.DefaultConfig())
	}
	if err := w.draw(spare); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: service.New(service.Config{Workers: daemonClients}).Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: daemonClients, DisableCompression: true}}

	w.first = make([][]byte, len(w.mix))
	w.firstETag = make([]string, len(w.mix))
	for k, req := range w.mix {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, err := w.post(ctx, body, "")
		if err != nil {
			return err
		}
		if resp.status != http.StatusOK || resp.etag == "" {
			return fmt.Errorf("fill %d answered %d: %s", k, resp.status, resp.body)
		}
		w.first[k], w.firstETag[k] = resp.body, resp.etag
	}
	w.before, err = w.stats(ctx)
	return err
}

// draw builds the seeded request sequence. Each cell gets m writes per
// run, each with a new Rspare spread evenly over [0.4, 1) of its derived
// budget; the seed orders the kinds, the cells and each cell's writes.
// A new Rspare means a new model, a warm solve from the nearest budget
// already solved, a new transform and a new optimized run. Writes stay
// above 0.4 of the budget because below it single warm solves run for
// seconds and a handful of them would decide the whole run; they leave
// Xlimit alone because a new Xlimit mostly lands on a placement already
// transformed and answers as fast as a read.
func (w *daemonWarm) draw(spare []int) error {
	rng := rand.New(rand.NewSource(w.seed))
	var round []int
	for kind, share := range kindShares {
		for j := 0; j < share; j++ {
			round = append(round, kind)
		}
	}
	kinds := make([]int, 0, w.n)
	for len(kinds) < w.n {
		for _, k := range rng.Perm(len(round)) {
			kinds = append(kinds, round[k])
		}
	}
	nWrites := w.n / len(round) * kindShares[kindWrite]
	m := nWrites / len(w.cells)
	knobs := make([][]service.OptimizeRequest, len(w.cells))
	for ci, c := range w.cells {
		for j := 0; j < m; j++ {
			frac := 0.4 + 0.6*(float64(j)+0.5)/float64(m)
			knobs[ci] = append(knobs[ci], service.OptimizeRequest{
				Bench: c.bench.Name, Level: c.level.String(),
				Rspare: math.Round(frac * float64(spare[ci])),
			})
		}
		rng.Shuffle(len(knobs[ci]), func(a, b int) { knobs[ci][a], knobs[ci][b] = knobs[ci][b], knobs[ci][a] })
	}
	reads := bag(rng, len(w.mix), w.n)
	writeCells := bag(rng, len(w.cells), nWrites)
	next := make([]int, len(w.cells))
	w.seq = make([]daemonReq, w.n)
	w.writes = make([]*daemonResp, w.n)
	nRead, nWrite := 0, 0
	for i := range w.seq {
		r := daemonReq{kind: kinds[i]}
		var req service.OptimizeRequest
		if r.kind == kindWrite {
			r.cell = writeCells[nWrite]
			nWrite++
			req = knobs[r.cell][next[r.cell]]
			next[r.cell]++
		} else {
			r.mix = reads[nRead]
			nRead++
			req = w.mix[r.mix]
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		r.body = body
		w.seq[i] = r
	}
	return nil
}

func (w *daemonWarm) post(ctx context.Context, body []byte, ifNoneMatch string) (*daemonResp, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/optimize", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	res, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	return &daemonResp{status: res.StatusCode, etag: res.Header.Get("ETag"), body: data}, nil
}

func (w *daemonWarm) stats(ctx context.Context) (*service.StatsDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/statsz", nil)
	if err != nil {
		return nil, err
	}
	res, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	var doc service.StatsDoc
	if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding /statsz: %w", err)
	}
	return &doc, nil
}

func (w *daemonWarm) do(ctx context.Context, i int, o *opTrace) (any, error) {
	r := w.seq[i]
	o.label(string(r.body))
	etag := ""
	if r.kind == kindRevalidate {
		etag = w.firstETag[r.mix]
	}
	return call(o, kindSpans[r.kind], func() (*daemonResp, error) { return w.post(ctx, r.body, etag) })
}

// check compares a read with the fill's document and ETag, and a
// revalidation with a bodiless 304 carrying that ETag. Writes are kept
// for finish, which re-serves them.
func (w *daemonWarm) check(_ context.Context, i int, v any, _ *opTrace) error {
	resp := v.(*daemonResp)
	r := w.seq[i]
	switch r.kind {
	case kindRead:
		if resp.status != http.StatusOK || resp.etag != w.firstETag[r.mix] || !bytes.Equal(resp.body, w.first[r.mix]) {
			return fmt.Errorf("read of mix %d: status %d, document or ETag differs from the first response", r.mix, resp.status)
		}
	case kindRevalidate:
		if resp.status != http.StatusNotModified || resp.etag != w.firstETag[r.mix] || len(resp.body) != 0 {
			return fmt.Errorf("revalidation of mix %d: status %d, ETag %s", r.mix, resp.status, resp.etag)
		}
		return nil
	case kindWrite:
		if resp.status != http.StatusOK || resp.etag == "" {
			return fmt.Errorf("write answered %d: %s", resp.status, resp.body)
		}
		w.writes[i] = resp
	}
	w.bytes200.Add(int64(len(resp.body)))
	w.count200.Add(1)
	return nil
}

// finish snapshots /statsz for the pass, then checks what the inline
// checks could not: each fill document must equal the `flashram -json`
// document of a fresh session (reads were compared against them), every
// write must re-serve byte-identical with the same ETag, and each cell's
// first write must also match a fresh session.
func (w *daemonWarm) finish(ctx context.Context) ([]int, error) {
	var err error
	if w.after, err = w.stats(ctx); err != nil {
		return nil, err
	}
	var bad []int
	badMix := map[int]bool{}
	for k, req := range w.mix {
		if err := checkDocument(ctx, req, w.first[k]); err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: fill %d: %v\n", k, err)
			badMix[k] = true
		}
	}
	firstWrite := map[int]bool{}
	for i, r := range w.seq {
		if r.kind != kindWrite {
			if badMix[r.mix] {
				bad = append(bad, i)
			}
			continue
		}
		resp := w.writes[i]
		if resp == nil {
			continue // already failed inline
		}
		again, err := w.post(ctx, r.body, "")
		if err != nil {
			return nil, err
		}
		ok := again.status == http.StatusOK && again.etag == resp.etag && bytes.Equal(again.body, resp.body)
		if ok && !firstWrite[r.cell] {
			firstWrite[r.cell] = true
			var req service.OptimizeRequest
			if err := json.Unmarshal(r.body, &req); err != nil {
				return nil, err
			}
			if err := checkDocument(ctx, req, resp.body); err != nil {
				fmt.Fprintf(os.Stderr, "pipebench: write %d: %v\n", i, err)
				ok = false
			}
		}
		if !ok {
			bad = append(bad, i)
		}
	}
	return bad, nil
}

// checkDocument compares a served document with the one `flashram -json`
// writes for the same request: a fresh compile and session, no store.
func checkDocument(ctx context.Context, req service.OptimizeRequest, got []byte) error {
	b := beebs.Get(req.Bench)
	if b == nil {
		return fmt.Errorf("unknown benchmark %q", req.Bench)
	}
	level, err := mcc.ParseOptLevel(req.Level)
	if err != nil {
		return err
	}
	prog, err := mcc.Compile(b.Source, level)
	if err != nil {
		return err
	}
	sess, err := core.NewSession(prog, core.SessionConfig{})
	if err != nil {
		return err
	}
	rep, err := sess.Optimize(ctx, core.Options{Xlimit: req.Xlimit, Rspare: req.Rspare, UseProfile: req.UseProfile})
	if err != nil {
		return err
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(evaluation.NewRunJSON(&evaluation.Run{Bench: b.Name, Level: level, Report: rep})); err != nil {
		return err
	}
	if !bytes.Equal(got, want.Bytes()) {
		return errors.New("served document differs from a fresh session's")
	}
	return nil
}

// ratios fold the store fill's documents: the mix cells every read serves.
func (w *daemonWarm) ratios() (float64, float64, float64) {
	byKey := map[string]ratios{}
	for k, doc := range w.first {
		var run evaluation.RunJSON
		if err := json.Unmarshal(doc, &run); err != nil {
			continue
		}
		b, o := run.Baseline, run.Optimized
		byKey[fmt.Sprintf("%02d", k)] = ratios{
			energy: o.EnergyMJ / b.EnergyMJ,
			time:   o.TimeMS / b.TimeMS,
			work:   (float64(o.Instructions) / o.EnergyMJ) / (float64(b.Instructions) / b.EnergyMJ),
		}
	}
	return geomeans(byKey)
}

// layers reads the server's own ledger over the timed loop: the /statsz
// snapshots before and after it. The service is opaque to the benchmark's
// spans, so per-solve node counts are not visible here.
func (w *daemonWarm) layers(spans *spanTotals) map[string]float64 {
	b, a := w.before, w.after
	n := float64(w.n)
	st, bt := a.SessionStats.Stages, b.SessionStats.Stages
	sv, bv := a.SolverStats, b.SolverStats
	m := map[string]float64{
		"model.builds":                  float64(st.Model.Misses-bt.Model.Misses) / n,
		"sim.runs":                      float64(st.SimRuns-bt.SimRuns) / n,
		"placement.warm_hit_ratio":      ratio(sv.WarmHits-bv.WarmHits, sv.WarmMisses-bv.WarmMisses),
		"placement.warm_proofs":         float64(sv.WarmProofs-bv.WarmProofs) / n,
		"placement.simplex_iters_saved": float64(sv.SimplexItersSaved-bv.SimplexItersSaved) / n,
		"core.memo_hit_ratio": ratio(a.SessionStats.Totals.Hits-b.SessionStats.Totals.Hits,
			a.SessionStats.Totals.Misses-b.SessionStats.Totals.Misses),
		"service.store_hit_ratio": ratio(a.Store.Hits-b.Store.Hits, a.Store.Misses-b.Store.Misses),
	}
	for _, name := range kindSpans {
		m[name+"_ms"] = spans.perCall(name)
	}
	if c := w.count200.Load(); c > 0 {
		m["service.response_kb"] = float64(w.bytes200.Load()) / float64(c) / 1024
	}
	return m
}

func (w *daemonWarm) close() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.hs.Shutdown(ctx); err != nil {
		w.hs.Close()
	}
	<-w.served
	w.client.CloseIdleConnections()
	w.hs = nil
}
