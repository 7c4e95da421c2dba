// Package service is the placement-as-a-service subsystem: a
// long-running HTTP/JSON daemon (cmd/flashramd) wrapping one
// evaluation.Sweep, whose core.Store of sessions is shared across
// requests and tenants, and an admission layer in front of it. Every
// cell, single-shot or sweep row, runs through Sweep.RunBenchmark under
// the sweep's panic isolation — the runner the flashram CLI uses.
//
// The store content-addresses whole sessions on core.SessionKey(source,
// level): a hash of the inputs that reach the compiler. Inside each
// session the per-stage memos key on exactly the knobs that reach each
// stage (placement, budgets, tracing). A request's effective stage key
// is therefore (program hash, stage knobs), so identical stage inputs
// from different requests, connections, tenants or sweep cells land on
// one shared computation. /v1/sweep runs its cells through the same
// store, so a sweep row and a single-shot request for the same cell
// share one session.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/evaluation"
)

// Config fixes a Server's invariants.
type Config struct {
	// Workers bounds both the admission gate (concurrent requests being
	// executed; excess requests queue) and the worker pool a sweep
	// request runs its cells through. 0 means max(2, GOMAXPROCS).
	Workers int
	// MaxSessions bounds the cross-request store (0 means
	// core.DefaultMaxSessions).
	MaxSessions int
	// DefaultTimeout is the per-request deadline applied when a request
	// does not carry its own timeout_ms (0 = none). Expiry surfaces as
	// 504 via errs.HTTPStatus.
	DefaultTimeout time.Duration
	// MaxBodyBytes caps request bodies (0 = 4 MiB) — inline sources are
	// kilobytes; anything larger is a mistake or an attack.
	MaxBodyBytes int64
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers < 2 {
			c.Workers = 2
		}
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
}

// Server is the placement service: the cross-request store, the
// admission gate, and the request ledger behind /statsz. Build one with
// New and serve its Handler.
type Server struct {
	cfg Config
	// sweep runs every cell — each /v1/optimize request and each
	// /v1/sweep row — through Sweep.RunBenchmark, over the cross-request
	// store of warm sessions.
	sweep *evaluation.Sweep
	sem   chan struct{}
	start time.Time

	draining atomic.Bool

	requests struct {
		total, inFlight              atomic.Uint64
		ok, clientErr, serverErr     atomic.Uint64
		canceled, timedOut, rejected atomic.Uint64
		notModified                  atomic.Uint64
	}
}

// New builds a Server from the configuration.
func New(cfg Config) *Server {
	cfg.fill()
	return &Server{
		cfg:   cfg,
		sweep: &evaluation.Sweep{Workers: cfg.Workers, Store: core.NewStore(cfg.MaxSessions)},
		sem:   make(chan struct{}, cfg.Workers),
		start: time.Now(),
	}
}

// StartDrain flips the server into drain mode: /healthz reports 503 so
// load balancers stop routing here, and new optimization requests are
// rejected with 503 while in-flight ones run to completion. The caller
// (cmd/flashramd) follows up with http.Server.Shutdown, which waits for
// the in-flight responses.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the service's routed handler:
//
//	POST /v1/optimize  one pipeline run    → Report JSON (shared schema)
//	POST /v1/sweep     many pipeline runs  → NDJSON stream, index order
//	GET  /healthz      liveness (503 while draining)
//	GET  /statsz       request + cache ledger
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	return mux
}

// ---------------------------------------------------------------------
// Request schema.

// OptimizeRequest is the JSON body of /v1/optimize and one cell of
// /v1/sweep. It is the request type every surface shares — the flashram
// flags fill the same fields — so its one validation, Resolve, runs
// here before any pipeline work, and every rejection is a 400.
type OptimizeRequest = evaluation.Request

// DefaultMix is the standard repeated workload: all ten BEEBS
// benchmarks at both paper levels, plus two knob variants that exercise
// distinct stage keys inside shared sessions. pipebench's daemon-warm
// workload draws its requests from it, and etag.golden pins its ETags.
func DefaultMix() []OptimizeRequest {
	var mix []OptimizeRequest
	for _, b := range beebs.All() {
		mix = append(mix,
			OptimizeRequest{Bench: b.Name, Level: "O2"},
			OptimizeRequest{Bench: b.Name, Level: "Os"})
	}
	mix = append(mix,
		OptimizeRequest{Bench: "sha", Level: "O2", UseProfile: true},
		OptimizeRequest{Bench: "crc32", Level: "O2", Rspare: 512})
	return mix
}

// SweepRequest is the JSON body of /v1/sweep.
type SweepRequest struct {
	Cells []OptimizeRequest `json:"cells"`
}

// errorDoc is the JSON error envelope.
type errorDoc struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// sweepRow is one NDJSON line of the /v1/sweep stream: the cell's index
// in the request, and either its report or its classified error.
type sweepRow struct {
	Index  int                 `json:"index"`
	Run    *evaluation.RunJSON `json:"run,omitempty"`
	Error  string              `json:"error,omitempty"`
	Status int                 `json:"status,omitempty"`
}

// ---------------------------------------------------------------------
// Handlers.

// requestContext applies the request's (or the server's default)
// deadline on top of the connection context.
func (s *Server) requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), timeout)
}

// admit takes one execution slot, or fails when the server is draining
// or the request's deadline expires while queued. A drain rejection is
// errs.ErrUnavailable (→ 503 + Retry-After), not bad input: the request
// was fine, this replica is going away.
func (s *Server) admit(ctx context.Context) error {
	if s.draining.Load() {
		s.requests.rejected.Add(1)
		return fmt.Errorf("server is draining: %w", errs.ErrUnavailable)
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	s.requests.total.Add(1)
	s.requests.inFlight.Add(1)
	defer func() { s.requests.inFlight.Add(^uint64(0)) }()

	var req OptimizeRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	cell, err := req.Resolve()
	if err != nil {
		s.writeError(w, err)
		return
	}
	// The response for a given request is deterministic (the byte-
	// identity contract below), so a validator derived purely from the
	// request fingerprint is sound: same program, level and knobs mean
	// the same document, however it was solved. A client replaying a
	// request with If-None-Match skips the pipeline entirely.
	etag := optimizeETag(cell)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.Header().Set("ETag", etag)
		s.countStatus(http.StatusNotModified)
		w.WriteHeader(http.StatusNotModified)
		return
	}

	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	if err := s.admit(ctx); err != nil {
		s.writeError(w, err)
		return
	}
	defer s.release()

	// The cell runs under the sweep workers' panic isolation: a
	// panicking request costs one 500, never the process.
	var run *evaluation.Run
	err = evaluation.Isolated(func() (err error) {
		run, err = s.sweep.RunBenchmark(ctx, cell.Bench, cell.Level, cell.Opts)
		return err
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	// Byte-identity contract: this is exactly the document `flashram
	// -json` writes for the same request, cold or warm — both surfaces
	// encode through evaluation.EncodeRun. The ETag names the document,
	// so the report keeps it rendered under that tag and a repeat
	// request writes the stored bytes.
	body, err := run.Report.Encoded(etag, func() ([]byte, error) { return evaluation.EncodeRun(run) })
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.countStatus(http.StatusOK)
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // the connection owns delivery
}

// optimizeETag fingerprints a resolved /v1/optimize request into a
// strong entity tag: the same content-addressed hash scheme the session
// store keys on (core.SessionKey), extended over every knob that can
// reach the emitted document. TimeoutMS is deliberately excluded — it
// changes whether the request finishes, never what it says.
func optimizeETag(cell evaluation.Cell) string {
	o := cell.Opts
	return `"` + core.SessionKey(
		"optimize/v1",
		cell.Bench.Name, cell.Bench.Source, cell.Level.String(),
		string(o.Solver),
		fmt.Sprintf("%g/%g", o.Xlimit, o.Rspare),
		fmt.Sprintf("%v/%v/%d", o.UseProfile, o.LinkTime, o.MaxInstrs),
		// The trace spec is its own part (it is free-form text; folding it
		// into a printf row could collide with a crafted spec), the small
		// intermittent knobs share one.
		o.PowerTrace,
		fmt.Sprintf("%d/%v", o.CheckpointCycles, o.CkptAware),
		fmt.Sprintf("%d/%d/%d", o.SolveMaxNodes, o.SolveMaxLPIter, int64(o.SolveTimeout)),
	) + `"`
}

// etagMatches implements the If-None-Match comparison: a comma-
// separated validator list, "*" matching anything, weak validators
// compared by opaque tag (RFC 9110's weak comparison — the document is
// deterministic, so weak and strong coincide here).
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, tok := range strings.Split(header, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "*" {
			return true
		}
		if strings.TrimPrefix(tok, "W/") == etag {
			return true
		}
	}
	return false
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.requests.total.Add(1)
	s.requests.inFlight.Add(1)
	defer func() { s.requests.inFlight.Add(^uint64(0)) }()

	var req SweepRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if len(req.Cells) == 0 {
		s.writeError(w, errs.BadInput(fmt.Errorf("sweep needs at least one cell")))
		return
	}
	cells := make([]evaluation.Cell, len(req.Cells))
	var timeoutMS int
	for i := range req.Cells {
		cell, err := req.Cells[i].Resolve()
		if err != nil {
			s.writeError(w, errs.BadInput(fmt.Errorf("cell %d: %w", i, err)))
			return
		}
		cells[i] = cell
		if req.Cells[i].TimeoutMS > timeoutMS {
			timeoutMS = req.Cells[i].TimeoutMS
		}
	}
	ctx, cancel := s.requestContext(r, timeoutMS)
	defer cancel()

	// One admission slot per sweep request; the cells then fan out over
	// the server's sweep pool, whose sessions come from — and stay in —
	// the cross-request store.
	if err := s.admit(ctx); err != nil {
		s.writeError(w, err)
		return
	}
	defer s.release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// The pool delivers results as cells finish (any order); rows are
	// streamed strictly in index order, each flushed as soon as its
	// predecessors are out, so a slow cell delays only its successors.
	type doneMsg struct {
		i   int
		run *evaluation.Run
		err error
	}
	results := make(chan doneMsg)
	go func() {
		s.sweep.RunCells(ctx, cells, func(i int, run *evaluation.Run, err error) {
			results <- doneMsg{i: i, run: run, err: err}
		})
		close(results)
	}()
	pending := make(map[int]doneMsg, len(cells))
	next := 0
	// ledger is the status the sweep is ledgered under: its most severe
	// row's, so a 5xx row makes it a server error and otherwise a 4xx
	// row a client error.
	ledger := http.StatusOK
	for msg := range results {
		pending[msg.i] = msg
		for {
			m, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			row := sweepRow{Index: m.i}
			if m.err != nil {
				row.Error = m.err.Error()
				row.Status = errs.HTTPStatus(m.err)
				ledger = max(ledger, row.Status)
			} else {
				doc := evaluation.NewRunJSON(m.run)
				row.Run = &doc
			}
			line, err := json.Marshal(row)
			if err != nil {
				line, _ = json.Marshal(sweepRow{Index: m.i, Error: err.Error(), Status: http.StatusInternalServerError})
			}
			w.Write(append(line, '\n'))
			if flusher != nil {
				flusher.Flush()
			}
			next++
		}
	}
	// The stream already committed a 200 header; the per-row statuses
	// carry the failures. The ledger still records how the sweep went.
	s.countStatus(ledger)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// StatsDoc is the /statsz document: the request ledger, the store's
// hit/miss/eviction ledger, and the same session_stats schema
// `beebsbench -json` emits — one set of field names across the sweep
// CLIs and the service.
type StatsDoc struct {
	UptimeMS float64 `json:"uptime_ms"`
	Workers  int     `json:"workers"`
	Draining bool    `json:"draining"`

	Requests RequestStats `json:"requests"`

	// Store is the session-granular (cross-request) ledger; the
	// SessionStats totals fold it together with the per-stage memos.
	Store        core.CacheStats       `json:"store"`
	SessionStats evaluation.SweepStats `json:"session_stats"`
	// SolverStats is the warm-start solver ledger aggregated over every
	// session the store has held — the same schema `beebsbench -json`
	// emits, so sweep-local and cross-request solver reuse read alike.
	SolverStats core.SolverStats `json:"solver_stats"`
}

// RequestStats counts requests by outcome class.
type RequestStats struct {
	Total    uint64 `json:"total"`
	InFlight uint64 `json:"in_flight"`
	// OK counts 2xx; ClientError 4xx; ServerError 5xx; Canceled the
	// 499s (client went away); Rejected the drain-mode 503s (also in
	// ServerError); TimedOut the 504s (also in ServerError);
	// NotModified the conditional-request 304s (also in OK — the client
	// got exactly what it asked for, without a pipeline run).
	OK          uint64 `json:"ok"`
	ClientError uint64 `json:"client_error"`
	ServerError uint64 `json:"server_error"`
	Canceled    uint64 `json:"canceled"`
	TimedOut    uint64 `json:"timed_out"`
	Rejected    uint64 `json:"rejected"`
	NotModified uint64 `json:"not_modified"`
}

// Stats snapshots the server's ledger (the /statsz document).
func (s *Server) Stats() StatsDoc {
	st := s.sweep.Store.Stats()
	return StatsDoc{
		UptimeMS: float64(time.Since(s.start).Microseconds()) / 1e3,
		Workers:  s.cfg.Workers,
		Draining: s.draining.Load(),
		Requests: RequestStats{
			Total:       s.requests.total.Load(),
			InFlight:    s.requests.inFlight.Load(),
			OK:          s.requests.ok.Load(),
			ClientError: s.requests.clientErr.Load(),
			ServerError: s.requests.serverErr.Load(),
			Canceled:    s.requests.canceled.Load(),
			TimedOut:    s.requests.timedOut.Load(),
			Rejected:    s.requests.rejected.Load(),
			NotModified: s.requests.notModified.Load(),
		},
		Store:        st.Cache,
		SessionStats: evaluation.NewSweepStats(st),
		SolverStats:  st.Solver,
	}
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// ---------------------------------------------------------------------
// Plumbing.

// decode reads a strict JSON body: unknown fields are bad input, so a
// typo'd knob fails loudly instead of silently running the default.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errs.BadInput(fmt.Errorf("decoding request: %w", err))
	}
	return nil
}

func (s *Server) countStatus(status int) {
	switch {
	case status == errs.StatusClientClosedRequest:
		s.requests.canceled.Add(1)
	case status == http.StatusNotModified:
		s.requests.ok.Add(1)
		s.requests.notModified.Add(1)
	case status >= 200 && status < 300:
		s.requests.ok.Add(1)
	case status >= 400 && status < 500:
		s.requests.clientErr.Add(1)
	default:
		s.requests.serverErr.Add(1)
		if status == http.StatusGatewayTimeout {
			s.requests.timedOut.Add(1)
		}
	}
}

// writeError classifies err through errs.HTTPStatus and writes the
// error envelope. Retriable rejections — drain 503s and deadline 504s —
// carry a Retry-After header so well-behaved clients back off instead
// of hammering a replica that is shutting down or saturated.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := errs.HTTPStatus(err)
	s.countStatus(status)
	if status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorDoc{Error: err.Error(), Status: status})
}

// writeJSON writes v with the CLIs' encoder settings (two-space indent,
// trailing newline): error envelopes, /healthz and /statsz.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection owns delivery
}
