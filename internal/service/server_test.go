package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/evaluation"
	"repro/internal/mcc"
)

const tinySource = `int result[1];
int main() {
    int i, acc = 0;
    for (i = 0; i < 32; i++) acc += i * i;
    result[0] = acc;
    return 0;
}
`

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestOptimizeEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	req := OptimizeRequest{Bench: "crc32", Level: "O2"}

	status, cold := postJSON(t, ts.URL+"/v1/optimize", req)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, cold)
	}
	var doc evaluation.RunJSON
	if err := json.Unmarshal(cold, &doc); err != nil {
		t.Fatalf("response is not a RunJSON document: %v", err)
	}
	if doc.Bench != "crc32" || doc.Level != "O2" {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Baseline.Cycles == 0 || doc.Optimized.Cycles == 0 {
		t.Fatalf("empty metrics: %+v", doc)
	}

	// Warm serve: byte-identical to the cold one.
	status, warm := postJSON(t, ts.URL+"/v1/optimize", req)
	if status != http.StatusOK || !bytes.Equal(cold, warm) {
		t.Fatalf("warm serve differs (status %d):\ncold %s\nwarm %s", status, cold, warm)
	}

	// CLI identity: the exact bytes `flashram -json` would emit for the
	// same request — same document, same encoder settings.
	b := beebs.Get("crc32")
	sess, err := evaluation.NewSession(b, mcc.O2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Optimize(t.Context(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cli bytes.Buffer
	enc := json.NewEncoder(&cli)
	enc.SetIndent("", "  ")
	if err := enc.Encode(evaluation.NewRunJSON(&evaluation.Run{Bench: "crc32", Level: mcc.O2, Report: rep})); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, cli.Bytes()) {
		t.Fatalf("service document differs from the CLI document:\nservice %s\ncli %s", cold, cli.Bytes())
	}
}

func TestOptimizeConditionalRequest(t *testing.T) {
	srv, ts := newTestServer(t)
	req := OptimizeRequest{Bench: "crc32", Level: "O2"}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	post := func(inm string) *http.Response {
		t.Helper()
		hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		if inm != "" {
			hreq.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	first := post("")
	io.Copy(io.Discard, first.Body)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", first.StatusCode)
	}
	etag := first.Header.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) {
		t.Fatalf("ETag = %q, want a quoted validator", etag)
	}

	// Replaying the identical request with the validator skips the
	// pipeline: 304, no body, same tag.
	for _, inm := range []string{etag, "W/" + etag, `"stale-tag", ` + etag, "*"} {
		resp := post(inm)
		got, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status = %d, want 304 (%s)", inm, resp.StatusCode, got)
		}
		if resp.Header.Get("ETag") != etag {
			t.Fatalf("If-None-Match %q: ETag = %q, want %q", inm, resp.Header.Get("ETag"), etag)
		}
		if len(got) != 0 {
			t.Fatalf("304 carried a body: %s", got)
		}
	}

	// A stale validator re-runs the request and re-sends the document.
	resp := post(`"stale-tag"`)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != etag {
		t.Fatalf("stale validator: status %d etag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}
	io.Copy(io.Discard, resp.Body)

	// A different request fingerprint gets a different tag even when the
	// client presents the old one.
	other, err := json.Marshal(OptimizeRequest{Bench: "crc32", Level: "O2", Rspare: 256})
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize", bytes.NewReader(other))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("If-None-Match", etag)
	oresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer oresp.Body.Close()
	io.Copy(io.Discard, oresp.Body)
	if oresp.StatusCode != http.StatusOK {
		t.Fatalf("different knobs under old validator: status = %d, want 200", oresp.StatusCode)
	}
	if oetag := oresp.Header.Get("ETag"); oetag == etag || oetag == "" {
		t.Fatalf("different knobs share a validator: %q", oetag)
	}

	stats := srv.Stats()
	if stats.Requests.NotModified != 4 {
		t.Fatalf("not_modified = %d, want 4", stats.Requests.NotModified)
	}
	if stats.Requests.OK != 3+4 { // three 200s + four 304s
		t.Fatalf("ok = %d, want 7", stats.Requests.OK)
	}
}

func TestOptimizeInlineSource(t *testing.T) {
	_, ts := newTestServer(t)
	status, body := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{Source: tinySource, Name: "tiny", Level: "O2"})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var doc evaluation.RunJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Bench != "tiny" {
		t.Fatalf("inline source label = %q, want %q", doc.Bench, "tiny")
	}
}

func TestBadRequestsMapTo400(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"unknown bench", `{"bench":"nope"}`},
		{"missing program", `{}`},
		{"bench and source", `{"bench":"crc32","source":"int main(){return 0;}"}`},
		{"bad level", `{"bench":"crc32","level":"O9"}`},
		{"bad solver", `{"bench":"crc32","solver":"quantum"}`},
		{"unknown field", `{"bench":"crc32","xlimt":2}`},
		{"negative timeout", `{"bench":"crc32","timeout_ms":-5}`},
		{"unsatisfiable xlimit", `{"bench":"crc32","xlimit":0.5}`},
		{"negative node budget", `{"bench":"crc32","solve_max_nodes":-1}`},
		{"negative pivot budget", `{"bench":"crc32","solve_max_lp_iter":-1}`},
		{"uncompilable source", `{"source":"int main( {"}`},
		{"malformed json", `{"bench":`},
		{"non-numeric power trace", `{"bench":"crc32","power_trace":"nonsense trace"}`},
		{"zero-length outage", `{"bench":"crc32","power_trace":"10 0\n"}`},
		{"overlapping outages", `{"bench":"crc32","power_trace":"50 10\n20 5\n"}`},
		{"malformed trace json", `{"bench":"crc32","power_trace":"{\"outages\":[{\"at\":1}]}"}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
		var ed errorDoc
		if err := json.Unmarshal(body, &ed); err != nil || ed.Error == "" || ed.Status != http.StatusBadRequest {
			t.Errorf("%s: malformed error envelope %s", tc.name, body)
		}
	}
}

// A power-trace request runs the intermittent replay and reports it in
// the shared document schema; the trace knobs reach the ETag, so a
// trace-free response can never be served for a traced request.
func TestOptimizePowerTrace(t *testing.T) {
	_, ts := newTestServer(t)
	plain := OptimizeRequest{Bench: "crc32", Level: "O2"}
	traced := OptimizeRequest{Bench: "crc32", Level: "O2", PowerTrace: "steady", CkptAware: true}

	status, body := postJSON(t, ts.URL+"/v1/optimize", traced)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var doc evaluation.RunJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Intermittent == nil {
		t.Fatalf("traced run carries no intermittent section: %s", body)
	}
	if doc.Intermittent.Outages == 0 || !doc.Intermittent.CkptAware {
		t.Fatalf("intermittent section = %+v", doc.Intermittent)
	}

	if status, body := postJSON(t, ts.URL+"/v1/optimize", plain); status != http.StatusOK {
		t.Fatalf("plain status = %d: %s", status, body)
	} else {
		var pd evaluation.RunJSON
		if err := json.Unmarshal(body, &pd); err != nil {
			t.Fatal(err)
		}
		if pd.Intermittent != nil {
			t.Fatalf("trace-free run grew an intermittent section: %+v", pd.Intermittent)
		}
	}

	if optimizeETag(mustResolve(t, traced)) == optimizeETag(mustResolve(t, plain)) {
		t.Fatal("traced and trace-free requests share an ETag")
	}
	ckpt := traced
	ckpt.CheckpointCycles = 4096
	if optimizeETag(mustResolve(t, ckpt)) == optimizeETag(mustResolve(t, traced)) {
		t.Fatal("checkpoint interval does not reach the ETag")
	}
}

func mustResolve(t *testing.T, r OptimizeRequest) evaluation.Cell {
	t.Helper()
	cell, err := r.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return cell
}

// Retriable rejections carry Retry-After; terminal ones must not — a
// client should not re-send a request the server called malformed.
func TestRetryAfterOnRetriableRejections(t *testing.T) {
	cases := []struct {
		name       string
		prep       func(srv *Server)
		body       string
		status     int
		retryAfter bool
	}{
		{
			name:       "drain 503",
			prep:       func(srv *Server) { srv.StartDrain() },
			body:       `{"bench":"crc32"}`,
			status:     http.StatusServiceUnavailable,
			retryAfter: true,
		},
		{
			name:       "deadline 504",
			body:       `{"bench":"float_matmult","level":"O0","timeout_ms":1}`,
			status:     http.StatusGatewayTimeout,
			retryAfter: true,
		},
		{
			name:       "bad input 400",
			body:       `{"bench":"crc32","power_trace":"10 0\n"}`,
			status:     http.StatusBadRequest,
			retryAfter: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTestServer(t)
			if tc.prep != nil {
				tc.prep(srv)
			}
			resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			if got := resp.Header.Get("Retry-After") != ""; got != tc.retryAfter {
				t.Fatalf("Retry-After present = %v, want %v (header %q)", got, tc.retryAfter, resp.Header.Get("Retry-After"))
			}
			var ed errorDoc
			if err := json.Unmarshal(body, &ed); err != nil || ed.Status != tc.status {
				t.Fatalf("malformed error envelope: %s", body)
			}
		})
	}
}

func TestDeadlineMapsTo504(t *testing.T) {
	_, ts := newTestServer(t)
	// 1 ms against a cold cell: the deadline expires before the pipeline
	// can finish compiling and simulating, and the request reports 504.
	status, body := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{Bench: "float_matmult", Level: "O0", TimeoutMS: 1})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", status, body)
	}
	// The cancelled computation must not have poisoned the memo: the
	// same cell with a sane deadline completes.
	status, body = postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{Bench: "float_matmult", Level: "O0", TimeoutMS: 60000})
	if status != http.StatusOK {
		t.Fatalf("retry after expiry: status = %d, want 200: %s", status, body)
	}
}

func TestSweepEndpointStreamsInOrder(t *testing.T) {
	_, ts := newTestServer(t)
	req := SweepRequest{Cells: []OptimizeRequest{
		{Bench: "crc32", Level: "O2"},
		{Bench: "sha", Level: "O2"},
		{Bench: "crc32", Level: "O2"}, // identical to cell 0: same document
		{Bench: "crc32", Level: "Os"},
	}}
	b, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var rows []sweepRow
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row sweepRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(req.Cells) {
		t.Fatalf("got %d rows, want %d", len(rows), len(req.Cells))
	}
	for i, row := range rows {
		if row.Index != i {
			t.Fatalf("row %d has index %d (stream out of order)", i, row.Index)
		}
		if row.Error != "" || row.Run == nil {
			t.Fatalf("row %d failed: %+v", i, row)
		}
	}
	// Identical cells produce identical documents.
	r0, _ := json.Marshal(rows[0].Run)
	r2, _ := json.Marshal(rows[2].Run)
	if !bytes.Equal(r0, r2) {
		t.Fatalf("identical cells diverged:\n%s\n%s", r0, r2)
	}
	if bytes.Equal(r0, mustMarshal(t, rows[3].Run)) {
		t.Fatal("distinct cells produced the same document")
	}
}

// TestSweepRowsMatchOptimize: every /v1/sweep row carries exactly the
// document /v1/optimize returns for the same cell. The two inline
// sources share the default name, so only content addressing tells
// their sessions apart.
func TestSweepRowsMatchOptimize(t *testing.T) {
	_, ts := newTestServer(t)
	var req SweepRequest
	for _, f := range []string{"biquad.c", "checksum.c"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "kernels", f))
		if err != nil {
			t.Fatal(err)
		}
		req.Cells = append(req.Cells, OptimizeRequest{Source: string(src)})
	}
	req.Cells = append(req.Cells, OptimizeRequest{Bench: "crc32", Level: "Os"})

	status, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("sweep status = %d: %s", status, body)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != len(req.Cells) {
		t.Fatalf("got %d rows, want %d", len(lines), len(req.Cells))
	}
	for i, line := range lines {
		var row struct {
			Index int             `json:"index"`
			Run   json.RawMessage `json:"run"`
			Error string          `json:"error"`
		}
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if row.Index != i || row.Error != "" {
			t.Fatalf("row %d = index %d, error %q", i, row.Index, row.Error)
		}
		status, doc := postJSON(t, ts.URL+"/v1/optimize", req.Cells[i])
		if status != http.StatusOK {
			t.Fatalf("cell %d: optimize status = %d: %s", i, status, doc)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, doc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(row.Run, want.Bytes()) {
			t.Errorf("cell %d: sweep row differs from /v1/optimize:\n%s\nvs\n%s", i, row.Run, want.Bytes())
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSweepRejectsBadCellUpfront(t *testing.T) {
	_, ts := newTestServer(t)
	status, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Cells: []OptimizeRequest{
		{Bench: "crc32"},
		{Bench: "nope"},
	}})
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %s", status, body)
	}
	if !strings.Contains(string(body), "cell 1") {
		t.Fatalf("error does not attribute the bad cell: %s", body)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	srv.StartDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("draining healthz = %d %s", resp.StatusCode, body)
	}
	status, body2 := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{Bench: "crc32"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("optimize while draining = %d: %s", status, body2)
	}
}

func TestStatszLedger(t *testing.T) {
	_, ts := newTestServer(t)
	const repeats = 6
	for i := 0; i < repeats; i++ {
		if status, body := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{Bench: "crc32"}); status != http.StatusOK {
			t.Fatalf("optimize = %d: %s", status, body)
		}
	}
	postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{Bench: "nope"})

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc StatsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Requests.Total != repeats+1 || doc.Requests.OK != repeats || doc.Requests.ClientError != 1 {
		t.Fatalf("request ledger = %+v", doc.Requests)
	}
	if doc.Store.Misses != 1 || doc.Store.Hits != repeats-1 || doc.Store.Entries != 1 {
		t.Fatalf("store ledger = %+v", doc.Store)
	}
	// The service ledger carries the exact sweep-CLI schema: session
	// hits/misses mirror the store and the totals fold in the stage memos.
	if doc.SessionStats.SessionHits != doc.Store.Hits || doc.SessionStats.SessionMisses != doc.Store.Misses {
		t.Fatalf("session_stats diverges from store: %+v vs %+v", doc.SessionStats, doc.Store)
	}
	if doc.SessionStats.Totals.HitRate <= 0.5 {
		t.Fatalf("repeated identical requests should dominate the totals hit rate: %+v", doc.SessionStats.Totals)
	}
	if doc.Workers != 4 || doc.Draining {
		t.Fatalf("service section = %+v", doc)
	}
}

func TestMethodRouting(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/optimize = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/nope", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /nope = %d, want 404", resp.StatusCode)
	}
}

func TestLoadTestHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("load harness in -short mode")
	}
	rep, err := LoadTest(t.Context(), LoadConfig{N: 60, Concurrency: 12, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("%v\n%s", err, rep)
	}
	if rep.HitRate <= 0.5 {
		t.Fatalf("hit rate %.2f on a repeated mix", rep.HitRate)
	}
	if fmt.Sprint(rep) == "" {
		t.Fatal("empty ledger rendering")
	}
}
