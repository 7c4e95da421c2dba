package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/evaluation"
)

// freshDocument is the `flashram -json` document for req: a fresh
// compile and session in a sweep of its own, through the one encoder.
func freshDocument(t *testing.T, req OptimizeRequest) []byte {
	t.Helper()
	cell := mustResolve(t, req)
	run, err := evaluation.NewSweep(1).RunBenchmark(t.Context(), cell.Bench, cell.Level, cell.Opts)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := evaluation.EncodeRun(run)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// optimizeWithTag posts req to /v1/optimize and returns the status,
// ETag and body. It does not call t.Fatal, so goroutines may use it.
func optimizeWithTag(url string, req OptimizeRequest) (int, string, []byte, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return 0, "", nil, err
	}
	resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("ETag"), body, err
}

// servedReport returns the memoized report srv answers req from.
func servedReport(t *testing.T, srv *Server, req OptimizeRequest) *core.Report {
	t.Helper()
	cell := mustResolve(t, req)
	run, err := srv.sweep.RunBenchmark(t.Context(), cell.Bench, cell.Level, cell.Opts)
	if err != nil {
		t.Fatal(err)
	}
	return run.Report
}

// mustNotRender is a render callback for a document the report must
// already hold.
func mustNotRender(t *testing.T) func() ([]byte, error) {
	return func() ([]byte, error) {
		t.Error("the report rendered a document it should have kept")
		return nil, fmt.Errorf("unexpected render")
	}
}

// TestRepeatedReadServesTheKeptDocument: a repeated read answers the
// `flashram -json` bytes of a fresh session under the same ETag, and
// those bytes are the ones the report keeps for that tag.
func TestRepeatedReadServesTheKeptDocument(t *testing.T) {
	srv, ts := newTestServer(t)
	req := OptimizeRequest{Bench: "crc32", Level: "O2"}
	want := freshDocument(t, req)
	var tag string
	for i := 0; i < 3; i++ {
		status, etag, body, err := optimizeWithTag(ts.URL, req)
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusOK || etag == "" {
			t.Fatalf("read %d: status %d, ETag %q", i, status, etag)
		}
		if i == 0 {
			tag = etag
		} else if etag != tag {
			t.Fatalf("read %d: ETag %q, first read %q", i, etag, tag)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("read %d differs from a fresh session's document:\n%s\nvs\n%s", i, body, want)
		}
	}
	kept, err := servedReport(t, srv, req).Encoded(tag, mustNotRender(t))
	if err != nil || !bytes.Equal(kept, want) {
		t.Fatalf("the report keeps %q (err %v), want the served document", kept, err)
	}
}

// TestRereadAfterEvictionIsByteIdentical alternates two benchmarks
// through a one-session store, so every read after the first round finds
// its session evicted and rebuilds it, report and document included.
func TestRereadAfterEvictionIsByteIdentical(t *testing.T) {
	srv := New(Config{Workers: 2, MaxSessions: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	reqs := []OptimizeRequest{{Bench: "crc32", Level: "O2"}, {Bench: "sha", Level: "Os"}}
	first := make([][]byte, len(reqs))
	tags := make([]string, len(reqs))
	const rounds = 3
	for round := 0; round < rounds; round++ {
		for k, req := range reqs {
			status, etag, body, err := optimizeWithTag(ts.URL, req)
			if err != nil {
				t.Fatal(err)
			}
			if status != http.StatusOK {
				t.Fatalf("round %d, %s: status %d: %s", round, req.Bench, status, body)
			}
			if round == 0 {
				first[k], tags[k] = body, etag
				continue
			}
			if etag != tags[k] || !bytes.Equal(body, first[k]) {
				t.Fatalf("round %d, %s: the rebuilt session answered other bytes or ETag %q (first %q)", round, req.Bench, etag, tags[k])
			}
		}
	}
	for k, req := range reqs {
		if want := freshDocument(t, req); !bytes.Equal(first[k], want) {
			t.Errorf("%s: served document differs from a fresh session's", req.Bench)
		}
	}
	if st := srv.Stats().Store; st.Misses != rounds*uint64(len(reqs)) || st.Evictions != st.Misses-1 || st.Entries != 1 {
		t.Fatalf("store ledger %+v: every read should rebuild an evicted session", st)
	}
}

// TestConcurrentFirstReadsAgree fires the first reads of one report at
// once: whichever of them renders and stores the document, all of them
// answer the same bytes, those of a fresh session.
func TestConcurrentFirstReadsAgree(t *testing.T) {
	_, ts := newTestServer(t)
	req := OptimizeRequest{Bench: "int_matmult", Level: "Os"}
	const readers = 8
	bodies := make([][]byte, readers)
	statuses := make([]int, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			statuses[i], _, bodies[i], errs[i] = optimizeWithTag(ts.URL, req)
		}()
	}
	wg.Wait()
	want := freshDocument(t, req)
	for i := range bodies {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if statuses[i] != http.StatusOK || !bytes.Equal(bodies[i], want) {
			t.Fatalf("reader %d: status %d, document differs from a fresh session's", i, statuses[i])
		}
	}
}

// TestInlineNamesShareOneSlot posts one inline source under 50 names.
// They share a session and a report, and each name is its own document:
// every answer must carry its own name, and the report must keep only
// the last one rendered, not one per name.
func TestInlineNamesShareOneSlot(t *testing.T) {
	srv, ts := newTestServer(t)
	base := OptimizeRequest{Source: tinySource, Level: "O2"}
	cell := mustResolve(t, base)
	fresh, err := evaluation.NewSweep(1).RunBenchmark(t.Context(), cell.Bench, cell.Level, cell.Opts)
	if err != nil {
		t.Fatal(err)
	}

	const names = 50
	tags := make([]string, names)
	var rep *core.Report
	for i := 0; i < names; i++ {
		req := base
		req.Name = fmt.Sprintf("kernel-%02d", i)
		status, etag, body, err := optimizeWithTag(ts.URL, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := evaluation.EncodeRun(&evaluation.Run{Bench: req.Name, Level: cell.Level, Report: fresh.Report})
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("%s: status %d, document differs from a fresh session's under that name:\n%s", req.Name, status, body)
		}
		tags[i] = etag
		if r := servedReport(t, srv, req); rep == nil {
			rep = r
		} else if r != rep {
			t.Fatalf("%s: answered from another report; the names should share one", req.Name)
		}
	}
	last, err := rep.Encoded(tags[names-1], mustNotRender(t))
	if err != nil || !bytes.Contains(last, []byte(`"kernel-49"`)) {
		t.Fatalf("the report keeps %q (err %v), want the last name's document", last, err)
	}
	rendered := false
	if _, err := rep.Encoded(tags[0], func() ([]byte, error) { rendered = true; return []byte("again"), nil }); err != nil {
		t.Fatal(err)
	}
	if !rendered {
		t.Fatal("the report still held the first name's document beside the last one's")
	}
}
