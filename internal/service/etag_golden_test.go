package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

var updateETag = flag.Bool("update-etag", false, "rewrite testdata/etag.golden from the current server")

const etagGolden = "testdata/etag.golden"

// etagRequests are the requests whose validators are pinned: the load
// test's DefaultMix, one request setting every pipeline knob, and two
// spellings the CLI produces (an explicit solver, inline source).
func etagRequests() []OptimizeRequest {
	return append(DefaultMix(),
		OptimizeRequest{
			Bench: "int_matmult", Level: "O2",
			Rspare: 512, Xlimit: 1.25, UseProfile: true, LinkTime: true,
			PowerTrace: "adversarial", CkptAware: true, CheckpointCycles: 4096,
			SolveMaxNodes: 50, SolveMaxLPIter: 5000, SolveTimeoutMS: 60000,
		},
		OptimizeRequest{Bench: "crc32", Level: "O2", Solver: "ilp"},
		OptimizeRequest{Source: tinySource, Name: "tiny.c", Level: "Os", Solver: "greedy", MaxInstrs: 1 << 20})
}

// TestETagGolden pins the /v1/optimize entity tag of every request in
// etagRequests: a client's cached validator must keep matching across
// refactors of the request path. If-None-Match: * answers 304 with the
// tag after validation, so no pipeline runs. A deliberate change to the
// fingerprint regenerates the file with -update-etag and says why.
func TestETagGolden(t *testing.T) {
	_, ts := newTestServer(t)
	var got []string
	for _, req := range etagRequests() {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("If-None-Match", "*")
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("%s: status %d, want 304: %s", body, resp.StatusCode, msg)
		}
		// The inline source is long; the golden names it by its label.
		req.Source = ""
		key, _ := json.Marshal(req)
		got = append(got, fmt.Sprintf("%s %s", key, resp.Header.Get("ETag")))
	}
	if *updateETag {
		if err := os.WriteFile(etagGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(etagGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-etag to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("golden has %d lines, the server produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("entity tag changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
