package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/evaluation"
	"repro/internal/service"
)

const tinySource = "int result[1];\nint main() { result[0] = 7; return 0; }\n"

// TestFlagsAndDaemonAgree feeds one table of requests through both
// surfaces: the flashram flags (requestFlags on a fresh FlagSet) and the
// daemon's strict JSON decode. The two must accept and reject the same
// rows; every rejection is errs.ErrBadInput and a 400 from /v1/optimize,
// and every accepted row resolves to the same cell on both paths.
func TestFlagsAndDaemonAgree(t *testing.T) {
	src := filepath.Join(t.TempDir(), "tiny.c")
	if err := os.WriteFile(src, []byte(tinySource), 0o644); err != nil {
		t.Fatal(err)
	}
	srcJSON, _ := json.Marshal(tinySource)
	rows := []struct {
		name string
		args []string
		body string
		ok   bool
	}{
		{"defaults", []string{"-bench", "crc32"}, `{"bench":"crc32"}`, true},
		{"inline source", []string{"-src", src, "-O", "Os"},
			`{"source":` + string(srcJSON) + `,"name":"` + src + `","level":"Os"}`, true},
		{"knob-heavy", []string{"-bench", "int_matmult", "-rspare", "512", "-xlimit", "1.25", "-profile", "-linktime",
			"-powertrace", "adversarial", "-ckptaware", "-checkpoint", "4096",
			"-solvenodes", "50", "-solvelpiter", "5000", "-solvetimeout", "60s"},
			`{"bench":"int_matmult","rspare":512,"xlimit":1.25,"use_profile":true,"link_time":true,` +
				`"power_trace":"adversarial","ckpt_aware":true,"checkpoint_cycles":4096,` +
				`"solve_max_nodes":50,"solve_max_lp_iter":5000,"solve_timeout_ms":60000}`, true},
		{"unsatisfiable xlimit", []string{"-bench", "crc32", "-xlimit", "0.5"}, `{"bench":"crc32","xlimit":0.5}`, false},
		{"negative node budget", []string{"-bench", "crc32", "-solvenodes", "-1"}, `{"bench":"crc32","solve_max_nodes":-1}`, false},
		{"negative pivot budget", []string{"-bench", "crc32", "-solvelpiter", "-1"}, `{"bench":"crc32","solve_max_lp_iter":-1}`, false},
		{"negative solve timeout", []string{"-bench", "crc32", "-solvetimeout", "-1s"}, `{"bench":"crc32","solve_timeout_ms":-1000}`, false},
		{"negative rspare", []string{"-bench", "crc32", "-rspare", "-5"}, `{"bench":"crc32","rspare":-5}`, false},
		{"unknown solver", []string{"-bench", "crc32", "-solver", "bogus"}, `{"bench":"crc32","solver":"bogus"}`, false},
		{"unknown level", []string{"-bench", "crc32", "-O", "O9"}, `{"bench":"crc32","level":"O9"}`, false},
		{"bench and source", []string{"-bench", "crc32", "-src", src},
			`{"bench":"crc32","source":` + string(srcJSON) + `}`, false},
		{"no program", nil, `{}`, false},
		{"unknown benchmark", []string{"-bench", "nope"}, `{"bench":"nope"}`, false},
		{"malformed power trace", []string{"-bench", "crc32", "-powertrace", "nonsense trace"},
			`{"bench":"crc32","power_trace":"nonsense trace"}`, false},
	}
	ts := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
	defer ts.Close()
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			fs := flag.NewFlagSet("flashram", flag.ContinueOnError)
			knobs := addRequestFlags(fs)
			if err := fs.Parse(row.args); err != nil {
				t.Fatal(err)
			}
			cliCell, cliErr := knobs.resolve()

			var req evaluation.Request
			dec := json.NewDecoder(strings.NewReader(row.body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				t.Fatal(err)
			}
			jsonCell, jsonErr := req.Resolve()

			hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize", strings.NewReader(row.body))
			if err != nil {
				t.Fatal(err)
			}
			// A valid request answers 304 to If-None-Match: * without
			// running the pipeline; an invalid one is rejected first.
			hreq.Header.Set("If-None-Match", "*")
			resp, err := http.DefaultClient.Do(hreq)
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()

			if !row.ok {
				for path, err := range map[string]error{"flags": cliErr, "json": jsonErr} {
					if !errors.Is(err, errs.ErrBadInput) {
						t.Errorf("%s: error %v, want errs.ErrBadInput", path, err)
					}
				}
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("daemon status %d, want 400: %s", resp.StatusCode, msg)
				}
				return
			}
			if cliErr != nil || jsonErr != nil {
				t.Fatalf("rejected a valid request: flags %v, json %v", cliErr, jsonErr)
			}
			if resp.StatusCode != http.StatusNotModified {
				t.Errorf("daemon status %d, want 304: %s", resp.StatusCode, msg)
			}
			if cliCell.Bench.Name != jsonCell.Bench.Name || cliCell.Bench.Source != jsonCell.Bench.Source ||
				cliCell.Level != jsonCell.Level {
				t.Errorf("program disagrees: flags %s at %v, json %s at %v",
					cliCell.Bench.Name, cliCell.Level, jsonCell.Bench.Name, jsonCell.Level)
			}
			if !reflect.DeepEqual(cliCell.Opts, jsonCell.Opts) {
				t.Errorf("options disagree:\nflags %+v\njson  %+v", cliCell.Opts, jsonCell.Opts)
			}
		})
	}
}

// A sub-millisecond solve budget cannot be spelled in the daemon's
// milliseconds; the flag rejects it instead of rounding it to "no limit".
func TestSubMillisecondBudgetRejected(t *testing.T) {
	fs := flag.NewFlagSet("flashram", flag.ContinueOnError)
	knobs := addRequestFlags(fs)
	if err := fs.Parse([]string{"-bench", "crc32", "-solvetimeout", "500us"}); err != nil {
		t.Fatal(err)
	}
	if _, err := knobs.resolve(); !errors.Is(err, errs.ErrBadInput) {
		t.Fatalf("-solvetimeout 500us: error %v, want errs.ErrBadInput", err)
	}
}

// flashram analyze validates its knobs with the same Request.Resolve:
// the rows TestFlagsAndDaemonAgree rejects for a bad knob are rejected
// here too, as errs.ErrBadInput from cells (which compiles nothing), and
// the command fails with flashram's own message.
func TestAnalyzeRejectsBadKnobs(t *testing.T) {
	rows := []struct {
		name string
		args []string
	}{
		{"unsatisfiable xlimit", []string{"-xlimit", "0.5"}},
		{"negative rspare", []string{"-rspare", "-5"}},
		{"unknown solver", []string{"-solver", "bogus"}},
		{"unknown level", []string{"-O", "O9"}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, target := range [][]string{{"-bench", "crc32"}, {"-all"}} {
				args := append(slices.Clone(target), row.args...)
				fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
				f := addAnalyzeFlags(fs)
				if err := fs.Parse(args); err != nil {
					t.Fatal(err)
				}
				if cells, err := f.cells(); !errors.Is(err, errs.ErrBadInput) {
					t.Errorf("analyze %v: %d cells, error %v, want errs.ErrBadInput", args, len(cells), err)
				}
			}
			args := append([]string{"-bench", "crc32"}, row.args...)
			_, stderr, code := runFlashram(t, append([]string{"analyze"}, args...)...)
			_, want, wantCode := runFlashram(t, args...)
			if code != 1 || wantCode != 1 || stderr != want {
				t.Errorf("analyze exit %d, stderr %q; flashram exit %d, stderr %q", code, stderr, wantCode, want)
			}
		})
	}
}

// TestCompileFailureReadsLikeTheDaemon: flashram runs its cell through
// the daemon's runner, so source that does not compile fails with the
// message /v1/optimize answers for the same request, source named by
// its path, and flashram profile fails the same way.
func TestCompileFailureReadsLikeTheDaemon(t *testing.T) {
	src := filepath.Join(t.TempDir(), "broken.c")
	if err := os.WriteFile(src, []byte("int main( {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(evaluation.Request{Source: "int main( {\n", Name: src})
	ts := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("daemon answered %d (%v), want a 400 envelope", resp.StatusCode, err)
	}
	for _, args := range [][]string{{"-src", src, "-json"}, {"profile", "-src", src}} {
		_, stderr, code := runFlashram(t, args...)
		if want := "flashram: " + doc.Error + "\n"; code != 1 || stderr != want {
			t.Errorf("flashram %s: exit %d, stderr %q; want exit 1, %q", strings.Join(args, " "), code, stderr, want)
		}
	}
}
