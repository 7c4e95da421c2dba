package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

var updateAnalyze = flag.Bool("update-analyze", false, "rewrite testdata/analyze.golden from the current analyze output")

const analyzeGolden = "testdata/analyze.golden"

// mainArgsEnv makes the test binary act as the flashram command: when it
// is set, TestMain runs main with the tab-separated arguments it holds
// instead of the tests. The command-level tests drive flashram through
// it, so they see its real stdout, stderr and exit code.
const mainArgsEnv = "FLASHRAM_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"flashram"}, strings.Split(args, "\t")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runFlashram runs the flashram command with args in a child process and
// returns its stdout, stderr and exit code.
func runFlashram(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, "\t"))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("flashram %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errOut.String(), code
}

// TestAnalyzeGolden pins the `flashram analyze -json` documents byte for
// byte: the default suite plus the energy-bounds pass over every BEEBS
// benchmark at O2 and Os, the untransformed lint at O2, and both
// examples/kernels sources at O2 and Os. Each invocation must also exit
// 0 with nothing on stderr. A deliberate change to the analysis or the
// pipeline regenerates the file with -update-analyze and says why.
func TestAnalyzeGolden(t *testing.T) {
	invocations := [][]string{
		{"analyze", "-all", "-bounds", "-O", "O2", "-json"},
		{"analyze", "-all", "-bounds", "-O", "Os", "-json"},
		{"analyze", "-all", "-baseline", "-O", "O2", "-json"},
	}
	for _, k := range []string{"biquad", "checksum"} {
		for _, lv := range []string{"O2", "Os"} {
			invocations = append(invocations,
				[]string{"analyze", "-src", "../../examples/kernels/" + k + ".c", "-bounds", "-O", lv, "-json"})
		}
	}
	var got bytes.Buffer
	for _, args := range invocations {
		stdout, stderr, code := runFlashram(t, args...)
		if code != 0 || stderr != "" {
			t.Fatalf("flashram %s: exit %d, stderr %q", strings.Join(args, " "), code, stderr)
		}
		fmt.Fprintf(&got, "$ flashram %s\n%s", strings.Join(args, " "), stdout)
	}
	checkGolden(t, analyzeGolden, got.Bytes(), *updateAnalyze, "-update-analyze")
}

// checkGolden compares got with the golden file at path, or rewrites the
// file when update is set. A mismatch reports the first changed line, or
// the line counts when one document is a prefix of the other.
func checkGolden(t *testing.T, path string, got []byte, update bool, updateFlag string) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with %s to create it)", err, updateFlag)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("line %d changed:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	t.Fatalf("%d lines, golden has %d", len(g), len(w))
}
