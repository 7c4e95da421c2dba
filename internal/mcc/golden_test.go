package mcc

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/beebs"
)

var updateCompile = flag.Bool("update-compile", false, "rewrite testdata/compile.golden from the current compiler")

const compileGolden = "testdata/compile.golden"

// sourceUnit is one named translation unit of a test corpus.
type sourceUnit struct {
	name    string
	src     string
	library bool // no main function (the soft-float runtime)
}

// goldenSources returns every source the compile golden covers: the ten
// BEEBS benchmarks and the examples/kernels C files.
func goldenSources(t testing.TB) []sourceUnit {
	t.Helper()
	var out []sourceUnit
	for _, b := range beebs.All() {
		out = append(out, sourceUnit{name: b.Name, src: b.Source})
	}
	paths, err := filepath.Glob("../../examples/kernels/*.c")
	if err != nil || len(paths) == 0 {
		t.Fatalf("examples/kernels: %v (%d files)", err, len(paths))
	}
	sort.Strings(paths)
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sourceUnit{name: "kernels/" + filepath.Base(p), src: string(src)})
	}
	return out
}

// TestCompileGolden pins the compiler's output: one SHA-256 of the printed
// program per (source, level). Optimizer and codegen speedups must leave
// every line unchanged; a deliberate codegen change regenerates the file
// with -update-compile and says why.
func TestCompileGolden(t *testing.T) {
	var lines []string
	for _, s := range goldenSources(t) {
		for _, level := range allLevels {
			prog, err := Compile(s.src, level)
			if err != nil {
				t.Fatalf("%s/%v: %v", s.name, level, err)
			}
			lines = append(lines, fmt.Sprintf("%s %v %x", s.name, level, sha256.Sum256([]byte(prog.String()))))
		}
	}
	if *updateCompile {
		if err := os.WriteFile(compileGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(compileGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-compile to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(want) != len(lines) {
		t.Fatalf("golden has %d lines, compiler produced %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("compile output changed:\n got  %s\n want %s", lines[i], want[i])
		}
	}
}
