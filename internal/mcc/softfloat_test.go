package mcc

import (
	"sync"
	"testing"

	"repro/internal/beebs"
	"repro/internal/ir"
	"repro/internal/isa"
)

// checkFreshRuntime asserts that prog links a soft-float runtime identical
// to one compiled from scratch, and that its printed form is want.
func checkFreshRuntime(t *testing.T, prog *ir.Program, want string) {
	t.Helper()
	fresh, err := compileSoftFloat()
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Funcs) < len(fresh.Funcs) {
		t.Fatalf("%d functions, runtime alone has %d", len(prog.Funcs), len(fresh.Funcs))
	}
	for i, rf := range fresh.Funcs {
		f := prog.Funcs[i]
		if f.Name != rf.Name || !f.Library || f.String() != rf.String() {
			t.Errorf("runtime function %d: got %q (library %v), want %q from a fresh compile", i, f.Name, f.Library, rf.Name)
		}
		for bi, b := range f.Blocks {
			if b.Func != f || b.Index != bi {
				t.Errorf("%s block %d: back-pointers not reindexed", f.Name, bi)
			}
		}
	}
	if got := prog.String(); got != want {
		t.Errorf("program changed between compiles:\n%s\nwant:\n%s", got, want)
	}
}

// TestSoftFloatRuntimeIsolation edits one float program's runtime blocks
// in place — instructions, labels, block lists — and checks that the next
// compile still links the pristine runtime.
func TestSoftFloatRuntimeIsolation(t *testing.T) {
	src := beebs.Get("cubic").Source
	first, err := Compile(src, O2)
	if err != nil {
		t.Fatal(err)
	}
	want := first.String()
	lib := 0
	for _, f := range first.Funcs {
		if !f.Library {
			continue
		}
		lib++
		for _, b := range f.Blocks {
			b.Label += "_clobbered"
			for i := range b.Instrs {
				b.Instrs[i].Sym = "clobbered"
				b.Instrs[i].Imm++
			}
			b.Instrs = append(b.Instrs, isa.NewInstr(isa.NOP))
		}
		f.Blocks = append(f.Blocks[:1], f.Blocks...)
	}
	if lib == 0 {
		t.Fatal("cubic links no soft-float runtime")
	}
	second, err := Compile(src, O2)
	if err != nil {
		t.Fatal(err)
	}
	checkFreshRuntime(t, second, want)
}

// TestConcurrentFloatCompiles compiles both float benchmarks from many
// goroutines at once (run it under -race): every result must match a
// sequential compile and link a pristine runtime.
func TestConcurrentFloatCompiles(t *testing.T) {
	type job struct {
		name  string
		level OptLevel
	}
	var jobs []job
	want := map[job]string{}
	for _, name := range []string{"cubic", "float_matmult"} {
		for _, level := range []OptLevel{O2, Os} {
			j := job{name, level}
			jobs = append(jobs, j)
			prog, err := Compile(beebs.Get(name).Source, level)
			if err != nil {
				t.Fatal(err)
			}
			want[j] = prog.String()
		}
	}
	const workers = 8
	results := make([]*ir.Program, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			j := jobs[w%len(jobs)]
			results[w], errs[w] = Compile(beebs.Get(j.name).Source, j.level)
			if errs[w] == nil && len(results[w].Funcs) > 0 {
				// Rewrite this copy's runtime while the others compile.
				results[w].Funcs[0].Blocks[0].Instrs[0].Imm++
				results[w].Funcs[0].Blocks[0].Instrs[0].Imm--
			}
		}(w)
	}
	wg.Wait()
	for w, prog := range results {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		checkFreshRuntime(t, prog, want[jobs[w%len(jobs)]])
	}
}
