package evaluation_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/beebs"
	"repro/internal/evaluation"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/mcc"
	"repro/internal/transform"
)

// widthsSource reaches every width arm of the code generator's loads,
// stores and extensions, which the benchmarks happen not to: signed and
// unsigned byte and halfword loads, byte and halfword stores, and casts
// to each narrow type.
const widthsSource = `
signed char sb[4];
unsigned char ub[4];
short sh[4];
unsigned short uh[4];
int result[4];

int main() {
    int i, v = 1000;
    for (i = 0; i < 4; i++) {
        sb[i] = (signed char)(v + i);
        ub[i] = (unsigned char)(v - i);
        sh[i] = (short)(v * i);
        uh[i] = (unsigned short)(v ^ i);
        v = v * 3;
    }
    result[0] = sb[1] + sh[2];
    result[1] = uh[3] + ub[0];
    result[2] = (short)result[0] + (signed char)result[1];
    result[3] = (unsigned short)result[1] + (unsigned char)result[0];
    return 0;
}
`

// setccSource uses comparisons as values, which mcc lowers to
// it<c>; mov<c> rd, #1 — a form no benchmark or kernel reaches.
const setccSource = `
int r[8];

int main() {
    int i, a = 3;
    for (i = 0; i < 8; i++) {
        r[i] = (a < i) + (a == i) * 2;
    }
    return 0;
}
`

// TestProducersEmitTheModeledISA pins isa.OpForms to what the system
// emits. It collects every (op, form, predicated) triple of: every BEEBS
// benchmark, every examples/kernels source, widthsSource and setccSource
// compiled at every level (the soft-float runtime comes in with the float
// benchmarks), each as compiled and transformed under an all-RAM and
// three seeded random placements; the Figure 1 micro-programs; and Figure
// 2's program. The collected set must equal isa.OpForms: a triple nothing
// produces has no place in the model, and a produced triple outside it
// fails ir.Verify before it gets here.
func TestProducersEmitTheModeledISA(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and transforms every source at every level")
	}
	seen := map[isa.OpForm]bool{}
	collect := func(p *ir.Program) {
		for _, f := range p.Funcs {
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					seen[isa.OpForm{Op: in.Op, Form: isa.FormOf(in), Pred: in.Cond != isa.AL}] = true
				}
			}
		}
	}
	transformed := func(p *ir.Program, inRAM map[string]bool) {
		t.Helper()
		q := p.Clone()
		if _, err := transform.ApplyLinkTime(q, inRAM); err != nil {
			t.Fatal(err)
		}
		collect(q)
	}

	sources := map[string]string{"widths": widthsSource, "setcc": setccSource}
	for _, b := range beebs.All() {
		sources[b.Name] = b.Source
	}
	kernels, err := filepath.Glob("../../examples/kernels/*.c")
	if err != nil || len(kernels) == 0 {
		t.Fatalf("no kernel sources: %v", err)
	}
	for _, path := range kernels {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sources[path] = string(src)
	}
	for name, src := range sources {
		for _, level := range []mcc.OptLevel{mcc.O0, mcc.O1, mcc.O2, mcc.O3, mcc.Os} {
			p, err := mcc.Compile(src, level)
			if err != nil {
				t.Fatalf("%s at %v: %v", name, level, err)
			}
			collect(p)
			all := map[string]bool{}
			for _, f := range p.Funcs {
				for _, b := range f.Blocks {
					all[b.Label] = true
				}
			}
			transformed(p, all)
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				inRAM := map[string]bool{}
				for label := range all {
					inRAM[label] = rng.Intn(2) == 0
				}
				transformed(p, inRAM)
			}
		}
	}
	fig1, err := evaluation.Figure1Programs()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fig1 {
		collect(p)
	}
	collect(ir.Figure2Program())

	modeled := map[isa.OpForm]bool{}
	for _, of := range isa.OpForms() {
		modeled[of] = true
		if !seen[of] {
			t.Errorf("no producer emits %v in %v form (predicated %v); delete it from the modeled set", of.Op, of.Form, of.Pred)
		}
	}
	for of := range seen {
		if !modeled[of] {
			t.Errorf("%v in %v form (predicated %v) is produced but outside isa.OpForms", of.Op, of.Form, of.Pred)
		}
	}
}
