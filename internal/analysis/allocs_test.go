package analysis

import (
	"testing"

	"repro/internal/layout"
	"repro/internal/mcc"
)

// TestAnalyzeAllocationCeiling bounds the suite's allocations on
// float_matmult O2 at its ILP placement, soft-float library included.
// The suite encodes the image once, decodes each instruction into a
// value and derives liveness only for a function holding a rewrite it
// checks: a second encode, a heap-allocated decode or per-function
// liveness each add a thousand allocations or more and fail the ceiling.
func TestAnalyzeAllocationCeiling(t *testing.T) {
	const ceiling = 5700
	orig, opt, inRAM, rspare := optimizedProgram(t, "float_matmult", mcc.O2)
	img, err := layout.New(opt, layout.DefaultConfig(), inRAM)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Original: orig, Prog: opt, InRAM: inRAM, Config: layout.DefaultConfig(), Image: img, Rspare: rspare}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Analyze(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("analysis.Analyze allocates %.0f times per run, ceiling %d", allocs, ceiling)
	}
	t.Logf("%.0f allocations per run", allocs)
}
