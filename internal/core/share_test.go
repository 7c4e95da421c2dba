package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/beebs"
	"repro/internal/mcc"
)

// TestBudgetsShareOnePlacement: RAM budgets that land on one placement
// share its transformed program, report and image, while each budget's
// static analysis is its own and equals a fresh session's at that
// budget. The budgets run concurrently, so the analyses read the shared
// image side by side.
func TestBudgetsShareOnePlacement(t *testing.T) {
	prog, err := mcc.Compile(beebs.Get("crc32").Source, mcc.O2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(prog, SessionConfig{WarmSolve: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	budgets := []float64{4096, 5120, 6144, 8192}
	reps := make([]*Report, len(budgets))
	fails := make([]error, len(budgets))
	var wg sync.WaitGroup
	for i, rs := range budgets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], fails[i] = s.Optimize(ctx, Options{Rspare: rs})
		}()
	}
	wg.Wait()
	for _, err := range fails {
		if err != nil {
			t.Fatal(err)
		}
	}
	first := reps[0]
	if len(first.MovedLabels()) == 0 {
		t.Fatal("precondition: the placement is empty")
	}
	for i, rep := range reps[1:] {
		if !reflect.DeepEqual(rep.MovedLabels(), first.MovedLabels()) {
			t.Fatalf("precondition: budget %v placed %v, budget %v placed %v",
				budgets[i+1], rep.MovedLabels(), budgets[0], first.MovedLabels())
		}
		if rep.Image != first.Image || rep.Optimized0 != first.Optimized0 || rep.Transform != first.Transform {
			t.Errorf("budget %v does not share the placement's image, program and transform report", budgets[i+1])
		}
		if rep.Analysis == first.Analysis {
			t.Errorf("budget %v shares budget %v's analysis", budgets[i+1], budgets[0])
		}
	}
	if st := s.Stats().Transform; st.Misses != uint64(len(budgets)) {
		t.Errorf("transform ledger %+v, want one miss per budget", st)
	}
	for i, rs := range budgets {
		fresh, err := NewSession(prog, SessionConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Optimize(ctx, Options{Rspare: rs})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reps[i].Analysis, want.Analysis) {
			t.Errorf("budget %v: analysis\n%v\nfresh session's\n%v", rs, reps[i].Analysis, want.Analysis)
		}
	}

	// The budget is the MM005 threshold: one byte under the image's RAM
	// code warns, the exact size does not. Both still share the image.
	inRAM := first.Placement.InRAM
	pl := canonicalPlacement(inRAM)
	code := float64(first.Image.RAMCodeBytes)
	for _, tc := range []struct {
		rspare float64
		warns  bool
	}{{code - 1, true}, {code, false}} {
		tf, err := s.transformFor(transformKey{placement: pl, rspare: tc.rspare}, inRAM)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(tf.ares.ByCode("MM005")) > 0; got != tc.warns {
			t.Errorf("rspare %v against %v RAM code bytes: MM005 %v, want %v", tc.rspare, code, got, tc.warns)
		}
		if tf.img != first.Image {
			t.Errorf("rspare %v: a new image for the same placement", tc.rspare)
		}
	}

	// The Figure 4 and link-time forms of one placement are two programs.
	lt, err := s.transformFor(transformKey{placement: pl, linkTime: true, rspare: budgets[0]}, inRAM)
	if err != nil {
		t.Fatal(err)
	}
	if lt.img == first.Image || lt.prog == first.Optimized0 || lt.trep == first.Transform {
		t.Error("the link-time form shares the Figure 4 form's artifacts")
	}
}
