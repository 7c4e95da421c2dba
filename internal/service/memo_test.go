package service

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/evaluation"
	"repro/internal/mcc"
)

// TestCrossRequestMemoCorrectness is the cross-request sharing
// contract: N concurrent "requests" (distinct goroutines, as distinct
// tenants' connections would be) with identical stage inputs must
// produce byte-identical Report documents while executing every
// pipeline stage exactly once. It runs under -race in CI.
func TestCrossRequestMemoCorrectness(t *testing.T) {
	store := core.NewStore(0)
	sw := &evaluation.Sweep{Store: store}
	b := beebs.Get("crc32")
	opts := core.Options{Xlimit: 1.5}

	const requests = 8
	docs := make([][]byte, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := sw.Session(b, mcc.O2)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			rep, err := sess.Optimize(t.Context(), opts)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			doc := evaluation.NewRunJSON(&evaluation.Run{Bench: b.Name, Level: mcc.O2, Report: rep})
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(doc); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			docs[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i := 1; i < requests; i++ {
		if !bytes.Equal(docs[i], docs[0]) {
			t.Fatalf("request %d produced a different document:\n%s\nvs\n%s", i, docs[i], docs[0])
		}
	}

	// Exactly one execution of every stage: one compile (store miss) and
	// one miss per stage memo; every other lookup a hit.
	cs := store.Stats().Cache
	if cs.Misses != 1 || cs.Hits != requests-1 {
		t.Fatalf("store ledger = %+v, want 1 miss / %d hits", cs, requests-1)
	}
	st := store.Stats().Stages
	// (The cfg counter covers two memos — graphs and the derived spare-RAM
	// budget — so it is asserted via SimRuns below rather than here.)
	for name, stage := range map[string]core.StageStats{
		"baseline": st.Baseline, "freq": st.Freq,
		"model": st.Model, "solve": st.Solve, "transform": st.Transform,
		"optrun": st.OptRun, "optimize": st.Optimize,
	} {
		if stage.Misses != 1 {
			t.Errorf("stage %s executed %d times, want exactly 1 (ledger %+v)", name, stage.Misses, stage)
		}
	}
	if st.SimRuns != 2 {
		t.Errorf("sim runs = %d, want exactly 2 (baseline + optimized) across all %d requests", st.SimRuns, requests)
	}
}
