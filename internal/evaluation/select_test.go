package evaluation

import (
	"context"
	"repro/internal/core"
	"testing"

	"repro/internal/beebs"
	"repro/internal/mcc"
)

// TestBestConfigOrder pins the tie-break: the earliest candidate wins a
// tie, so duplicate configurations cannot flap the winner.
func TestBestConfigOrder(t *testing.T) {
	b := beebs.Get("crc32")
	best, err := NewSweep(1).BestConfig(context.Background(), b, mcc.O2, []Candidate{
		{Name: "first", Opts: core.Options{}},
		{Name: "same-again", Opts: core.Options{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Winner != "first" {
		t.Errorf("tie went to %q, want %q", best.Winner, "first")
	}
}
