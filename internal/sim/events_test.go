package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/power"
)

var updateEvents = flag.Bool("update-events", false, "rewrite testdata/events.golden from the current simulator")

// digestingObserver folds every Event field the observer contract
// promises into a running SHA-256, so a golden of a few bytes pins the
// whole per-instruction stream (energies by their exact float64 bits).
type digestingObserver struct {
	buf [64]byte
	h   hash.Hash
	n   int
}

func (d *digestingObserver) Event(e *Event) {
	b := d.buf[:0]
	b = append(b, e.Block.Block.Label...)
	b = append(b, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(e.Index))
	b = binary.LittleEndian.AppendUint32(b, e.PC)
	b = append(b, byte(e.Class), byte(e.FetchMem), byte(e.DataMem))
	b = binary.LittleEndian.AppendUint64(b, e.Cycles)
	b = binary.LittleEndian.AppendUint64(b, e.Stall)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.EnergyNJ))
	flags := byte(0)
	if e.Taken {
		flags |= 1
	}
	if e.BlockEntry {
		flags |= 2
	}
	b = append(b, flags)
	d.h.Write(b)
	d.n++
}

// TestEventStreamGolden pins the observer contract: the full Event
// stream of the Figure 2 program all-flash and of its RAM-placed,
// instrumented form (ldr pc, it/ldr/ldr/bx, RAM-port stalls) must match
// the checked-in digests exactly. Regenerate with -update-events only
// for a deliberate change of the charging model.
func TestEventStreamGolden(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*ir.Program, map[string]bool)
	}{
		{"figure2", func() (*ir.Program, map[string]bool) { return ir.Figure2Program(), nil }},
		{"figure2-optimized", optimizedFigure2},
	}
	var got strings.Builder
	for _, tc := range cases {
		p, inRAM := tc.build()
		m := New(mustImage(t, p, inRAM), power.STM32F100())
		h := sha256.New()
		obs := &digestingObserver{h: h}
		m.Attach(obs)
		if _, err := m.Run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&got, "%s %d %s\n", tc.name, obs.n, hex.EncodeToString(h.Sum(nil)))
	}

	path := filepath.Join("testdata", "events.golden")
	if *updateEvents {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-events to create)", err)
	}
	if got.String() != string(want) {
		t.Errorf("event stream digest changed:\ngot:\n%swant:\n%s", got.String(), want)
	}
}
