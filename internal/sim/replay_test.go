package sim

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/mcc"
	"repro/internal/power"
	"repro/internal/transform"
)

// replaySource is the fast-forward fuzz target's program: nested loops
// over a RAM array with a call in the inner loop, about 40k
// instructions — long enough for outages to land mid-replay, short
// enough to replay traced under -race.
const replaySource = `
int result[1];
int frame[48];

int fold(int v) {
    int k, acc = v;
    for (k = 0; k < 6; k++) {
        if (acc & 1) {
            acc = (acc >> 1) ^ 0x8c;
        } else {
            acc = acc >> 1;
        }
    }
    return acc;
}

int main() {
    int i, rep, sum = 0;
    for (i = 0; i < 48; i++) frame[i] = (i * 73 + 11) % 256;
    for (rep = 0; rep < 6; rep++) {
        for (i = 0; i < 48; i++) {
            sum = fold(sum ^ frame[i]);
            frame[i] = frame[i] + sum;
        }
    }
    result[0] = sum;
    return 0;
}
`

var replayProgram = sync.OnceValues(func() (*ir.Program, error) {
	return mcc.Compile(replaySource, mcc.O2)
})

// discardObserver forces per-instruction simulation and records nothing.
type discardObserver struct{}

func (discardObserver) Event(*Event) {}

// FuzzReplayFastForward is the replay fast-forward's oracle: a run that
// installs recorded lost segments must be indistinguishable from the
// observer-attached run of the same configuration, which simulates
// every instruction — on every IntermittentReport field (block counts
// included), the fault of a tripped MaxInstrs, the energy ledger, the
// registers and RAM. The fuzz bytes pick a placement (one bit per block,
// kept only when the Figure 4 transform and the layout accept it), the
// checkpoint interval, MaxInstrs and up to 16 outages scaled to the
// program's uninterrupted cycle count. The seed corpus under
// testdata/fuzz covers outages with no checkpoint, dense outages between
// small intervals, RAM placements, MaxInstrs tripping mid-replay and
// MaxInstrs capping which record may be installed; CI replays it under
// -race.
func FuzzReplayFastForward(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x10\x08\x20\x01\x05\x40"))
	f.Add([]byte("\x0f\x00\x02\x00\x03\x01\x03\x02\x03\x03\x03\x04\x03\x05"))
	f.Add([]byte("\x00\x00\x03\xf0\x01\x01\x01\x01\x01\x01\x01\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		prog, err := replayProgram()
		if err != nil {
			t.Fatal(err)
		}
		p := prog.Clone()
		inRAM := map[string]bool{}
		bit := 0
		for _, fn := range p.Funcs {
			if fn.Library {
				continue
			}
			for _, b := range fn.Blocks {
				if bit < 16 && data[bit/8]>>(bit%8)&1 != 0 {
					inRAM[b.Label] = true
				}
				bit++
			}
		}
		if _, err := transform.Apply(p, inRAM); err != nil {
			return
		}
		img, err := layout.New(p, layout.DefaultConfig(), inRAM)
		if err != nil {
			return // not in budget
		}
		plain, err := New(img, power.STM32F100()).Run()
		if err != nil {
			t.Fatalf("uninterrupted run: %v", err)
		}
		h := plain.Cycles

		var cfg IntermittentConfig
		switch sel := uint64(data[2]); sel % 4 {
		case 0:
			cfg.CheckpointCycles = 1 << 60 // none: every outage replays from reset
		case 1: // the default interval
		case 2:
			cfg.CheckpointCycles = h/16 + sel
		case 3:
			cfg.CheckpointCycles = 97 + 13*sel
		}
		var maxInstrs uint64
		if sel := uint64(data[3]); sel >= 200 {
			maxInstrs = plain.Instructions * (sel - 150) / 64
		}
		tr := &PowerTrace{}
		at := uint64(0)
		for k := 4; k+1 < len(data) && len(tr.Outages) < 16; k += 2 {
			at += 1 + uint64(data[k])*h/512
			tr.Outages = append(tr.Outages, Outage{At: at, Down: 1 + 8*uint64(data[k+1])})
		}
		cfg.Trace = tr

		fast := New(img, power.STM32F100())
		fast.MaxInstrs = maxInstrs
		fRep, fErr := fast.RunIntermittent(context.Background(), cfg)
		full := New(img, power.STM32F100())
		full.MaxInstrs = maxInstrs
		full.Attach(discardObserver{})
		sRep, sErr := full.RunIntermittent(context.Background(), cfg)

		switch {
		case (fErr == nil) != (sErr == nil):
			t.Fatalf("fault divergence: fast-forward=%v simulated=%v", fErr, sErr)
		case fErr != nil && fErr.Error() != sErr.Error():
			t.Fatalf("fault mismatch:\nfast-forward: %v\nsimulated:    %v", fErr, sErr)
		}
		if !reflect.DeepEqual(fRep, sRep) {
			t.Fatalf("report divergence:\nfast-forward: %+v\nsimulated:    %+v", fRep, sRep)
		}
		if !reflect.DeepEqual(fast.stats, full.stats) || fast.led != full.led || fast.regs != full.regs ||
			fast.n != full.n || fast.z != full.z || fast.c != full.c || fast.v != full.v ||
			string(fast.ram) != string(full.ram) {
			t.Fatalf("machine state divergence after the run")
		}
		if full.FastForwarded() != 0 {
			t.Fatalf("an observer-attached run fast-forwarded %d instructions", full.FastForwarded())
		}
		if fRep != nil && fast.FastForwarded() > fRep.ReplayedInstrs {
			t.Fatalf("fast-forwarded %d instructions, more than the %d replayed", fast.FastForwarded(), fRep.ReplayedInstrs)
		}
	})
}
