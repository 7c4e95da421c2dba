package sim_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/mcc"
	"repro/internal/power"
	"repro/internal/sim"
)

// summingObserver adds event energies in execution order — the per-uop
// accumulation the simulator used before the integer ledger — and, beside
// it, with Neumaier's compensated summation, which is within 2·2⁻⁵³ of
// the exact sum at these lengths.
type summingObserver struct {
	sum      float64
	hi, comp float64
	n        int
}

func (o *summingObserver) Event(e *sim.Event) {
	x := e.EnergyNJ
	o.sum += x
	t := o.hi + x
	if math.Abs(o.hi) >= math.Abs(x) {
		o.comp += (o.hi - t) + x
	} else {
		o.comp += (x - t) + o.hi
	}
	o.hi = t
	o.n++
}

// TestLedgerMatchesInOrderEventSum is the ledger's oracle over every BEEBS
// benchmark at O0–Os, on the all-flash baseline image and on the image
// the default pipeline (exact ILP, Figure 4 transform) produces:
//
//   - Σ over data memory of the ledger is CyclesByMem, and Σ over all
//     cells is Cycles, exactly;
//   - the ledger's EnergyNJ agrees with the in-order sum of the observer
//     event energies within the recursive-summation bound. Both sums
//     price the same cycles at the same per-cycle energies: the in-order
//     sum of n products errs by at most n·2⁻⁵³ of the total, and the
//     ledger's sum of at most 36 cell products by 36·2⁻⁵³, so they
//     differ by at most (n+36)·2⁻⁵³ relative;
//   - against the compensated sum of the same events, which errs by the
//     events' own product roundings (2⁻⁵³) plus 2·2⁻⁵³, the ledger is
//     within (36+3)·2⁻⁵³: its result does not drift with run length.
func TestLedgerMatchesInOrderEventSum(t *testing.T) {
	levels := []mcc.OptLevel{mcc.O0, mcc.O1, mcc.O2, mcc.O3, mcc.Os}
	const cells = 2 * int(isa.NumClasses) * 3
	worst, worstAt, worstExact := 0.0, "", 0.0
	for _, b := range beebs.All() {
		for _, level := range levels {
			prog, err := mcc.Compile(b.Source, level)
			if err != nil {
				t.Fatal(err)
			}
			base, err := layout.New(prog, layout.DefaultConfig(), nil)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := core.Optimize(prog, core.Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name, level, err)
			}
			for _, img := range []struct {
				name string
				img  *layout.Image
			}{{"baseline", base}, {"ilp", rep.Image}} {
				at := b.Name + " " + level.String() + " " + img.name
				m := sim.New(img.img, power.STM32F100())
				obs := &summingObserver{}
				m.Attach(obs)
				st, err := m.RunContext(context.Background())
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				led := m.Ledger()
				var total uint64
				for fm := range led {
					for cl := range led[fm] {
						var byMem uint64
						for _, c := range led[fm][cl] {
							byMem += c
						}
						if byMem != st.CyclesByMem[fm][cl] {
							t.Errorf("%s: ledger[%d][%v] sums to %d cycles, CyclesByMem has %d",
								at, fm, isa.Class(cl), byMem, st.CyclesByMem[fm][cl])
						}
						total += byMem
					}
				}
				if total != st.Cycles {
					t.Errorf("%s: ledger holds %d cycles, Stats.Cycles %d", at, total, st.Cycles)
				}
				rel := math.Abs(st.EnergyNJ-obs.sum) / obs.sum
				if bound := float64(obs.n+cells) * 0x1p-53; rel > bound {
					t.Errorf("%s: ledger %v nJ vs in-order %v nJ: relative delta %.3g above the bound %.3g (n=%d)",
						at, st.EnergyNJ, obs.sum, rel, bound, obs.n)
				}
				if rel > worst {
					worst, worstAt = rel, at
				}
				exact := obs.hi + obs.comp
				relExact := math.Abs(st.EnergyNJ-exact) / exact
				if bound := float64(cells+3) * 0x1p-53; relExact > bound {
					t.Errorf("%s: ledger %v nJ vs compensated %v nJ: relative delta %.3g above %.3g",
						at, st.EnergyNJ, exact, relExact, bound)
				}
				worstExact = max(worstExact, relExact)
			}
		}
	}
	t.Logf("largest relative ledger delta: %.3g vs the in-order sum (%s), %.3g vs the compensated sum",
		worst, worstAt, worstExact)
}
