// Package casestudy implements the paper's §7 periodic-sensing analysis:
// a device wakes every T seconds, runs an active region (e.g. the FDCT),
// then sleeps at quiescent power PS. Equations 10–12 of the paper:
//
//	E  = E0 + PS·(T − TA)                        (10)
//	E' = ke·E0 + PS·(T − kt·TA)                  (11)
//	Es = E − E' = E0·(1 − ke) + PS·TA·(kt − 1)   (12)
//
// The counter-intuitive headline: because the optimized code runs longer
// (kt > 1) at lower power, the device spends less time in the (relatively
// expensive) sleep state, so total energy can drop even when the active
// region's energy does not.
package casestudy

import (
	"fmt"
	"math"
)

// Scenario is one periodic-sensing deployment.
type Scenario struct {
	// E0 is the active-region energy before optimization, in mJ.
	E0 float64
	// TA is the active-region execution time before optimization, in s.
	TA float64
	// Ke is optimized/baseline active energy (≤ 1 when the optimization
	// helps).
	Ke float64
	// Kt is optimized/baseline active time (≥ 1: instrumentation costs
	// cycles).
	Kt float64
	// PS is the sleep-state power in mW (3.5 mW measured in §7).
	PS float64
}

// PaperScenario returns the §7 fdct example exactly as printed:
// E0 = 16.9 mJ, TA = 1.18 s, ke = 0.825, kt = 1.33, PS = 3.5 mW.
func PaperScenario() Scenario {
	return Scenario{E0: 16.9, TA: 1.18, Ke: 0.825, Kt: 1.33, PS: 3.5}
}

// Validate rejects physically meaningless scenarios.
func (s Scenario) Validate() error {
	switch {
	case s.E0 <= 0 || s.TA <= 0:
		return fmt.Errorf("casestudy: active region must have positive energy and time")
	case s.Ke < 0 || s.Kt <= 0:
		return fmt.Errorf("casestudy: invalid ke=%v kt=%v", s.Ke, s.Kt)
	case s.PS < 0:
		return fmt.Errorf("casestudy: negative sleep power")
	}
	return nil
}

// MinPeriod returns the smallest period that fits the optimized active
// region (T ≥ kt·TA).
func (s Scenario) MinPeriod() float64 { return s.Kt * s.TA }

// BaselineEnergy is Eq. 10: energy per period without the optimization,
// in mJ.
func (s Scenario) BaselineEnergy(T float64) float64 {
	return s.E0 + s.PS*(T-s.TA)
}

// OptimizedEnergy is Eq. 11: energy per period with the optimization.
func (s Scenario) OptimizedEnergy(T float64) float64 {
	return s.Ke*s.E0 + s.PS*(T-s.Kt*s.TA)
}

// EnergySaved is Eq. 12; note it is independent of the period T.
func (s Scenario) EnergySaved() float64 {
	return s.E0*(1-s.Ke) + s.PS*s.TA*(s.Kt-1)
}

// EnergyRatio returns E'/E for the period — the Figure 9 y-axis
// ("Energy consumption (%)" is 100× this).
func (s Scenario) EnergyRatio(T float64) float64 {
	return s.OptimizedEnergy(T) / s.BaselineEnergy(T)
}

// BatteryLifeExtension returns the fractional battery-life increase for
// a fixed battery capacity: periods-per-charge scale inversely with
// energy-per-period, so the extension is E/E' − 1.
func (s Scenario) BatteryLifeExtension(T float64) float64 {
	return 1/s.EnergyRatio(T) - 1
}

// Point is one entry of a Figure 9 sweep.
type Point struct {
	T             float64 // period, s
	Multiple      float64 // T / TA (the x-axis points of Figure 9)
	EnergyPercent float64 // 100 · E'/E
	LifeExtension float64 // fractional battery-life extension
}

// Sweep evaluates the scenario at T = TA·multiples (Figure 9 plots points
// at integer multiples of the active-region time; the first point is
// T = TA, i.e. no sleep at all — the paper clamps it to the optimized
// region's duration).
func (s Scenario) Sweep(multiples []float64) []Point {
	out := make([]Point, 0, len(multiples))
	for _, m := range multiples {
		T := m * s.TA
		if T < s.MinPeriod() {
			T = s.MinPeriod()
		}
		out = append(out, Point{
			T:             T,
			Multiple:      m,
			EnergyPercent: 100 * s.EnergyRatio(T),
			LifeExtension: s.BatteryLifeExtension(T),
		})
	}
	return out
}

// BestSaving returns the maximum percentage saving over the sweep (the
// "up to 25%" of §7) and the corresponding battery-life extension (the
// "up to 32%").
func (s Scenario) BestSaving(multiples []float64) (savingPct, lifeExt float64) {
	for _, p := range s.Sweep(multiples) {
		if sv := 100 - p.EnergyPercent; sv > savingPct {
			savingPct = sv
			lifeExt = p.LifeExtension
		}
	}
	return savingPct, lifeExt
}

// Figure8 reproduces the illustration of Figure 8: an active region that
// keeps the same energy but takes twice as long at half the power, inside
// a fixed period with 1 mW sleep. Returns the unoptimized and optimized
// per-period energies in µJ (60 and 55 in the paper).
func Figure8() (unoptUJ, optUJ float64) {
	const (
		period  = 15e-3 // s
		sleepMW = 1.0
	)
	// Unoptimized: 10 mW for 5 ms; optimized: 5 mW for 10 ms.
	unopt := 10.0*5e-3 + sleepMW*(period-5e-3)
	opt := 5.0*10e-3 + sleepMW*(period-10e-3)
	return unopt * 1e3, opt * 1e3 // mW·s = mJ → µJ ×1e3
}

// BreakEvenKt returns, for a given ke, the kt above which the optimization
// saves energy even with NO active-energy reduction at all — solving
// Es = 0 for the boundary (Eq. 12). For ke = 1 any kt > 1 saves energy,
// so the function reports the marginal saving rate instead via Es.
func BreakEvenKt(e0, ta, ke, ps float64) float64 {
	if ps == 0 || ta == 0 {
		return math.Inf(1)
	}
	return 1 - e0*(1-ke)/(ps*ta)
}
