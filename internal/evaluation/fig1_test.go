package evaluation

import (
	"context"
	"testing"
)

func TestFigure1Reproduction(t *testing.T) {
	rows, err := NewSweep(1).Figure1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[r.Label+"/"+r.Mem.String()] = r.PowerMW
		t.Logf("%-12s %-6s %6.2f mW", r.Label, r.Mem, r.PowerMW)
	}
	// Figure 1's shape: every RAM bar is well below its flash bar...
	for _, k := range []string{"store", "load", "add", "nop", "mul", "branch"} {
		fl, ram := byKey[k+"/flash"], byKey[k+"/ram"]
		if fl <= 0 || ram <= 0 {
			t.Fatalf("%s: missing rows", k)
		}
		if ram >= fl {
			t.Errorf("%s: RAM %.2f mW >= flash %.2f mW", k, ram, fl)
		}
	}
	// ...except the last bar: RAM code loading flash data is the tallest
	// RAM bar, near flash levels.
	cross := byKey["flash load/ram"]
	for _, k := range []string{"store", "load", "add", "nop", "mul", "branch"} {
		if cross <= byKey[k+"/ram"] {
			t.Errorf("cross-load %.2f mW should exceed RAM %s %.2f mW", cross, k, byKey[k+"/ram"])
		}
	}
	if cross < 0.8*byKey["load/flash"] {
		t.Errorf("cross-load %.2f mW should approach the flash load bar %.2f mW",
			cross, byKey["load/flash"])
	}
}
