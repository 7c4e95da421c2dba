package power

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// TestCyclesPositive: every instruction costs at least one cycle, in every
// outcome and from either memory.
func TestCyclesPositive(t *testing.T) {
	f := func(op, regList uint16, ram bool) bool {
		in := isa.Instr{Op: isa.Op(op % uint16(isa.BX+1)), RegList: regList}
		mem := Flash
		if ram {
			mem = RAM
		}
		for o := isa.Executed; o <= isa.PredicateFailed; o++ {
			if Cycles(&in, mem, mem, o) < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCyclesFigure4Primitives(t *testing.T) {
	cases := []struct {
		in   isa.Instr
		o    isa.Outcome
		want int
	}{
		{isa.Instr{Op: isa.LDRLIT, Rd: isa.PC, Sym: "l"}, isa.Executed, 4},
		{isa.Instr{Op: isa.B, Sym: "l"}, isa.Executed, 3},
		{isa.Instr{Op: isa.B, Cond: isa.NE, Sym: "l"}, isa.NotTaken, 1},
		{isa.Instr{Op: isa.BX, Rm: isa.R5}, isa.Executed, 3},
		{isa.Instr{Op: isa.IT, Cond: isa.NE}, isa.Executed, 1},
		{isa.Instr{Op: isa.LDRLIT, Rd: isa.R5, Sym: "l"}, isa.Executed, 2},
		{isa.Instr{Op: isa.LDRLIT, Cond: isa.NE, Rd: isa.R5, Sym: "l"}, isa.PredicateFailed, 1},
		{isa.Instr{Op: isa.POP, RegList: 1<<isa.R4 | 1<<isa.PC}, isa.Executed, 5}, // 1 + 2 regs + 2 refill
	}
	for _, c := range cases {
		if got := Cycles(&c.in, Flash, Flash, c.o); got != c.want {
			t.Errorf("%v (outcome %d) = %d cycles from flash, want %d", c.in.String(), c.o, got, c.want)
		}
	}
	ldrPC := isa.Instr{Op: isa.LDRLIT, Rd: isa.PC, Sym: "l"}
	if got := isa.Size(&ldrPC); got != 4 {
		t.Errorf("ldr pc,=l size = %d, want 4", got)
	}
}
