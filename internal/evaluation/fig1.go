package evaluation

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/power"
)

// Figure1Row is one bar of Figure 1: the average power of a 16-identical-
// instruction loop executing from the given memory.
type Figure1Row struct {
	Label   string
	Mem     power.Memory
	PowerMW float64
}

// figure1Iterations is sized so the measurement loop dwarfs the harness.
const figure1Iterations = 2000

// figure1Program builds the paper's micro-program: a loop of sixteen
// identical instructions of one kind, placed in flash or RAM. kind
// "flashload" is the last bar: the loop runs from RAM but loads a
// constant that lives in flash.
func figure1Program(kind string, inRAM bool) (*ir.Program, map[string]bool, error) {
	p := ir.NewProgram()
	f := p.AddFunc(&ir.Function{Name: "main"})

	entry := f.AddBlock("entry")
	eb := ir.Build(entry)
	eb.MovImm(isa.R2, 0) // iteration counter
	switch kind {
	case "store", "load":
		eb.LdrLit(isa.R1, "buf")
	case "flashload":
		eb.LdrLit(isa.R1, "rom")
	}
	placement := map[string]bool{}
	if inRAM {
		// Jump into the RAM-resident loop with the Figure 4 idiom.
		entry.Append(isa.Instr{Op: isa.LDRLIT, Rd: isa.PC, Sym: "loop"})
	}

	loop := f.AddBlock("loop")
	lb := ir.Build(loop)
	if kind == "branch" {
		// Sixteen unconditional branches through adjacent blocks.
		for i := 0; i < 16; i++ {
			var blk *ir.Block
			if i == 0 {
				blk = loop
			} else {
				blk = f.AddBlock(fmt.Sprintf("hop%d", i))
			}
			next := fmt.Sprintf("hop%d", i+1)
			if i == 15 {
				next = "latch"
			}
			ir.Build(blk).B(next)
			if inRAM {
				placement[blk.Label] = true
			}
		}
	} else {
		for i := 0; i < 16; i++ {
			switch kind {
			case "nop":
				lb.Nop()
			case "add":
				lb.Add(isa.R0, isa.R0, isa.R3)
			case "mul":
				lb.Mul(isa.R0, isa.R0, isa.R3)
			case "store":
				lb.Str(isa.R0, isa.R1, 0)
			case "load", "flashload":
				lb.Ldr(isa.R0, isa.R1, 0)
			default:
				return nil, nil, fmt.Errorf("evaluation: unknown figure-1 kind %q", kind)
			}
		}
		lb.B("latch")
		if inRAM {
			placement["loop"] = true
		}
	}

	// Loop tail, co-located with the loop: latch counts iterations and
	// falls through to the back edge; exit leaves through an indirect
	// branch so the same structure works from either memory.
	latch := f.AddBlock("latch")
	ir.Build(latch).
		AddImm(isa.R2, isa.R2, 1).
		LdrConst(isa.R4, figure1Iterations).
		Cmp(isa.R2, isa.R4).
		Bcond(isa.EQ, "exit")
	back := f.AddBlock("back")
	ir.Build(back).B("loop")
	exit := f.AddBlock("exit")
	exit.Append(isa.Instr{Op: isa.LDRLIT, Rd: isa.PC, Sym: "ret"})
	ret := f.AddBlock("ret")
	ir.Build(ret).Ret()
	if inRAM {
		placement["latch"] = true
		placement["back"] = true
		placement["exit"] = true
	}

	p.AddGlobal(&ir.Global{Name: "buf", Size: 4})
	p.AddGlobal(&ir.Global{Name: "rom", Size: 4, RO: true})
	p.Reindex()
	if err := ir.Verify(p); err != nil {
		return nil, nil, err
	}
	return p, placement, nil
}

// figure1Bars lists the Figure 1 measurements in plot order: each
// instruction class from flash, the same classes from RAM, and the tall
// final bar — RAM-resident code loading flash-resident data.
var figure1Bars = []struct {
	kind  string
	inRAM bool
	label string
}{
	{"store", false, "store"}, {"load", false, "load"}, {"add", false, "add"},
	{"nop", false, "nop"}, {"mul", false, "mul"}, {"branch", false, "branch"},
	{"store", true, "store"}, {"load", true, "load"}, {"add", true, "add"},
	{"nop", true, "nop"}, {"mul", true, "mul"}, {"branch", true, "branch"},
	{"flashload", true, "flash load"},
}

// Figure1 measures the average power of each instruction-class loop from
// flash and from RAM, plus the RAM-code/flash-data bar, on the simulated
// board — regenerating Figure 1 of the paper. Each micro-program is a
// one-measurement core.Session; the bars run across the sweep's worker
// pool in fixed plot order.
func (sw *Sweep) Figure1(ctx context.Context) ([]Figure1Row, error) {
	rows := make([]Figure1Row, len(figure1Bars))
	err := sw.forEach(ctx, len(figure1Bars), func(i int) error {
		bar := figure1Bars[i]
		p, placement, err := figure1Program(bar.kind, bar.inRAM)
		if err != nil {
			return err
		}
		sess, err := core.NewSession(p, core.SessionConfig{})
		if err != nil {
			return fmt.Errorf("figure1 %s: %w", bar.label, err)
		}
		m, err := sess.Measure(ctx, placement, false, 0)
		if err != nil {
			return fmt.Errorf("figure1 %s: %w", bar.label, err)
		}
		mem := power.Flash
		if bar.inRAM {
			mem = power.RAM
		}
		rows[i] = Figure1Row{Label: bar.label, Mem: mem, PowerMW: m.Metrics.PowerMW}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
