package layout

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isa"
)

// StackAnalysis is the result of the static stack-usage analysis the
// paper references for deriving Rspare (§4.1, citing Brylow et al.'s
// static checking): the worst-case stack depth over the call graph.
type StackAnalysis struct {
	// MaxDepth is the worst-case stack bytes consumed from the entry
	// function, including every frame on the deepest call path.
	MaxDepth int
	// PerFunction is each function's own activation size (pushed
	// registers + local frame).
	PerFunction map[string]int
	// DeepestPath is one call chain achieving MaxDepth.
	DeepestPath []string
}

// AnalyzeStack computes the worst-case stack usage of the program by
// walking the call graph. It fails on recursion (unbounded stack) and on
// indirect calls it cannot resolve — a blx is resolved when the scratch
// register was just loaded with `ldr rX, =function` (the shape our own
// instrumentation emits).
func AnalyzeStack(p *ir.Program) (*StackAnalysis, error) {
	an := &StackAnalysis{PerFunction: make(map[string]int, len(p.Funcs))}
	for _, f := range p.Funcs {
		an.PerFunction[f.Name] = frameBytes(f)
	}

	type state int
	const (
		unvisited state = iota
		inProgress
		done
	)
	st := make(map[string]state, len(p.Funcs))
	depth := make(map[string]int, len(p.Funcs))
	deepCallee := make(map[string]string)

	var visit func(name string) error
	visit = func(name string) error {
		switch st[name] {
		case done:
			return nil
		case inProgress:
			return fmt.Errorf("layout: stack analysis: recursion through %q (unbounded stack)", name)
		}
		st[name] = inProgress
		f := p.Func(name)
		if f == nil {
			return fmt.Errorf("layout: stack analysis: unknown function %q", name)
		}
		worst := 0
		for _, callee := range callees(f) {
			if callee == "" {
				return fmt.Errorf("layout: stack analysis: unresolvable indirect call in %q", name)
			}
			if err := visit(callee); err != nil {
				return err
			}
			if depth[callee] > worst {
				worst = depth[callee]
				deepCallee[name] = callee
			}
		}
		depth[name] = an.PerFunction[name] + worst
		st[name] = done
		return nil
	}
	if err := visit(p.Entry); err != nil {
		return nil, err
	}
	an.MaxDepth = depth[p.Entry]
	for name := p.Entry; name != ""; name = deepCallee[name] {
		an.DeepestPath = append(an.DeepestPath, name)
	}
	return an, nil
}

// frameBytes sums a function's activation record: pushed registers plus
// explicit stack adjustment in its entry block.
func frameBytes(f *ir.Function) int {
	entry := f.Entry()
	if entry == nil {
		return 0
	}
	bytes := 0
	for i := range entry.Instrs {
		in := &entry.Instrs[i]
		switch {
		case in.Op == isa.PUSH:
			n := 0
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if in.RegList&(1<<r) != 0 {
					n++
				}
			}
			bytes += 4 * n
		case in.Op == isa.SUB && in.Rd == isa.SP && in.Rn == isa.SP && in.HasImm:
			bytes += int(in.Imm)
		}
	}
	return bytes
}

// callees lists the functions a function can call. Direct bl targets are
// returned by name; an unresolvable indirect call yields "".
func callees(f *ir.Function) []string {
	var out []string
	seen := map[string]bool{}
	for _, b := range f.Blocks {
		lastLit := ""           // symbol most recently loaded with ldr =f
		lastLitReg := isa.NoReg // ...and the register holding it
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case isa.BL:
				if !seen[in.Sym] {
					seen[in.Sym] = true
					out = append(out, in.Sym)
				}
			case isa.LDRLIT:
				if in.Rd != isa.PC && in.Sym != "" {
					lastLit, lastLitReg = in.Sym, in.Rd
				}
			case isa.BLX:
				// Resolvable only as the ldr rX,=f; blx rX idiom.
				if lastLit != "" && in.Rm == lastLitReg {
					if !seen[lastLit] {
						seen[lastLit] = true
						out = append(out, lastLit)
					}
				} else {
					out = append(out, "")
				}
			default:
				// A write to the literal-holding register invalidates
				// the pending resolution.
				for _, d := range in.Defs() {
					if d == lastLitReg {
						lastLit, lastLitReg = "", isa.NoReg
					}
				}
			}
		}
	}
	return out
}
