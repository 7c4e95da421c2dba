package analysis

import (
	"strings"
	"testing"

	"repro/internal/beebs"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/mcc"
	"repro/internal/transform"
)

// Mutation tests: each pass must flag a deliberately seeded violation with
// its exact diagnostic code. Corruption happens AFTER layout.New succeeds,
// because the layout engine itself rejects most malformed inputs at build
// time — the analysis suite exists to catch the artifacts that desync
// after that point.

// mutant is a freshly built pipeline artifact set, ready to be corrupted.
type mutant struct {
	orig, opt *ir.Program
	inRAM     map[string]bool
	img       *layout.Image
	rspare    float64
}

func buildMutant(t *testing.T, bench string, level mcc.OptLevel) *mutant {
	t.Helper()
	orig, opt, inRAM, rspare := optimizedProgram(t, bench, level)
	img, err := layout.New(opt, layout.DefaultConfig(), inRAM)
	if err != nil {
		t.Fatal(err)
	}
	return &mutant{orig: orig, opt: opt, inRAM: inRAM, img: img, rspare: rspare}
}

func (m *mutant) ctx() *Context {
	return &Context{
		Original: m.orig, Prog: m.opt, InRAM: m.inRAM,
		Config: layout.DefaultConfig(), Image: m.img, Rspare: m.rspare,
	}
}

// buildSplitMutant places every other block of each non-library function
// in RAM. The ILP solver tends to move small benchmarks wholesale — a
// placement with no cross edges at all — so tests that need the Figure 4
// instrumentation shapes (ldr pc, it/ldr/ldr/bx) force a split placement
// with plenty of flash↔RAM boundaries instead.
func buildSplitMutant(t *testing.T, bench string, level mcc.OptLevel) *mutant {
	t.Helper()
	prog, err := mcc.Compile(beebs.Get(bench).Source, level)
	if err != nil {
		t.Fatal(err)
	}
	inRAM := map[string]bool{}
	for _, f := range prog.Funcs {
		if f.Library {
			continue
		}
		for i, b := range f.Blocks {
			if i%2 == 0 {
				inRAM[b.Label] = true
			}
		}
	}
	opt := prog.Clone()
	if _, err := transform.Apply(opt, inRAM); err != nil {
		t.Fatal(err)
	}
	img, err := layout.New(opt, layout.DefaultConfig(), inRAM)
	if err != nil {
		t.Fatal(err)
	}
	return &mutant{orig: prog, opt: opt, inRAM: inRAM, img: img}
}

// findMutant builds benchmark artifacts (via build) until corrupt manages
// to seed its violation, returning the corrupted mutant.
func findMutant(t *testing.T, build func(*testing.T, string, mcc.OptLevel) *mutant, corrupt func(m *mutant) bool) *mutant {
	t.Helper()
	for _, b := range beebs.All() {
		for _, level := range []mcc.OptLevel{mcc.O2, mcc.Os} {
			m := build(t, b.Name, level)
			if corrupt(m) {
				return m
			}
		}
	}
	t.Fatal("no benchmark offers the required corruption site")
	return nil
}

// runPass executes a single pass and requires the given code among its
// diagnostics.
func runPass(t *testing.T, ctx *Context, p Pass, wantCode string) *Result {
	t.Helper()
	res, err := Run(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ByCode(wantCode)) == 0 {
		t.Fatalf("pass %s did not report %s; got:\n%s", p.Name(), wantCode, res)
	}
	return res
}

// ldrPCCrossing finds a block whose terminator is an instrumented
// `ldr pc, =target` across the flash/RAM boundary.
func ldrPCCrossing(m *mutant) (*ir.Block, int) {
	for _, f := range m.opt.Funcs {
		for _, b := range f.Blocks {
			n := len(b.Instrs)
			if n == 0 {
				continue
			}
			in := &b.Instrs[n-1]
			if in.Op == isa.LDRLIT && in.Rd == isa.PC &&
				m.inRAM[b.Label] != m.inRAM[in.Sym] {
				return b, n - 1
			}
		}
	}
	return nil, -1
}

func TestMutationBranchRange(t *testing.T) {
	t.Run("BR001 long branch shrunk to direct b", func(t *testing.T) {
		m := findMutant(t, buildSplitMutant, func(m *mutant) bool {
			b, i := ldrPCCrossing(m)
			if b == nil {
				return false
			}
			// Undo the Figure 4 rewrite: a direct b cannot span the
			// 0x18000000 flash↔RAM distance in any Thumb-2 encoding.
			b.Instrs[i] = isa.Instr{Op: isa.B, Sym: b.Instrs[i].Sym}
			return true
		})
		runPass(t, m.ctx(), BranchRangePass{}, "BR001")
	})

	t.Run("BR003 literal slot dropped", func(t *testing.T) {
		m := buildMutant(t, "crc32", mcc.O2)
		seeded := false
		for _, pl := range m.img.Blocks {
			for i := range pl.Block.Instrs {
				if pl.Block.Instrs[i].Op == isa.LDRLIT && pl.LitAddrs[i] != 0 {
					pl.LitAddrs[i] = 0
					seeded = true
					break
				}
			}
			if seeded {
				break
			}
		}
		if !seeded {
			t.Fatal("no literal load to corrupt")
		}
		runPass(t, m.ctx(), BranchRangePass{}, "BR003")
	})

	t.Run("BR004 unencodable instruction", func(t *testing.T) {
		m := buildSplitMutant(t, "crc32", mcc.O2)
		seeded := false
		for _, pl := range m.img.Blocks {
			if pl.InRAM || len(pl.Block.Instrs) < 2 {
				continue
			}
			// Loads and stores encode non-negative offsets only.
			pl.Block.Instrs[0] = isa.Instr{Op: isa.LDR, Rd: isa.R0, Rn: isa.R1, Mode: isa.AddrOffset, Imm: -4}
			seeded = true
			break
		}
		if !seeded {
			t.Fatal("no flash block to corrupt")
		}
		runPass(t, m.ctx(), BranchRangePass{}, "BR004")
	})
}

func TestMutationInstrumentation(t *testing.T) {
	t.Run("IC001 bl across memories", func(t *testing.T) {
		m := findMutant(t, buildMutant, func(m *mutant) bool {
			for _, f := range m.opt.Funcs {
				for _, b := range f.Blocks {
					for i := range b.Instrs {
						in := &b.Instrs[i]
						if in.Op != isa.BL {
							continue
						}
						callee := m.opt.Func(in.Sym)
						if callee == nil || callee.Entry() == nil {
							continue
						}
						entry := callee.Entry().Label
						if m.inRAM[b.Label] == m.inRAM[entry] {
							// Move the callee's entry to the other memory in
							// the decision map: the direct bl now crosses.
							m.inRAM[entry] = !m.inRAM[entry]
							return true
						}
					}
				}
			}
			return false
		})
		runPass(t, m.ctx(), InstrumentationPass{}, "IC001")
	})

	t.Run("IC002 direct branch across memories", func(t *testing.T) {
		m := findMutant(t, buildSplitMutant, func(m *mutant) bool {
			b, i := ldrPCCrossing(m)
			if b == nil {
				return false
			}
			b.Instrs[i] = isa.Instr{Op: isa.B, Sym: b.Instrs[i].Sym}
			return true
		})
		runPass(t, m.ctx(), InstrumentationPass{}, "IC002")
	})

	t.Run("IC003 fall-through severed", func(t *testing.T) {
		m := findMutant(t, buildMutant, func(m *mutant) bool {
			for _, f := range m.opt.Funcs {
				for bi, b := range f.Blocks {
					if b.FallsThrough() && bi+1 < len(f.Blocks) &&
						m.inRAM[b.Label] == m.inRAM[f.Blocks[bi+1].Label] {
						next := f.Blocks[bi+1].Label
						m.inRAM[next] = !m.inRAM[next]
						return true
					}
				}
			}
			return false
		})
		runPass(t, m.ctx(), InstrumentationPass{}, "IC003")
	})

	t.Run("IC004 scratch live across rewritten call", func(t *testing.T) {
		// Original: r4 carries 7 across the call and is used after it.
		orig := ir.NewProgram()
		g := orig.AddFunc(&ir.Function{Name: "g"})
		ir.Build(g.AddBlock("g_entry")).Ret()
		f := orig.AddFunc(&ir.Function{Name: "main"})
		ir.Build(f.AddBlock("m0")).
			MovImm(isa.R4, 7).Bl("g").Add(isa.R0, isa.R4, isa.R4).Ret()
		orig.Reindex()
		ir.MustVerify(orig)

		// "Transformed": the call is rewritten through r4 — a scratch
		// register that is provably live across the original bl.
		opt := orig.Clone()
		b := opt.Func("main").Block("m0")
		b.Instrs[1] = isa.Instr{Op: isa.LDRLIT, Rd: isa.R4, Sym: "g"}
		b.Instrs = append(b.Instrs[:2],
			append([]isa.Instr{{Op: isa.BLX, Rm: isa.R4}}, b.Instrs[2:]...)...)
		opt.Reindex()
		ir.MustVerify(opt)

		ctx := &Context{Original: orig, Prog: opt, Config: layout.DefaultConfig()}
		runPass(t, ctx, InstrumentationPass{}, "IC004")
	})

	t.Run("IC005 malformed long-branch tail", func(t *testing.T) {
		m := findMutant(t, buildSplitMutant, func(m *mutant) bool {
			for _, f := range m.opt.Funcs {
				for _, b := range f.Blocks {
					n := len(b.Instrs)
					if n >= 4 && b.Instrs[n-1].Op == isa.BX &&
						b.Instrs[n-1].Rm != isa.LR && b.Instrs[n-4].Op == isa.IT {
						// Both loads on the same condition: the false arm
						// of the conditional long branch is unreachable.
						b.Instrs[n-2].Cond = b.Instrs[n-3].Cond
						return true
					}
				}
			}
			return false
		})
		runPass(t, m.ctx(), InstrumentationPass{}, "IC005")
	})
}

func TestMutationCFGEquivalence(t *testing.T) {
	t.Run("CF001 block deleted", func(t *testing.T) {
		m := findMutant(t, buildMutant, func(m *mutant) bool {
			for _, f := range m.opt.Funcs {
				if len(f.Blocks) >= 2 {
					f.Blocks = f.Blocks[:len(f.Blocks)-1]
					return true
				}
			}
			return false
		})
		runPass(t, m.ctx(), CFGEquivalencePass{}, "CF001")
	})

	t.Run("CF002 branch retargeted", func(t *testing.T) {
		m := findMutant(t, buildMutant, func(m *mutant) bool {
			for _, f := range m.opt.Funcs {
				for _, b := range f.Blocks {
					if tm := b.Terminator(); tm != nil && tm.Op == isa.B &&
						tm.Cond == isa.AL && tm.Sym != f.Blocks[0].Label {
						tm.Sym = f.Blocks[0].Label
						return true
					}
				}
			}
			return false
		})
		runPass(t, m.ctx(), CFGEquivalencePass{}, "CF002")
	})

	t.Run("CF003 call deleted", func(t *testing.T) {
		m := findMutant(t, buildMutant, func(m *mutant) bool {
			for _, f := range m.opt.Funcs {
				for _, b := range f.Blocks {
					for i := range b.Instrs {
						if b.Instrs[i].Op == isa.BL {
							b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
							return true
						}
					}
				}
			}
			return false
		})
		runPass(t, m.ctx(), CFGEquivalencePass{}, "CF003")
	})

	t.Run("CF004 computation altered", func(t *testing.T) {
		m := findMutant(t, buildMutant, func(m *mutant) bool {
			for _, f := range m.opt.Funcs {
				for _, b := range f.Blocks {
					for i := 0; i < len(b.Instrs)-1; i++ {
						in := &b.Instrs[i]
						if in.Op == isa.MOV && in.HasImm {
							in.Imm++
							return true
						}
					}
				}
			}
			return false
		})
		runPass(t, m.ctx(), CFGEquivalencePass{}, "CF004")
	})
}

func TestMutationMemoryMap(t *testing.T) {
	t.Run("MM001 overlapping placement", func(t *testing.T) {
		m := buildMutant(t, "crc32", mcc.O2)
		var first *layout.Placed
		seeded := false
		for _, pl := range m.img.Blocks {
			if pl.CodeEnd <= pl.Addr {
				continue
			}
			if first == nil {
				first = pl
				continue
			}
			size := pl.CodeEnd - pl.Addr
			pl.Addr = first.Addr
			pl.CodeEnd = first.Addr + size
			seeded = true
			break
		}
		if !seeded {
			t.Fatal("fewer than two placed blocks")
		}
		runPass(t, m.ctx(), MemoryMapPass{}, "MM001")
	})

	t.Run("MM002 outside region", func(t *testing.T) {
		m := buildMutant(t, "crc32", mcc.O2)
		pl := m.img.Blocks[0]
		size := pl.CodeEnd - pl.Addr
		pl.Addr = m.img.Config.FlashBase - 16
		pl.CodeEnd = pl.Addr + size
		runPass(t, m.ctx(), MemoryMapPass{}, "MM002")
	})

	t.Run("MM003 misaligned block", func(t *testing.T) {
		m := buildMutant(t, "crc32", mcc.O2)
		pl := m.img.Blocks[0]
		pl.Addr++
		pl.CodeEnd++
		runPass(t, m.ctx(), MemoryMapPass{}, "MM003")
	})

	t.Run("MM004 RAM capacity exceeded", func(t *testing.T) {
		m := buildMutant(t, "crc32", mcc.O2)
		m.img.RAMCodeBytes = m.img.Config.RAMSize
		runPass(t, m.ctx(), MemoryMapPass{}, "MM004")
	})

	t.Run("MM005 Rspare budget exceeded", func(t *testing.T) {
		m := buildMutant(t, "crc32", mcc.O2)
		m.img.RAMCodeBytes = 100
		ctx := m.ctx()
		ctx.Rspare = 0.5
		res := runPass(t, ctx, MemoryMapPass{}, "MM005")
		if d := res.ByCode("MM005")[0]; d.Severity != Warning {
			t.Errorf("MM005 severity = %v, want warning", d.Severity)
		}
	})

	t.Run("MM006 image disagrees with placement", func(t *testing.T) {
		m := buildMutant(t, "crc32", mcc.O2)
		m.img.Blocks[0].InRAM = !m.img.Blocks[0].InRAM
		runPass(t, m.ctx(), MemoryMapPass{}, "MM006")
	})
}

func TestMutationStackDepth(t *testing.T) {
	t.Run("SD001 recursion", func(t *testing.T) {
		p := ir.NewProgram()
		f := p.AddFunc(&ir.Function{Name: "main"})
		ir.Build(f.AddBlock("m0")).Push(isa.LR).Bl("main").Pop(isa.PC)
		p.Reindex()
		ir.MustVerify(p)
		ctx := &Context{Prog: p, Config: layout.DefaultConfig()}
		runPass(t, ctx, StackDepthPass{}, "SD001")
	})

	t.Run("SD001 mutual recursion", func(t *testing.T) {
		// main → ping → pong → ping: the cycle involves no self-call, so
		// only a correct in-progress state in the call-graph walk (not a
		// caller==callee shortcut) can detect it.
		p := ir.NewProgram()
		m := p.AddFunc(&ir.Function{Name: "main"})
		ir.Build(m.AddBlock("m0")).Push(isa.LR).Bl("ping").Pop(isa.PC)
		ping := p.AddFunc(&ir.Function{Name: "ping"})
		ir.Build(ping.AddBlock("ping0")).Push(isa.LR).Bl("pong").Pop(isa.PC)
		pong := p.AddFunc(&ir.Function{Name: "pong"})
		ir.Build(pong.AddBlock("pong0")).Push(isa.LR).Bl("ping").Pop(isa.PC)
		p.Reindex()
		ir.MustVerify(p)
		ctx := &Context{Prog: p, Config: layout.DefaultConfig()}
		res := runPass(t, ctx, StackDepthPass{}, "SD001")
		if d := res.ByCode("SD001")[0]; !strings.Contains(d.Message, "recursion") {
			t.Errorf("SD001 message %q does not name recursion", d.Message)
		}
	})

	t.Run("SD001 unresolved indirect call", func(t *testing.T) {
		// blx through a register that was never loaded with `ldr rX,=f`:
		// the target could be anything, so the stack is unboundable.
		p := ir.NewProgram()
		m := p.AddFunc(&ir.Function{Name: "main"})
		ir.Build(m.AddBlock("m0")).Push(isa.LR).Mov(isa.R4, isa.R0).Blx(isa.R4).Pop(isa.PC)
		p.Reindex()
		ir.MustVerify(p)
		ctx := &Context{Prog: p, Config: layout.DefaultConfig()}
		res := runPass(t, ctx, StackDepthPass{}, "SD001")
		if d := res.ByCode("SD001")[0]; !strings.Contains(d.Message, "indirect") {
			t.Errorf("SD001 message %q does not name the indirect call", d.Message)
		}
	})

	t.Run("SD001 clobbered literal resolution", func(t *testing.T) {
		// The ldr rX,=f resolution dies when rX is rewritten before the
		// blx; treating the stale symbol as the target would silently
		// underestimate the stack.
		p := ir.NewProgram()
		leaf := p.AddFunc(&ir.Function{Name: "leaf"})
		ir.Build(leaf.AddBlock("leaf0")).Nop().Ret()
		m := p.AddFunc(&ir.Function{Name: "main"})
		ir.Build(m.AddBlock("m0")).Push(isa.LR).
			LdrLit(isa.R4, "leaf").Mov(isa.R4, isa.R0).Blx(isa.R4).Pop(isa.PC)
		p.Reindex()
		ir.MustVerify(p)
		ctx := &Context{Prog: p, Config: layout.DefaultConfig()}
		runPass(t, ctx, StackDepthPass{}, "SD001")
	})

	t.Run("resolved indirect call stays clean", func(t *testing.T) {
		// The exact shape our own instrumentation emits must resolve:
		// `ldr rX,=f; blx rX` is a call to f, not an SD001.
		p := ir.NewProgram()
		leaf := p.AddFunc(&ir.Function{Name: "leaf"})
		ir.Build(leaf.AddBlock("leaf0")).Nop().Ret()
		m := p.AddFunc(&ir.Function{Name: "main"})
		ir.Build(m.AddBlock("m0")).Push(isa.LR).
			LdrLit(isa.R4, "leaf").Blx(isa.R4).Pop(isa.PC)
		p.Reindex()
		ir.MustVerify(p)
		ctx := &Context{Prog: p, Config: layout.DefaultConfig()}
		res, err := Run(ctx, StackDepthPass{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Diags) != 0 {
			t.Fatalf("resolved indirect call produced diagnostics:\n%s", res)
		}
	})

	t.Run("SD002 stack collides with RAM contents", func(t *testing.T) {
		m := buildMutant(t, "crc32", mcc.O2)
		// Grow a global until it reaches the top of RAM: the worst-case
		// stack now has nowhere to live.
		m.opt.Globals[0].Size = m.img.Config.RAMSize
		runPass(t, m.ctx(), StackDepthPass{}, "SD002")
	})
}

// TestMutationCaughtBySuite seeds one violation and checks the full
// default suite (the form core.Optimize runs) rejects the program.
func TestMutationCaughtBySuite(t *testing.T) {
	m := findMutant(t, buildSplitMutant, func(m *mutant) bool {
		b, i := ldrPCCrossing(m)
		if b == nil {
			return false
		}
		b.Instrs[i] = isa.Instr{Op: isa.B, Sym: b.Instrs[i].Sym}
		return true
	})
	res, err := Analyze(m.ctx())
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("suite accepted a corrupted program")
	}
}
