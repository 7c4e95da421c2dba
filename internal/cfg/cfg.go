// Package cfg builds and analyzes control-flow graphs over ir programs:
// successor/predecessor sets, dominator trees (Cooper–Harvey–Kennedy), and
// natural-loop nesting depth. The loop depth feeds the paper's static
// execution-frequency estimate (§4.1, parameter Fb); the successor sets
// are the model's Succ(b).
package cfg

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isa"
)

// Graph is the intraprocedural CFG of one function, plus the interprocedural
// call edges the placement model needs (a call between memories requires
// instrumentation just like a branch, because bl cannot span the
// flash↔RAM address distance).
type Graph struct {
	Func   *ir.Function
	Blocks []*ir.Block

	succs map[*ir.Block][]*ir.Block
	preds map[*ir.Block][]*ir.Block

	// CallsOut[b] lists callee entry blocks invoked from b (bl only;
	// indirect blx targets are unknown and already long-range).
	CallsOut map[*ir.Block][]*ir.Block

	idom  map[*ir.Block]*ir.Block
	depth map[*ir.Block]int
	loops []*Loop
}

// Loop is a natural loop: a back edge latch→header and the set of blocks
// that can reach the latch without passing through the header.
type Loop struct {
	Header *ir.Block
	Latch  *ir.Block
	Blocks map[*ir.Block]bool
	Depth  int // 1 = outermost
}

// Build constructs the CFG for one function of the program. The program is
// needed to resolve labels and call targets.
func Build(p *ir.Program, f *ir.Function) (*Graph, error) {
	g := &Graph{
		Func:     f,
		Blocks:   append([]*ir.Block(nil), f.Blocks...),
		succs:    make(map[*ir.Block][]*ir.Block),
		preds:    make(map[*ir.Block][]*ir.Block),
		CallsOut: make(map[*ir.Block][]*ir.Block),
		idom:     make(map[*ir.Block]*ir.Block),
		depth:    make(map[*ir.Block]int),
	}

	labels := make(map[string]*ir.Block)
	for _, b := range f.Blocks {
		labels[b.Label] = b
	}

	addEdge := func(from, to *ir.Block) {
		g.succs[from] = append(g.succs[from], to)
		g.preds[to] = append(g.preds[to], from)
	}

	for i, b := range f.Blocks {
		t := b.Terminator()
		if t != nil {
			switch t.Op {
			case isa.B:
				tgt, ok := labels[t.Sym]
				if !ok {
					return nil, fmt.Errorf("cfg: %s: branch to unknown label %q", b.Label, t.Sym)
				}
				addEdge(b, tgt)
			case isa.LDRLIT: // ldr pc, =label (post-transformation graphs)
				if tgt, ok := labels[t.Sym]; ok {
					addEdge(b, tgt)
				}
			case isa.BX, isa.POP:
				// Return: no intraprocedural successor.
			}
		}
		if b.FallsThrough() {
			if i+1 >= len(f.Blocks) {
				return nil, fmt.Errorf("cfg: %s: fall-through off function end", b.Label)
			}
			addEdge(b, f.Blocks[i+1])
		}
		for _, callee := range b.Calls() {
			cf := p.Func(callee)
			if cf == nil {
				return nil, fmt.Errorf("cfg: %s: call to unknown function %q", b.Label, callee)
			}
			if entry := cf.Entry(); entry != nil {
				g.CallsOut[b] = append(g.CallsOut[b], entry)
			}
		}
	}

	if len(f.Blocks) > 0 {
		g.computeDominators()
		g.findLoops()
	}
	return g, nil
}

// Succs returns the intraprocedural successors of b.
func (g *Graph) Succs(b *ir.Block) []*ir.Block { return g.succs[b] }

// Preds returns the intraprocedural predecessors of b.
func (g *Graph) Preds(b *ir.Block) []*ir.Block { return g.preds[b] }

// Idom returns the immediate dominator of b (nil for the entry block and
// for unreachable blocks).
func (g *Graph) Idom(b *ir.Block) *ir.Block { return g.idom[b] }

// Dominates reports whether a dominates b (reflexively).
func (g *Graph) Dominates(a, b *ir.Block) bool {
	for x := b; x != nil; x = g.idom[x] {
		if x == a {
			return true
		}
		if x == g.Func.Entry() {
			break
		}
	}
	return a == g.Func.Entry() && g.reachable(b)
}

func (g *Graph) reachable(b *ir.Block) bool {
	return b == g.Func.Entry() || g.idom[b] != nil
}

// LoopDepth returns the loop-nesting depth of b (0 = not in any loop).
func (g *Graph) LoopDepth(b *ir.Block) int { return g.depth[b] }

// Loops returns the natural loops, outermost first.
func (g *Graph) Loops() []*Loop { return g.loops }

// reversePostorder returns the reachable blocks in reverse postorder from
// the entry, plus the postorder index of each block.
func (g *Graph) reversePostorder() ([]*ir.Block, map[*ir.Block]int) {
	entry := g.Func.Entry()
	seen := make(map[*ir.Block]bool)
	var order []*ir.Block
	var dfs func(*ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = true
		for _, s := range g.succs[b] {
			if !seen[s] {
				dfs(s)
			}
		}
		order = append(order, b) // postorder
	}
	dfs(entry)
	po := make(map[*ir.Block]int, len(order))
	for i, b := range order {
		po[b] = i
	}
	// Reverse for RPO.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order, po
}

// computeDominators implements the Cooper–Harvey–Kennedy iterative
// dominator algorithm ("A Simple, Fast Dominance Algorithm").
func (g *Graph) computeDominators() {
	entry := g.Func.Entry()
	rpo, po := g.reversePostorder()
	g.idom[entry] = entry

	intersect := func(a, b *ir.Block) *ir.Block {
		for a != b {
			for po[a] < po[b] {
				a = g.idom[a]
			}
			for po[b] < po[a] {
				b = g.idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			var newIdom *ir.Block
			for _, p := range g.preds[b] {
				if g.idom[p] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && g.idom[b] != newIdom {
				g.idom[b] = newIdom
				changed = true
			}
		}
	}
	// Convention: entry's idom is nil externally.
	g.idom[entry] = nil
}

// findLoops identifies natural loops from back edges (edges b→h where h
// dominates b) and computes per-block nesting depth.
func (g *Graph) findLoops() {
	entry := g.Func.Entry()
	dominates := func(h, b *ir.Block) bool {
		if h == entry {
			return g.reachable(b)
		}
		for x := b; x != nil; x = g.idom[x] {
			if x == h {
				return true
			}
		}
		return false
	}

	for _, b := range g.Blocks {
		for _, h := range g.succs[b] {
			if !g.reachable(b) || !dominates(h, b) {
				continue
			}
			// Natural loop of back edge b→h.
			l := &Loop{Header: h, Latch: b, Blocks: map[*ir.Block]bool{h: true}}
			var stack []*ir.Block
			if b != h {
				l.Blocks[b] = true
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range g.preds[x] {
					if !l.Blocks[p] {
						l.Blocks[p] = true
						stack = append(stack, p)
					}
				}
			}
			g.loops = append(g.loops, l)
		}
	}

	// Merge loops sharing a header (multiple latches form one loop).
	byHeader := make(map[*ir.Block]*Loop)
	var merged []*Loop
	for _, l := range g.loops {
		if prev, ok := byHeader[l.Header]; ok {
			for b := range l.Blocks {
				prev.Blocks[b] = true
			}
			continue
		}
		byHeader[l.Header] = l
		merged = append(merged, l)
	}
	g.loops = merged

	// Depth: number of loops containing the block.
	for _, b := range g.Blocks {
		d := 0
		for _, l := range g.loops {
			if l.Blocks[b] {
				d++
			}
		}
		g.depth[b] = d
	}
	for _, l := range g.loops {
		l.Depth = g.depth[l.Header]
	}
	// Outermost first.
	for i := 0; i < len(g.loops); i++ {
		for j := i + 1; j < len(g.loops); j++ {
			if g.loops[j].Depth < g.loops[i].Depth {
				g.loops[i], g.loops[j] = g.loops[j], g.loops[i]
			}
		}
	}
}

// BuildAll builds one Graph per function, keyed by function name.
func BuildAll(p *ir.Program) (map[string]*Graph, error) {
	out := make(map[string]*Graph, len(p.Funcs))
	for _, f := range p.Funcs {
		if len(f.Blocks) == 0 {
			continue
		}
		g, err := Build(p, f)
		if err != nil {
			return nil, err
		}
		out[f.Name] = g
	}
	return out, nil
}
