// Package bounds computes guaranteed static brackets on a placed image's
// execution: for every reachable function and for the whole program, a
// lower and an upper bound on both cycles and energy, without running the
// simulator. The brackets are admissible in the WCET sense — for any
// terminating execution of the image,
//
//	lower ≤ simulated ≤ upper
//
// holds for cycles and for energy, which is what lets a sweep skip
// simulating a placement whose lower bound already exceeds the incumbent's
// simulated energy (see evaluation's pruning and DESIGN.md §6h).
//
// The analysis is a three-layer abstract interpretation:
//
//  1. Loop-bound inference (trips.go): constant trip counts recovered from
//     the compiler's induction-variable shapes on the pristine program's
//     natural-loop forest, with an explicit ⊤ (unbounded) when the
//     pattern match fails. ⊤ only widens the upper bound; lower bounds
//     stay finite (a ⊤ loop may run zero body iterations).
//  2. Per-block cost intervals (cost.go): every placed instruction priced
//     by the simulator's own rules — power.Cycles, the power tables and
//     layout.Image.DataMem — with min/max taken over the outcomes static
//     analysis cannot decide (branch direction, a failed predicate, data
//     residence of unresolved loads).
//  3. Composition (this file): loops are collapsed innermost-first into
//     super-nodes (trips × iteration-path + exit-path), the remaining DAG
//     is bracketed by shortest/longest node-weighted paths, and functions
//     compose bottom-up over the call graph with recursion mapping to ⊤
//     exactly like stackdepth's walk.
//
// Structure versus cost: control flow (CFG, loops, calls) is read from the
// pristine pre-transform program, whose branches the pattern matcher
// understands, while instruction costs are read from the placed image's
// blocks of the same label — which include the Figure 4 instrumentation
// the transformer inserted. The analysis suite's CFG-equivalence pass
// (CF001–CF004) is what guarantees this label-for-label correspondence.
package bounds

import (
	"fmt"
	"math"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/power"
)

// Interval brackets one execution segment: inclusive lower and upper
// bounds on cycles and energy. The upper bounds are finite only when
// Bounded is set; Lo is always finite (zero in the worst case).
type Interval struct {
	LoCycles   float64
	HiCycles   float64
	LoEnergyNJ float64
	HiEnergyNJ float64
	// Bounded reports that the upper bounds are finite. When clear,
	// HiCycles/HiEnergyNJ are meaningless and Reason names the first
	// cause (an uninferred loop, recursion, an indirect call).
	Bounded bool
	Reason  string
}

// Exact returns a degenerate interval: both bounds at the given cost.
func Exact(cycles, energyNJ float64) Interval {
	return Interval{
		LoCycles: cycles, HiCycles: cycles,
		LoEnergyNJ: energyNJ, HiEnergyNJ: energyNJ,
		Bounded: true,
	}
}

// Unbounded returns the [0, ⊤) interval with the given reason.
func Unbounded(reason string) Interval {
	return Interval{Reason: reason}
}

// Plus returns the sequential composition a then b.
func (a Interval) Plus(b Interval) Interval {
	out := Interval{
		LoCycles:   a.LoCycles + b.LoCycles,
		LoEnergyNJ: a.LoEnergyNJ + b.LoEnergyNJ,
		Bounded:    a.Bounded && b.Bounded,
		Reason:     a.Reason,
	}
	if out.Bounded {
		out.HiCycles = a.HiCycles + b.HiCycles
		out.HiEnergyNJ = a.HiEnergyNJ + b.HiEnergyNJ
	} else if out.Reason == "" {
		out.Reason = b.Reason
	}
	return out
}

// Union returns the join of two alternatives: the wider bracket.
func (a Interval) Union(b Interval) Interval {
	out := Interval{
		LoCycles:   math.Min(a.LoCycles, b.LoCycles),
		LoEnergyNJ: math.Min(a.LoEnergyNJ, b.LoEnergyNJ),
		Bounded:    a.Bounded && b.Bounded,
		Reason:     a.Reason,
	}
	if out.Bounded {
		out.HiCycles = math.Max(a.HiCycles, b.HiCycles)
		out.HiEnergyNJ = math.Max(a.HiEnergyNJ, b.HiEnergyNJ)
	} else if out.Reason == "" {
		out.Reason = b.Reason
	}
	return out
}

// scaled returns the interval repeated between tmin and tmax times; an
// unbounded trip count discards the upper bound.
func (a Interval) scaled(t TripBound) Interval {
	out := Interval{
		LoCycles:   float64(t.Min) * a.LoCycles,
		LoEnergyNJ: float64(t.Min) * a.LoEnergyNJ,
		Bounded:    a.Bounded && t.Bounded,
		Reason:     a.Reason,
	}
	if out.Bounded {
		out.HiCycles = float64(t.Max) * a.HiCycles
		out.HiEnergyNJ = float64(t.Max) * a.HiEnergyNJ
	} else if out.Reason == "" {
		out.Reason = t.Reason
	}
	return out
}

// TripBound brackets how many times a loop's body executes per entry to
// the loop. Bounded is clear for ⊤ (inference failed); Min is always
// valid (zero in the worst case).
type TripBound struct {
	Min, Max int64
	Bounded  bool
	// Reason explains a ⊤ ("exit not at header", "init not constant", …)
	// or, for exact bounds, is empty.
	Reason string
}

// LoopBounds is the inference outcome for one natural loop.
type LoopBounds struct {
	Header string // header block label
	Depth  int    // 1 = outermost
	Trips  TripBound
}

// FuncBounds is the bracket for one function: the cost of a call to it,
// from entry to return, including everything it calls.
type FuncBounds struct {
	Name string
	Interval
	Loops []LoopBounds // the function's loop forest, outermost first
}

// Result is the whole-program analysis outcome. Funcs contains only the
// functions reachable from the entry point — an uninferable loop in dead
// code cannot widen the program bracket.
type Result struct {
	Entry string
	Whole Interval
	Funcs map[string]*FuncBounds
	// LoopsTotal and LoopsInferred count the reachable loop forest; the
	// difference is how many loops contributed a ⊤.
	LoopsTotal    int
	LoopsInferred int
}

// Check validates the bracket invariant against one simulated execution
// of the same image: lower ≤ simulated ≤ upper for both cycles and
// energy. A tiny relative tolerance absorbs the different float64
// summation orders of the analysis and the simulator.
func (r *Result) Check(cycles uint64, energyNJ float64) error {
	const tol = 1e-9
	w := r.Whole
	cy := float64(cycles)
	if cy < w.LoCycles*(1-tol) {
		return fmt.Errorf("bounds: simulated cycles %d below static lower bound %.0f", cycles, w.LoCycles)
	}
	if energyNJ < w.LoEnergyNJ*(1-tol) {
		return fmt.Errorf("bounds: simulated energy %.3f nJ below static lower bound %.3f nJ", energyNJ, w.LoEnergyNJ)
	}
	if w.Bounded {
		if cy > w.HiCycles*(1+tol) {
			return fmt.Errorf("bounds: simulated cycles %d above static upper bound %.0f", cycles, w.HiCycles)
		}
		if energyNJ > w.HiEnergyNJ*(1+tol) {
			return fmt.Errorf("bounds: simulated energy %.3f nJ above static upper bound %.3f nJ", energyNJ, w.HiEnergyNJ)
		}
	}
	return nil
}

// Compute brackets the placed image. structure is the pristine program
// the image's code was transformed from (the image's own program when no
// transformation ran); graphs are its CFGs (cfg.BuildAll(structure)).
// Per-block costs come from img's same-label blocks, so the brackets
// include the instrumentation overhead of a transformed image.
func Compute(structure *ir.Program, graphs map[string]*cfg.Graph, img *layout.Image, prof *power.Profile) (*Result, error) {
	if prof == nil {
		prof = power.STM32F100()
	}
	c := &computer{
		prog:   structure,
		graphs: graphs,
		img:    img,
		prof:   prof,
		funcs:  make(map[string]*FuncBounds),
		state:  make(map[string]walkState),
	}
	entry := structure.Entry
	if entry == "" {
		entry = "main"
	}
	if structure.Func(entry) == nil {
		return nil, fmt.Errorf("bounds: no entry function %q", entry)
	}
	whole, err := c.function(entry)
	if err != nil {
		return nil, err
	}
	res := &Result{Entry: entry, Whole: whole, Funcs: c.funcs}
	for _, fb := range c.funcs {
		for _, lb := range fb.Loops {
			res.LoopsTotal++
			if lb.Trips.Bounded {
				res.LoopsInferred++
			}
		}
	}
	return res, nil
}

type walkState uint8

const (
	unvisited walkState = iota
	inProgress
	done
)

type computer struct {
	prog   *ir.Program
	graphs map[string]*cfg.Graph
	img    *layout.Image
	prof   *power.Profile
	funcs  map[string]*FuncBounds
	state  map[string]walkState
}

// function returns the bracket for one call to name, composing callees
// bottom-up. A call back into a function still being computed is
// recursion: it contributes nothing to the lower bound (sound — the
// recursion must bottom out somewhere) and ⊤ to the upper.
func (c *computer) function(name string) (Interval, error) {
	if fb, ok := c.funcs[name]; ok {
		return fb.Interval, nil
	}
	if c.state[name] == inProgress {
		return Unbounded("recursion through " + name), nil
	}
	c.state[name] = inProgress
	fb, err := c.computeFunc(name)
	if err != nil {
		return Interval{}, err
	}
	c.state[name] = done
	c.funcs[name] = fb
	return fb.Interval, nil
}

func (c *computer) computeFunc(name string) (*FuncBounds, error) {
	g := c.graphs[name]
	if g == nil {
		return nil, fmt.Errorf("bounds: no CFG for function %q", name)
	}
	f := g.Func
	fb := &FuncBounds{Name: name}
	if len(f.Blocks) == 0 {
		fb.Interval = Exact(0, 0)
		return fb, nil
	}

	// Layer 2: per-block cost intervals (placed instructions + callees).
	cost := make(map[*ir.Block]Interval, len(f.Blocks))
	for _, b := range f.Blocks {
		iv, err := c.blockCost(b)
		if err != nil {
			return nil, err
		}
		cost[b] = iv
	}

	// Layer 1 + 3: collapse loops innermost-first into super-nodes. The
	// repr map sends every block to the header of the innermost collapsed
	// loop containing it (itself when none).
	repr := make(map[*ir.Block]*ir.Block, len(f.Blocks))
	find := func(b *ir.Block) *ir.Block {
		for repr[b] != nil && repr[b] != b {
			b = repr[b]
		}
		return b
	}
	loops := g.Loops()
	fb.Loops = make([]LoopBounds, 0, len(loops))
	for i := len(loops) - 1; i >= 0; i-- { // loops are outermost-first
		l := loops[i]
		trips := inferTrips(g, l)
		fb.Loops = append(fb.Loops, LoopBounds{Header: l.Header.Label, Depth: l.Depth, Trips: trips})

		total, ok := c.collapseLoop(g, l, trips, cost, find)
		if !ok {
			// Irreducible flow inside the loop region: give up on the
			// whole function rather than risk an unsound bracket.
			fb.Interval = Unbounded("irreducible control flow in " + name)
			reverseLoops(fb.Loops)
			return fb, nil
		}
		for b := range l.Blocks {
			if b != l.Header {
				repr[b] = l.Header
			}
		}
		cost[l.Header] = total
	}
	reverseLoops(fb.Loops)

	// The remaining graph is a DAG over representatives; bracket the
	// entry→return paths.
	entry := find(f.Entry())
	paths, ok := dagPaths(f, g, find, cost, entry, nil)
	if !ok {
		fb.Interval = Unbounded("irreducible control flow in " + name)
		return fb, nil
	}
	var out Interval
	found := false
	for _, b := range f.Blocks {
		if find(b) != b {
			continue
		}
		if len(sccSuccs(g, find, b)) == 0 {
			if p, ok := paths[b]; ok {
				if !found {
					out, found = p, true
				} else {
					out = out.Union(p)
				}
			}
		}
	}
	if !found {
		out = Unbounded("no return path in " + name)
	}
	fb.Interval = out
	return fb, nil
}

func reverseLoops(ls []LoopBounds) {
	for i, j := 0, len(ls)-1; i < j; i, j = i+1, j-1 {
		ls[i], ls[j] = ls[j], ls[i]
	}
}

// sccSuccs returns b's distinct successor representatives, excluding b
// itself (intra-super-node edges).
func sccSuccs(g *cfg.Graph, find func(*ir.Block) *ir.Block, b *ir.Block) []*ir.Block {
	// b is a representative; collect the successors of every block it
	// absorbed. For a non-collapsed block that is just its own edge set.
	var out []*ir.Block
	seen := map[*ir.Block]bool{}
	var emit func(n *ir.Block)
	emit = func(n *ir.Block) {
		for _, s := range g.Succs(n) {
			rs := find(s)
			if rs == b || seen[rs] {
				continue
			}
			seen[rs] = true
			out = append(out, rs)
		}
	}
	// Walk the blocks absorbed into b. Membership is "find(x) == b";
	// scanning the whole function here would be quadratic, so callers
	// that know the member set use collapse-time edges instead. For the
	// top-level DAG the absorbed set is exactly the loops headed by b,
	// found via the graph's loop list.
	emit(b)
	for _, l := range g.Loops() {
		if find(l.Header) != b {
			continue
		}
		for m := range l.Blocks {
			if m != b && find(m) == b {
				emit(m)
			}
		}
	}
	return out
}

// collapseLoop reduces one natural loop to a single super-node interval:
// trips × iteration-path + exit-path. Inner loops must already be
// collapsed (their headers carry their totals). Returns ok=false when the
// loop's interior is not reducible to a DAG.
func (c *computer) collapseLoop(g *cfg.Graph, l *cfg.Loop, trips TripBound, cost map[*ir.Block]Interval, find func(*ir.Block) *ir.Block) (Interval, bool) {
	header := l.Header

	// Latches and exits, in representative space.
	latch := map[*ir.Block]bool{}
	for _, p := range g.Preds(header) {
		if l.Blocks[p] {
			latch[find(p)] = true
		}
	}
	exit := map[*ir.Block]bool{}
	exitsFromHeaderOnly := true
	for b := range l.Blocks {
		for _, s := range g.Succs(b) {
			if !l.Blocks[s] {
				exit[find(b)] = true
				if b != header {
					exitsFromHeaderOnly = false
				}
			}
		}
	}

	paths, ok := dagPaths(g.Func, g, find, cost, header, l.Blocks)
	if !ok {
		return Interval{}, false
	}

	var iter, exitPath Interval
	iterOK, exitOK := false, false
	for n, p := range paths {
		if latch[n] {
			if !iterOK {
				iter, iterOK = p, true
			} else {
				iter = iter.Union(p)
			}
		}
		if exit[n] {
			if !exitOK {
				exitPath, exitOK = p, true
			} else {
				exitPath = exitPath.Union(p)
			}
		}
	}
	if !iterOK {
		// A loop with an unreachable latch cannot iterate; treat as one
		// pass through the exit path.
		iter = Exact(0, 0)
		trips = TripBound{Min: 0, Max: 0, Bounded: true}
	}
	if !exitOK {
		// No exit edge: the loop cannot terminate. Lower bound stays
		// sound at the header's cost; upper is ⊤.
		exitPath = Interval{
			LoCycles:   cost[header].LoCycles,
			LoEnergyNJ: cost[header].LoEnergyNJ,
			Reason:     "loop " + header.Label + " has no exit",
		}
	}
	if !exitsFromHeaderOnly && trips.Bounded {
		// Break-style exits can leave before the counted trips complete:
		// the count stays a valid maximum but not a minimum.
		trips.Min = 0
	}

	return iter.scaled(trips).Plus(exitPath), true
}

// dagPaths brackets the node-weighted path cost from entry to every
// reachable representative node, treating back edges to entry as absent
// (loop iteration) and restricting to `within` when non-nil (loop
// membership, in original-block space). Returns ok=false when the
// restricted region still contains a cycle (irreducible flow).
func dagPaths(f *ir.Function, g *cfg.Graph, find func(*ir.Block) *ir.Block, cost map[*ir.Block]Interval, entry *ir.Block, within map[*ir.Block]bool) (map[*ir.Block]Interval, bool) {
	// Edges in representative space. Built by scanning original blocks
	// once; membership and self-edges filtered here.
	succs := map[*ir.Block][]*ir.Block{}
	nodes := map[*ir.Block]bool{}
	addNode := func(b *ir.Block) *ir.Block {
		r := find(b)
		nodes[r] = true
		return r
	}
	for _, b := range f.Blocks {
		if within != nil && !within[b] {
			continue
		}
		rb := addNode(b)
		for _, s := range g.Succs(b) {
			if within != nil && !within[s] {
				continue
			}
			rs := find(s)
			if rs == rb || rs == entry {
				continue // internal to a super-node, or a back edge
			}
			nodes[rs] = true
			succs[rb] = append(succs[rb], rs)
		}
	}

	// Kahn topological order over nodes reachable from entry.
	indeg := map[*ir.Block]int{}
	reach := map[*ir.Block]bool{entry: true}
	queue := []*ir.Block{entry}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, s := range succs[n] {
			if !reach[s] {
				reach[s] = true
				queue = append(queue, s)
			}
		}
	}
	for n := range reach {
		for _, s := range succs[n] {
			if reach[s] {
				indeg[s]++
			}
		}
	}
	order := make([]*ir.Block, 0, len(reach))
	queue = []*ir.Block{entry}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, s := range succs[n] {
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(reach) {
		return nil, false // leftover cycle: irreducible region
	}

	paths := make(map[*ir.Block]Interval, len(order))
	paths[entry] = cost[entry]
	for _, n := range order {
		base, ok := paths[n]
		if !ok {
			continue
		}
		for _, s := range succs[n] {
			ext := base.Plus(cost[s])
			if cur, ok := paths[s]; ok {
				paths[s] = cur.Union(ext)
			} else {
				paths[s] = ext
			}
		}
	}
	return paths, true
}
