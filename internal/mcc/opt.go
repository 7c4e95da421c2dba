package mcc

import "fmt"

// OptLevel selects the pass pipeline, mirroring GCC's -O flags (§6 of the
// paper evaluates O0, O1, O2, O3 and Os).
type OptLevel int

// Optimization levels.
const (
	O0 OptLevel = iota // no optimization, naive spill-everything codegen
	O1                 // constant folding, copy propagation, DCE, regalloc
	O2                 // + local CSE, strength reduction, CFG cleanup
	O3                 // + inlining of small functions
	Os                 // O2 pipeline and codegen: the same program as O2
)

// ParseOptLevel parses "O0".."Os".
func ParseOptLevel(s string) (OptLevel, error) {
	switch s {
	case "O0", "0":
		return O0, nil
	case "O1", "1":
		return O1, nil
	case "O2", "2":
		return O2, nil
	case "O3", "3":
		return O3, nil
	case "Os", "s":
		return Os, nil
	}
	return O0, fmt.Errorf("mcc: unknown optimization level %q", s)
}

func (l OptLevel) String() string {
	switch l {
	case O0:
		return "O0"
	case O1:
		return "O1"
	case O2:
		return "O2"
	case O3:
		return "O3"
	case Os:
		return "Os"
	}
	return "O?"
}

// maxRounds bounds the pass rounds per function; Optimize stops earlier
// at the first round in which no pass reports a change.
const maxRounds = 3

// pipeline returns the level's pass round. Every pass reports whether it
// changed the function; a pass may over-report (that only costs a round)
// but never under-reports, so a round that reports no change left the
// function untouched and every later round would too.
func pipeline(level OptLevel) []func(*MFunc) bool {
	passes := []func(*MFunc) bool{simplify, copyProp}
	if level >= O2 {
		passes = append(passes, localCSE)
	}
	return append(passes, deadCodeElim, cleanCFG)
}

// Optimize runs the pass pipeline for the level over the program.
func Optimize(p *MProgram, level OptLevel) {
	if level == O0 {
		return
	}
	if level == O3 {
		inlineSmallFunctions(p, 24)
	}
	passes := pipeline(level)
	for _, f := range p.Funcs {
		for round := 0; round < maxRounds; round++ {
			changed := false
			for _, pass := range passes {
				if pass(f) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}

// ---- local simplification: constant folding + strength reduction ----

// simplify tracks per-block constants and folds/strength-reduces.
func simplify(f *MFunc) bool {
	changed := false
	consts := map[VReg]int32{}
	// fold rewrites in into the constant v.
	fold := func(in *MIns, v int32) {
		*in = MIns{Op: MConst, Dst: in.Dst, Imm: v}
		consts[in.Dst] = v
		changed = true
	}
	for _, b := range f.Blocks {
		clear(consts)
		for i := range b.Ins {
			in := &b.Ins[i]
			ca, aOK := consts[in.A]
			cb, bOK := consts[in.B]

			switch in.Op {
			case MConst:
				consts[in.Dst] = in.Imm
				continue
			case MMov:
				if aOK {
					fold(in, ca)
					continue
				}
			case MAdd, MSub, MMul, MSDiv, MUDiv, MSRem, MURem,
				MAnd, MOr, MXor, MShl, MShr, MSar:
				if aOK && bOK {
					if v, ok := foldBin(in.Op, ca, cb); ok {
						fold(in, v)
						continue
					}
				}
				// Strength reduction with one constant operand.
				if bOK {
					if rep, ok := strengthReduce(in, cb); ok {
						*in = rep
						delete(consts, in.Dst)
						changed = true
						continue
					}
				}
				if aOK && (in.Op == MAdd || in.Op == MMul || in.Op == MAnd ||
					in.Op == MOr || in.Op == MXor) {
					// Commute the constant to the right; the next pass
					// round will see it there and strength-reduce.
					in.A, in.B = in.B, in.A
					changed = true
				}
			case MNeg:
				if aOK {
					fold(in, -ca)
					continue
				}
			case MNot:
				if aOK {
					fold(in, ^ca)
					continue
				}
			case MExt:
				if aOK {
					fold(in, extVal(ca, in.Width, in.Signed))
					continue
				}
			case MSetCC:
				if aOK && bOK {
					v := int32(0)
					if in.CC.Eval(uint32(ca), uint32(cb)) {
						v = 1
					}
					fold(in, v)
					continue
				}
			case MCmpBr:
				if aOK && bOK {
					target := in.L2
					if in.CC.Eval(uint32(ca), uint32(cb)) {
						target = in.L1
					}
					*in = MIns{Op: MJmp, L1: target}
					changed = true
					continue
				}
			}
			if d := in.Def(); d != NoVReg {
				delete(consts, d)
			}
		}
	}
	return changed
}

func foldBin(op MOp, a, b int32) (int32, bool) {
	ua, ub := uint32(a), uint32(b)
	switch op {
	case MAdd:
		return a + b, true
	case MSub:
		return a - b, true
	case MMul:
		return a * b, true
	case MSDiv:
		if b == 0 {
			return 0, false
		}
		if a == -1<<31 && b == -1 {
			return a, true // ARM defines the overflow quotient as the dividend
		}
		return a / b, true
	case MUDiv:
		if b == 0 {
			return 0, false
		}
		return int32(ua / ub), true
	case MSRem:
		if b == 0 || (a == -1<<31 && b == -1) {
			return 0, false
		}
		return a % b, true
	case MURem:
		if b == 0 {
			return 0, false
		}
		return int32(ua % ub), true
	case MAnd:
		return a & b, true
	case MOr:
		return a | b, true
	case MXor:
		return a ^ b, true
	case MShl:
		return int32(shiftFold(ua, ub, func(x uint32, s uint32) uint32 { return x << s })), true
	case MShr:
		return int32(shiftFold(ua, ub, func(x uint32, s uint32) uint32 { return x >> s })), true
	case MSar:
		s := ub & 0xFF
		if s >= 32 {
			s = 31
		}
		return a >> s, true
	}
	return 0, false
}

func shiftFold(x, s uint32, f func(uint32, uint32) uint32) uint32 {
	s &= 0xFF
	if s >= 32 {
		return 0
	}
	return f(x, s)
}

func extVal(v int32, width int, signed bool) int32 {
	switch width {
	case 1:
		if signed {
			return int32(int8(v))
		}
		return int32(uint8(v))
	case 2:
		if signed {
			return int32(int16(v))
		}
		return int32(uint16(v))
	}
	return v
}

// strengthReduce rewrites ops with a constant right operand c into a
// cheaper form that needs no other operand: a constant or a copy.
func strengthReduce(in *MIns, c int32) (MIns, bool) {
	switch in.Op {
	case MMul:
		switch {
		case c == 0:
			return MIns{Op: MConst, Dst: in.Dst, Imm: 0}, true
		case c == 1:
			return MIns{Op: MMov, Dst: in.Dst, A: in.A}, true
		}
	case MSDiv, MUDiv:
		if c == 1 {
			return MIns{Op: MMov, Dst: in.Dst, A: in.A}, true
		}
	case MAdd, MSub, MOr, MXor, MShl, MShr, MSar:
		if c == 0 {
			return MIns{Op: MMov, Dst: in.Dst, A: in.A}, true
		}
	case MAnd:
		if c == 0 {
			return MIns{Op: MConst, Dst: in.Dst, Imm: 0}, true
		}
		if c == -1 {
			return MIns{Op: MMov, Dst: in.Dst, A: in.A}, true
		}
	}
	return MIns{}, false
}

// ---- copy propagation (local) ----

func copyProp(f *MFunc) bool {
	changed := false
	copyOf := map[VReg]VReg{}
	resolve := func(v VReg) VReg {
		for {
			w, ok := copyOf[v]
			if !ok {
				return v
			}
			v = w
		}
	}
	subst := func(v *VReg) {
		if *v == NoVReg {
			return
		}
		if r := resolve(*v); r != *v {
			*v = r
			changed = true
		}
	}
	for _, b := range f.Blocks {
		clear(copyOf)
		for i := range b.Ins {
			in := &b.Ins[i]
			subst(&in.A)
			subst(&in.B)
			for k := range in.Args {
				subst(&in.Args[k])
			}
			d := in.Def()
			if d != NoVReg {
				// Kill copies involving d.
				delete(copyOf, d)
				for k, v := range copyOf {
					if v == d {
						delete(copyOf, k)
					}
				}
				if in.Op == MMov && in.A != d {
					copyOf[d] = in.A
				}
			}
		}
	}
	return changed
}

// ---- local common subexpression elimination ----

type cseKey struct {
	op     MOp
	a, b   VReg
	imm    int32
	cc     CC
	width  int
	signed bool
	sym    string
}

// cseLink is one entry of a vreg's mention list in localCSE.
type cseLink struct {
	key  int32 // index into the block's keys
	next int32 // next link of the same vreg, or -1
	v    VReg
}

func localCSE(f *MFunc) bool {
	changed := false
	avail := map[cseKey]VReg{}
	// keys holds every key added to avail in the current block. heads[v]
	// starts a list of the keys that had v as their value or an operand
	// when they were added; a link is stale once avail no longer relates
	// its key to v. loads lists the load keys added since the last flush.
	var keys []cseKey
	var links []cseLink
	var loads []int32
	heads := make([]int32, f.NumVRegs)
	for v := range heads {
		heads[v] = -1
	}
	index := func(v VReg, k int32) {
		if v != NoVReg {
			links = append(links, cseLink{key: k, next: heads[v], v: v})
			heads[v] = int32(len(links) - 1)
		}
	}
	kill := func(d VReg) {
		for l := heads[d]; l >= 0; l = links[l].next {
			k := keys[links[l].key]
			if v, ok := avail[k]; ok && (v == d || k.a == d || k.b == d) {
				delete(avail, k)
			}
		}
		heads[d] = -1
	}
	flushLoads := func() {
		for _, k := range loads {
			delete(avail, keys[k])
		}
		loads = loads[:0]
	}
	for _, b := range f.Blocks {
		clear(avail)
		for _, l := range links {
			heads[l.v] = -1
		}
		keys, links, loads = keys[:0], links[:0], loads[:0]
		for i := range b.Ins {
			in := &b.Ins[i]
			switch in.Op {
			case MCall:
				// Calls clobber memory: flush loads.
				flushLoads()
			case MStore:
				// A store may alias any load.
				flushLoads()
				continue
			}
			d := in.Def()
			if !in.Pure() || d == NoVReg {
				if d != NoVReg {
					kill(d)
				}
				continue
			}
			key := cseKey{
				op: in.Op, a: in.A, b: in.B, imm: in.Imm, cc: in.CC,
				width: in.Width, signed: in.Signed, sym: in.Sym,
			}
			if prev, ok := avail[key]; ok && prev != d {
				*in = MIns{Op: MMov, Dst: d, A: prev}
				kill(d)
				changed = true
				continue
			}
			kill(d)
			avail[key] = d
			k := int32(len(keys))
			keys = append(keys, key)
			index(d, k)
			index(key.a, k)
			index(key.b, k)
			if key.op == MLoad {
				loads = append(loads, k)
			}
		}
	}
	return changed
}

// ---- dead code elimination (global liveness) ----

func deadCodeElim(f *MFunc) bool {
	changed := false
	liveOut := liveness(f)
	live := newBitset(f.NumVRegs)
	var kept []bool
	var uses []VReg
	for bi, b := range f.Blocks {
		copy(live, liveOut[bi])
		// Backward sweep marking kept instructions.
		kept = append(kept[:0], make([]bool, len(b.Ins))...)
		for i := len(b.Ins) - 1; i >= 0; i-- {
			in := &b.Ins[i]
			d := in.Def()
			if !in.Pure() || d == NoVReg || live.has(d) {
				kept[i] = true
				if d != NoVReg {
					live.clear(d)
				}
				uses = in.appendUses(uses[:0])
				for _, u := range uses {
					live.set(u)
				}
			}
		}
		n := 0
		for i := range b.Ins {
			if kept[i] {
				b.Ins[n] = b.Ins[i]
				n++
			}
		}
		if n < len(b.Ins) {
			clear(b.Ins[n:])
			b.Ins = b.Ins[:n]
			changed = true
		}
	}
	return changed
}

// bitset is a dense set of vregs, one bit per vreg.
type bitset []uint64

func newBitset(n int) bitset     { return make(bitset, (n+63)/64) }
func (s bitset) has(v VReg) bool { return s[v/64]&(1<<(v%64)) != 0 }
func (s bitset) set(v VReg)      { s[v/64] |= 1 << (v % 64) }
func (s bitset) clear(v VReg)    { s[v/64] &^= 1 << (v % 64) }

// liveness computes each block's live-out set, indexed like f.Blocks:
// per-block gen/kill sets, then a backward word-wise fixpoint.
func liveness(f *MFunc) []bitset {
	n := len(f.Blocks)
	words := (f.NumVRegs + 63) / 64
	// One allocation holds every block's gen, kill, live-in and live-out.
	buf := make(bitset, 4*n*words)
	set := func(k, bi int) bitset {
		off := (k*n + bi) * words
		return buf[off : off+words : off+words]
	}
	idx := make(map[string]int, n)
	for bi, b := range f.Blocks {
		idx[b.Label] = bi
	}
	succs := make([][2]int, n)
	var uses []VReg
	for bi, b := range f.Blocks {
		gen, kill := set(0, bi), set(1, bi)
		for i := range b.Ins {
			in := &b.Ins[i]
			uses = in.appendUses(uses[:0])
			for _, u := range uses {
				if !kill.has(u) {
					gen.set(u)
				}
			}
			if d := in.Def(); d != NoVReg {
				kill.set(d)
			}
		}
		succs[bi] = [2]int{-1, -1}
		for k, l := range b.Succs() {
			if si, ok := idx[l]; ok {
				succs[bi][k] = si
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for bi := n - 1; bi >= 0; bi-- {
			gen, kill, in, out := set(0, bi), set(1, bi), set(2, bi), set(3, bi)
			for _, si := range succs[bi] {
				if si >= 0 {
					for w, x := range set(2, si) {
						out[w] |= x
					}
				}
			}
			for w := range in {
				x := gen[w] | out[w]&^kill[w]
				if x != in[w] {
					in[w] = x
					changed = true
				}
			}
		}
	}
	liveOut := make([]bitset, n)
	for bi := range liveOut {
		liveOut[bi] = set(3, bi)
	}
	return liveOut
}

// ---- CFG cleanup ----

// cleanCFG retargets jumps through empty forwarding blocks, removes
// unreachable blocks and merges single-successor/single-predecessor pairs.
func cleanCFG(f *MFunc) bool {
	changed := false
	// Forwarding: block whose only instruction is jmp L.
	forward := map[string]string{}
	for _, b := range f.Blocks {
		if len(b.Ins) == 1 && b.Ins[0].Op == MJmp {
			forward[b.Label] = b.Ins[0].L1
		}
	}
	resolve := func(l *string) {
		seen := map[string]bool{}
		to := *l
		for forward[to] != "" && !seen[to] {
			seen[to] = true
			to = forward[to]
		}
		if to != *l {
			*l = to
			changed = true
		}
	}
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		switch t.Op {
		case MJmp:
			resolve(&t.L1)
		case MCmpBr:
			resolve(&t.L1)
			resolve(&t.L2)
			if t.L1 == t.L2 {
				*t = MIns{Op: MJmp, L1: t.L1}
				changed = true
			}
		}
	}
	if pruneUnreachable(f) {
		changed = true
	}

	// Merge chains: b ends in jmp s, s has exactly one predecessor.
	preds := map[string]int{}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s]++
		}
	}
	byLabel := map[string]*MBlock{}
	for _, b := range f.Blocks {
		byLabel[b.Label] = b
	}
	merged := map[*MBlock]bool{}
	for _, b := range f.Blocks {
		for {
			if merged[b] {
				break
			}
			t := b.Term()
			if t == nil || t.Op != MJmp {
				break
			}
			s := byLabel[t.L1]
			if s == nil || s == b || preds[s.Label] != 1 || s == f.Blocks[0] {
				break
			}
			// Append s's instructions over b's jump.
			b.Ins = append(b.Ins[:len(b.Ins)-1], s.Ins...)
			merged[s] = true
			changed = true
		}
	}
	var kept []*MBlock
	for _, b := range f.Blocks {
		if !merged[b] {
			kept = append(kept, b)
		}
	}
	f.Blocks = kept
	if pruneUnreachable(f) {
		changed = true
	}
	return changed
}

// ---- inlining (O3) ----

// inlineSmallFunctions inlines calls to non-recursive functions whose
// body is at most maxIns instructions and which contain no calls
// themselves (leaf functions).
func inlineSmallFunctions(p *MProgram, maxIns int) {
	inlinable := map[string]*MFunc{}
	for _, f := range p.Funcs {
		if f.Name == "main" {
			continue
		}
		n := 0
		leaf := true
		for _, b := range f.Blocks {
			n += len(b.Ins)
			for i := range b.Ins {
				if b.Ins[i].Op == MCall {
					leaf = false
				}
			}
		}
		if leaf && n <= maxIns && len(f.SlotSizes) == 0 {
			inlinable[f.Name] = f
		}
	}
	if len(inlinable) == 0 {
		return
	}
	// The label-uniquifying sequence is scoped to the compilation so that
	// concurrent compiles (the parallel evaluation sweep) stay
	// race-free and each program's labels are deterministic.
	inlineSeq := 0
	for _, f := range p.Funcs {
		inlineInto(f, inlinable, &inlineSeq)
	}
}

func inlineInto(f *MFunc, inlinable map[string]*MFunc, inlineSeq *int) {
	for bi := 0; bi < len(f.Blocks); bi++ {
		b := f.Blocks[bi]
		for ii := 0; ii < len(b.Ins); ii++ {
			in := b.Ins[ii]
			if in.Op != MCall {
				continue
			}
			callee, ok := inlinable[in.Sym]
			if !ok || callee.Name == f.Name {
				continue
			}
			*inlineSeq++
			prefix := fmt.Sprintf("%s_il%d_", f.Name, *inlineSeq)

			// Clone callee with remapped vregs and labels.
			remap := make([]VReg, callee.NumVRegs)
			for i := range remap {
				remap[i] = VReg(f.NumVRegs + i)
			}
			f.NumVRegs += callee.NumVRegs
			mapV := func(v VReg) VReg {
				if v == NoVReg {
					return NoVReg
				}
				return remap[v]
			}
			contLabel := prefix + "cont"
			retV := in.Dst

			var clones []*MBlock
			for _, cb := range callee.Blocks {
				nb := &MBlock{Label: prefix + cb.Label}
				for _, ci := range cb.Ins {
					ni := ci
					ni.Dst = mapV(ci.Dst)
					ni.A = mapV(ci.A)
					ni.B = mapV(ci.B)
					if len(ci.Args) > 0 {
						ni.Args = make([]VReg, len(ci.Args))
						for k := range ci.Args {
							ni.Args[k] = mapV(ci.Args[k])
						}
					}
					if ni.Op == MJmp {
						ni.L1 = prefix + ci.L1
					}
					if ni.Op == MCmpBr {
						ni.L1 = prefix + ci.L1
						ni.L2 = prefix + ci.L2
					}
					if ni.Op == MRet {
						if retV != NoVReg && ci.A != NoVReg {
							nb.Ins = append(nb.Ins, MIns{Op: MMov, Dst: retV, A: mapV(ci.A)})
						}
						ni = MIns{Op: MJmp, L1: contLabel}
					}
					nb.Ins = append(nb.Ins, ni)
				}
				clones = append(clones, nb)
			}

			// Split the calling block.
			cont := &MBlock{Label: contLabel, Ins: append([]MIns(nil), b.Ins[ii+1:]...)}
			b.Ins = b.Ins[:ii]
			// Bind arguments.
			for k, a := range in.Args {
				if k < len(callee.ParamRegs) {
					b.Ins = append(b.Ins, MIns{Op: MMov, Dst: mapV(callee.ParamRegs[k]), A: a})
				}
			}
			b.Ins = append(b.Ins, MIns{Op: MJmp, L1: clones[0].Label})

			// Splice: b, clones..., cont, rest.
			rest := append([]*MBlock{}, f.Blocks[bi+1:]...)
			f.Blocks = append(f.Blocks[:bi+1], clones...)
			f.Blocks = append(f.Blocks, cont)
			f.Blocks = append(f.Blocks, rest...)
			break // re-scan from the next block (cont holds the tail)
		}
	}
}
