package mcc

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/softfloat"
)

// livenessRef is the map-based liveness the bitset version replaced, kept
// as the reference it must agree with.
func livenessRef(f *MFunc) map[*MBlock]map[VReg]bool {
	byLabel := map[string]*MBlock{}
	for _, b := range f.Blocks {
		byLabel[b.Label] = b
	}
	gen := map[*MBlock]map[VReg]bool{}
	killed := map[*MBlock]map[VReg]bool{}
	for _, b := range f.Blocks {
		g, k := map[VReg]bool{}, map[VReg]bool{}
		for i := range b.Ins {
			in := &b.Ins[i]
			for _, u := range in.Uses() {
				if !k[u] {
					g[u] = true
				}
			}
			if d := in.Def(); d != NoVReg {
				k[d] = true
			}
		}
		gen[b], killed[b] = g, k
	}
	liveIn := map[*MBlock]map[VReg]bool{}
	liveOut := map[*MBlock]map[VReg]bool{}
	for _, b := range f.Blocks {
		liveIn[b] = map[VReg]bool{}
		liveOut[b] = map[VReg]bool{}
	}
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := map[VReg]bool{}
			for _, s := range b.Succs() {
				sb := byLabel[s]
				for v := range liveIn[sb] {
					out[v] = true
				}
			}
			in := map[VReg]bool{}
			for v := range out {
				if !killed[b][v] {
					in[v] = true
				}
			}
			for v := range gen[b] {
				in[v] = true
			}
			if len(out) != len(liveOut[b]) || len(in) != len(liveIn[b]) {
				changed = true
			}
			liveOut[b] = out
			liveIn[b] = in
		}
	}
	return liveOut
}

// optimizerCorpus is every BEEBS and examples/kernels source, the
// soft-float runtime, and a batch of randomProgram programs.
func optimizerCorpus(t *testing.T) []sourceUnit {
	units := append(goldenSources(t), sourceUnit{name: "softfloat", src: softfloat.Source, library: true})
	n := 40
	if testing.Short() {
		n = 10
	}
	rng := rand.New(rand.NewSource(20261017))
	for i := 0; i < n; i++ {
		units = append(units, sourceUnit{name: fmt.Sprintf("random%02d", i), src: randomProgram(rng)})
	}
	return units
}

// walkOptimizer lowers every corpus unit at every optimizing level and
// runs Optimize's rounds by hand, one pass at a time, for every round up
// to maxRounds. lowered sees each function after Lower (and after O3
// inlining); pass sees it after each pass, with the pass's change flag
// and a snapshot from just before the pass.
func walkOptimizer(t *testing.T, lowered func(where string, f *MFunc),
	pass func(where string, f *MFunc, changed bool, before []MBlock)) {
	t.Helper()
	for _, u := range optimizerCorpus(t) {
		ast, err := Parse(u.src)
		if err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		if err := check(ast, !u.library); err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		for _, level := range []OptLevel{O1, O2, O3, Os} {
			mp, err := Lower(ast)
			if err != nil {
				t.Fatalf("%s: %v", u.name, err)
			}
			for _, f := range mp.Funcs {
				lowered(fmt.Sprintf("%s/%v/%s lowered", u.name, level, f.Name), f)
			}
			if level == O3 {
				inlineSmallFunctions(mp, 24)
				for _, f := range mp.Funcs {
					lowered(fmt.Sprintf("%s/%v/%s inlined", u.name, level, f.Name), f)
				}
			}
			passes := pipeline(level)
			for _, f := range mp.Funcs {
				for round := 0; round < maxRounds; round++ {
					for pi, p := range passes {
						before := snapshotMIR(f)
						changed := p(f)
						pass(fmt.Sprintf("%s/%v/%s round %d pass %d", u.name, level, f.Name, round, pi), f, changed, before)
					}
				}
			}
		}
	}
}

// snapshotMIR deep-copies a function's blocks.
func snapshotMIR(f *MFunc) []MBlock {
	out := make([]MBlock, len(f.Blocks))
	for i, b := range f.Blocks {
		ins := slices.Clone(b.Ins)
		for j := range ins {
			ins[j].Args = slices.Clone(ins[j].Args)
		}
		out[i] = MBlock{Label: b.Label, Ins: ins}
	}
	return out
}

// TestLivenessMatchesReference checks the bitset liveness against the
// map-based reference on every block's live-out set, after lowering and
// after every pass of every round.
func TestLivenessMatchesReference(t *testing.T) {
	checked := 0
	compare := func(where string, f *MFunc) {
		got := liveness(f)
		want := livenessRef(f)
		if len(got) != len(f.Blocks) {
			t.Fatalf("%s: %d live-out sets for %d blocks", where, len(got), len(f.Blocks))
		}
		for bi, b := range f.Blocks {
			var gotSet, wantSet []VReg
			for v := 0; v < f.NumVRegs; v++ {
				if got[bi].has(VReg(v)) {
					gotSet = append(gotSet, VReg(v))
				}
			}
			for v := range want[b] {
				wantSet = append(wantSet, v)
			}
			slices.Sort(wantSet)
			if !slices.Equal(gotSet, wantSet) {
				t.Fatalf("%s: block %s live-out = %v, reference %v", where, b.Label, gotSet, wantSet)
			}
		}
		checked++
	}
	walkOptimizer(t, compare, func(where string, f *MFunc, _ bool, _ []MBlock) {
		compare(where, f)
	})
	t.Logf("%d liveness solutions compared", checked)
}

// TestPassChangeFlags checks that no pass under-reports: a pass that
// returns false must leave the function exactly as it found it, which is
// what lets Optimize stop at the first round without a change.
func TestPassChangeFlags(t *testing.T) {
	unchanged, changed := 0, 0
	walkOptimizer(t, func(string, *MFunc) {}, func(where string, f *MFunc, ch bool, before []MBlock) {
		if ch {
			changed++
			return
		}
		unchanged++
		after := snapshotMIR(f)
		if len(after) != len(before) {
			t.Fatalf("%s: pass reported no change but went from %d to %d blocks", where, len(before), len(after))
		}
		for i := range after {
			if !reflect.DeepEqual(after[i], before[i]) {
				t.Fatalf("%s: pass reported no change but rewrote a block:\nbefore: %+v\nafter:  %+v",
					where, before[i], after[i])
			}
		}
	})
	if unchanged == 0 || changed == 0 {
		t.Fatalf("corpus exercised %d changing and %d non-changing passes; want both", changed, unchanged)
	}
}
