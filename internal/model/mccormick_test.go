package model

import (
	"context"
	"math"
	"testing"

	"repro/internal/ir"
	"repro/internal/lp"
)

// McCormickILP is the reference lowering the split replaced, at m's
// point: one i_b per block with an edge that could cross, i_b ≥ r_b − r_s
// and i_b ≥ r_s − r_b per edge, and for a movable block the product
// p_b = r_b·i_b tied to r_b and i_b by p ≤ r, p ≤ i and p ≥ r + i − 1.
// The objective is Σ F[C(Er−Ef)r + T·Ef·i + T(Er−Ef)p + L·Er·r] +
// Σ Q(S·r + K·p), Eq. 7 is Σ S·r + K·p and Eq. 9 is Σ F(T·i + L·r). Its
// root relaxation bounds the split's from below.
func McCormickILP(m *Model) *lp.Problem {
	nb := len(m.Blocks)
	r, i, p := make([]int, nb), make([]int, nb), make([]int, nb)
	next := 0
	for b, bd := range m.Blocks {
		r[b], i[b], p[b] = -1, -1, -1
		if bd.Movable {
			r[b] = next
			next++
		}
	}
	for b, bd := range m.Blocks {
		need := bd.Movable && len(m.fam.succ[b]) > 0
		for _, s := range m.fam.succ[b] {
			need = need || m.Blocks[s].Movable
		}
		if need {
			i[b] = next
			next++
			if bd.Movable {
				p[b] = next
				next++
			}
		}
	}
	prob := lp.NewProblem(next)
	ef, er, q := m.Params.EFlash, m.Params.ERAM, m.Params.CkptNJPerByte
	ram, time := map[int]float64{}, map[int]float64{}
	for b, bd := range m.Blocks {
		if j := r[b]; j >= 0 {
			prob.SetObj(j, bd.F*(bd.C*(er-ef)+bd.L*er)+q*bd.S)
			prob.SetBounds(j, 0, 1)
			ram[j] += bd.S
			time[j] += bd.F * bd.L
		}
		if j := i[b]; j >= 0 {
			prob.SetObj(j, bd.F*bd.T*ef)
			time[j] += bd.F * bd.T
			for _, s := range m.fam.succ[b] {
				if r[b] < 0 && r[s] < 0 {
					continue
				}
				for _, sign := range []float64{1, -1} {
					row := map[int]float64{j: -1}
					if r[b] >= 0 {
						row[r[b]] += sign
					}
					if r[s] >= 0 {
						row[r[s]] -= sign
					}
					prob.AddRow(row, 0)
				}
			}
		}
		if j := p[b]; j >= 0 {
			prob.SetObj(j, bd.F*bd.T*(er-ef)+q*bd.K)
			ram[j] += bd.K
			prob.AddRow(map[int]float64{j: 1, r[b]: -1}, 0)
			prob.AddRow(map[int]float64{j: 1, i[b]: -1}, 0)
			prob.AddRow(map[int]float64{r[b]: 1, i[b]: 1, j: -1}, 1)
		}
	}
	if len(ram) > 0 {
		prob.AddRow(ram, m.Params.Rspare)
	}
	if len(time) > 0 {
		prob.AddRow(time, (m.Params.Xlimit-1)*m.BaseCycles)
	}
	return prob
}

// TestSplitIsStrictlyTighter: block b at r_b = ½ (fixed by its column
// bounds) has one successor fixed in RAM and one fixed in flash. The
// split charges b's instrumentation ½·F·T·(E_flash + E_RAM), i^f and i^r
// both ½; the McCormick lowering puts i = p = ½ and charges only
// ½·F·T·E_RAM. Everything else the two lowerings charge alike.
func TestSplitIsStrictlyTighter(t *testing.T) {
	params := defaultParams()
	params.Rspare, params.Xlimit = 1e6, 100
	m := &Model{Params: params, fam: &family{byLabel: map[string]int{}}}
	for k, lbl := range []string{"b", "s1", "s2"} {
		bd := &BlockData{Block: &ir.Block{Label: lbl}, S: 8, C: 10, F: 1, K: 18, T: 4, Movable: true}
		m.fam.byLabel[lbl] = k
		m.Blocks = append(m.Blocks, bd)
		m.BaseCycles += bd.F * bd.C
	}
	m.Blocks[0].Edges = []*ir.Block{m.Blocks[1].Block, m.Blocks[2].Block}
	m.fam.succ = [][]int{{1, 2}, nil, nil}
	m.lower()

	root := func(prob *lp.Problem) float64 {
		t.Helper()
		for j, v := range []float64{0.5, 1, 0} { // r columns come first
			prob.SetBounds(j, v, v)
		}
		sol, err := prob.Solve(context.Background())
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("root: %v, %v", sol, err)
		}
		return sol.Obj
	}
	split, _ := m.BuildILP()
	ef, er := params.EFlash, params.ERAM
	rTerms := 1.5 * 10 * (er - ef) // Σ r·F·C·(Er−Ef) at r = (½, 1, 0)
	for _, c := range []struct {
		name string
		got  float64
		want float64
	}{
		{"split", root(split), rTerms + 0.5*4*(ef+er)},
		{"McCormick", root(McCormickILP(m)), rTerms + 0.5*4*er},
	} {
		if math.Abs(c.got-c.want) > 1e-9*(1+math.Abs(c.want)) {
			t.Errorf("%s root %v, want %v", c.name, c.got, c.want)
		}
	}
}
