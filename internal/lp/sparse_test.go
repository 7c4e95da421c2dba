package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The dense references below are the row passes as they read before rows
// carried their nonzero column lists: every one walks all n coefficients
// and skips c == 0 itself. The sparse passes must match them bit for bit.

func denseFeasible(p *Problem, x []float64, tol float64) bool {
	for j := 0; j < p.n; j++ {
		if x[j] < p.lo[j]-tol || x[j] > p.hi[j]+tol {
			return false
		}
	}
	for i, row := range p.rowCoef {
		v := 0.0
		for j, c := range row {
			if c != 0 {
				v += c * x[j]
			}
		}
		if v > p.rowRHS[i]+tol {
			return false
		}
	}
	return true
}

func denseObjective(p *Problem, x []float64) float64 {
	v := 0.0
	for j := 0; j < p.n; j++ {
		if p.obj[j] != 0 {
			v += p.obj[j] * x[j]
		}
	}
	return v
}

func denseCutBound(p *Problem, reduced []float64) (bound float64, ok bool) {
	d := slices.Clone(p.obj)
	mag := make([]float64, p.n)
	for j, c := range p.obj {
		mag[j] = math.Abs(c)
	}
	usable := func(r float64) bool { return r > 0 && r < math.Inf(1) }
	rmax := 0.0
	for k := range p.rowRHS {
		if r := reduced[p.n+k]; usable(r) {
			rmax = max(rmax, r)
		}
	}
	for k := range p.rowRHS {
		r := reduced[p.n+k]
		if !usable(r) || r <= 1e-9*rmax {
			continue
		}
		y := -r
		for j, a := range p.rowCoef[k] {
			if a != 0 {
				d[j] -= y * a
				mag[j] += math.Abs(y * a)
			}
		}
		bound += y * p.rowRHS[k]
	}
	for j, dj := range d {
		if math.Abs(dj) <= 1e-9*mag[j] {
			continue
		}
		x := p.lo[j]
		if dj < 0 {
			x = p.hi[j]
		}
		if math.IsInf(x, 0) {
			return math.Inf(-1), false
		}
		bound += dj * x
	}
	return bound, true
}

func denseFarkas(p *Problem, tb *tableau, r int) error {
	m := len(p.rowRHS)
	if r < 0 || r >= len(tb.t) || len(tb.t) != m || tb.total != p.n+m {
		return errors.New("lp: farkas: tableau does not match the problem's layout")
	}
	ymax := 0.0
	for k := 0; k < m; k++ {
		ymax = max(ymax, tb.cell(r, p.n+k))
	}
	c := make([]float64, p.n)
	mag := make([]float64, p.n)
	yb, scale := 0.0, 0.0
	for k := 0; k < m; k++ {
		y := tb.cell(r, p.n+k)
		if y <= 1e-9*ymax {
			continue
		}
		for j, a := range p.rowCoef[k] {
			if a != 0 {
				c[j] += y * a
				mag[j] += math.Abs(y * a)
			}
		}
		yb += y * p.rowRHS[k]
		scale += math.Abs(y * p.rowRHS[k])
	}
	least := 0.0
	for j, cj := range c {
		if math.Abs(cj) <= 1e-9*mag[j] {
			continue
		}
		bound := p.lo[j]
		if cj < 0 {
			bound = p.hi[j]
		}
		if math.IsInf(bound, 0) {
			return fmt.Errorf("lp: farkas: column %d is unbounded in the combined row", j)
		}
		least += cj * bound
		scale += math.Abs(cj * bound)
	}
	if least-yb <= 1e-9*(1+scale) {
		return fmt.Errorf("lp: farkas: combined row is satisfiable (%g ≤ %g)", least, yb)
	}
	return nil
}

func denseNewTableau(p *Problem) tableau {
	m, n := len(p.rowRHS), p.n
	total := n + m
	tb := tableau{cells: make([]float64, m*(n+1)), lab: make([]int, 2*total), n: n, total: total}
	tb.rows(m)
	tb.views()
	for i, row := range p.rowCoef {
		ti := tb.t[i]
		ti[n] = p.rowRHS[i]
		for j, c := range row {
			if c != 0 {
				ti[j] = c
				if p.lo[j] != 0 {
					ti[n] -= c * p.lo[j]
				}
			}
		}
	}
	for j := 0; j < total; j++ {
		tb.lab[j], tb.pos[j] = j, j
	}
	tb.up = make([]float64, total)
	for j := range tb.up {
		tb.up[j] = math.Inf(1)
		if j < n {
			tb.up[j] = p.hi[j] - p.lo[j]
		}
	}
	tb.flip = make([]bool, total)
	return tb
}

// sparseCoef draws a row coefficient: mostly zeros, explicit or −0, with
// small integers, fractions, subnormals and the odd NaN among them.
func sparseCoef(rng *rand.Rand) float64 {
	switch r := rng.Intn(40); {
	case r < 16:
		return 0
	case r < 20:
		return math.Copysign(0, -1)
	case r < 22:
		return math.SmallestNonzeroFloat64 * float64(rng.Intn(5)-2)
	case r < 23:
		return math.NaN()
	case r < 30:
		return float64(rng.Intn(9)-4) / 4
	}
	return float64(rng.Intn(13) - 6)
}

// sparseValue draws a point coordinate, a price or a tableau cell.
func sparseValue(rng *rand.Rand) float64 {
	switch r := rng.Intn(30); {
	case r < 5:
		return 0
	case r < 6:
		return math.Copysign(0, -1)
	case r < 7:
		return math.Inf(1)
	case r < 8:
		return 1e-12 * float64(rng.Intn(3)+1)
	case r < 9:
		return math.SmallestNonzeroFloat64
	}
	return float64(rng.Intn(41)-20) / 4
}

// sparseProblem builds a random problem whose rows come from AddRow
// maps and AddDenseRow slices, explicit zeros and −0 included.
func sparseProblem(rng *rand.Rand) *Problem {
	n, m := 1+rng.Intn(7), rng.Intn(6)
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		if rng.Intn(3) > 0 {
			p.SetObj(j, sparseCoef(rng))
		}
		lo := float64(rng.Intn(3)) / 2
		hi := math.Inf(1)
		if rng.Intn(3) > 0 {
			hi = lo + float64(rng.Intn(4))
		}
		p.SetBounds(j, lo, hi)
	}
	for i := 0; i < m; i++ {
		rhs := float64(rng.Intn(11)) / 2
		if rng.Intn(3) > 0 {
			row := make([]float64, n)
			for j := range row {
				row[j] = sparseCoef(rng)
			}
			p.AddDenseRow(row, rhs)
		} else {
			row := map[int]float64{}
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					row[j] = sparseCoef(rng)
				}
			}
			p.AddRow(row, rhs)
		}
	}
	if p.err != nil {
		panic(p.err)
	}
	return p
}

// sameTableau reports whether two tableaus have the same layout, basis,
// ranges and flags, and the same cells bit for bit.
func sameTableau(a, b *tableau) bool {
	return a.n == b.n && a.total == b.total &&
		slices.Equal(a.lab, b.lab) && slices.Equal(a.flip, b.flip) &&
		sameFloats(a.up, b.up) && sameFloats(a.cells, b.cells)
}

// TestSparseRowsMatchDense: on random problems with explicit zeros, −0,
// subnormal and NaN coefficients, Feasible, Objective, cutBound, farkas
// and newTableau, which walk each row's nonzero columns, answer bit for
// bit as their dense references do. One scratch serves every cutBound and
// farkas call on a problem, as one resume's does, so nothing a call
// leaves in it reaches the next.
func TestSparseRowsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 3000; trial++ {
		p := sparseProblem(rng)
		n, m := p.n, len(p.rowRHS)
		for i, row := range p.rowCoef {
			for _, j := range p.rowNZ[i] {
				if row[j] == 0 {
					t.Fatalf("trial %d: row %d lists column %d, whose coefficient is zero", trial, i, j)
				}
			}
		}

		got, want := p.newTableau(), denseNewTableau(p)
		if !sameTableau(&got, &want) {
			t.Fatalf("trial %d: newTableau differs from the dense layout\ngot  %v\nwant %v", trial, got.cells, want.cells)
		}

		var sc scratch
		for k := 0; k < 8; k++ {
			x := make([]float64, n)
			for j := range x {
				x[j] = sparseValue(rng)
				if rng.Intn(2) == 0 {
					x[j] = p.lo[j] // on a bound, so some points are feasible
				}
			}
			for _, tol := range []float64{0, 1e-6} {
				if g, w := p.Feasible(x, tol), denseFeasible(p, x, tol); g != w {
					t.Fatalf("trial %d: Feasible(%v, %g) = %v, dense %v", trial, x, tol, g, w)
				}
			}
			if g, w := p.Objective(x), denseObjective(p, x); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("trial %d: Objective(%v) = %v, dense %v", trial, x, g, w)
			}

			reduced := make([]float64, got.total)
			for j := range reduced {
				reduced[j] = sparseValue(rng)
			}
			gb, gok := p.cutBound(reduced, &sc)
			wb, wok := denseCutBound(p, reduced)
			if gok != wok || math.Float64bits(gb) != math.Float64bits(wb) {
				t.Fatalf("trial %d: cutBound = %v %v, dense %v %v", trial, gb, gok, wb, wok)
			}

			if m == 0 {
				continue
			}
			r := rng.Intn(m)
			for j := range got.t[r] {
				got.t[r][j] = sparseValue(rng)
			}
			ge, we := p.farkas(&got, r, &sc), denseFarkas(p, &got, r)
			if (ge == nil) != (we == nil) || ge != nil && ge.Error() != we.Error() {
				t.Fatalf("trial %d: farkas = %v, dense %v", trial, ge, we)
			}
		}
	}
}

// TestCloneAddsRowsOfItsOwn: a clone shares its original's rows, yet a
// row or RHS edit on either side never shows on the other.
func TestCloneAddsRowsOfItsOwn(t *testing.T) {
	p := NewProblem(2)
	p.AddRow(map[int]float64{0: 1}, 1)
	q := p.Clone()
	q.AddRow(map[int]float64{1: 2}, 2)
	p.AddDenseRow([]float64{3, 0}, 3)
	q.SetRHS(0, 5)
	switch {
	case p.NumRows() != 2 || q.NumRows() != 2:
		t.Fatalf("%d and %d rows, want 2 each", p.NumRows(), q.NumRows())
	case p.rowRHS[1] != 3 || p.rowCoef[1][0] != 3 || !slices.Equal(p.rowNZ[1], []int{0}):
		t.Fatalf("original's second row %v %v ≤ %v, want [3 0] [0] ≤ 3", p.rowCoef[1], p.rowNZ[1], p.rowRHS[1])
	case q.rowRHS[1] != 2 || q.rowCoef[1][1] != 2 || !slices.Equal(q.rowNZ[1], []int{1}):
		t.Fatalf("clone's second row %v %v ≤ %v, want [0 2] [1] ≤ 2", q.rowCoef[1], q.rowNZ[1], q.rowRHS[1])
	case p.rowRHS[0] != 1 || q.rowRHS[0] != 5:
		t.Fatalf("row 0 RHS %v and %v, want 1 and 5", p.rowRHS[0], q.rowRHS[0])
	}
}

// TestCopyBounds: CopyBounds takes over every column bound of a problem
// of the same size, and a size mismatch is a sticky ErrBadProblem that
// leaves the bounds as they were.
func TestCopyBounds(t *testing.T) {
	p, q := NewProblem(2), NewProblem(2)
	q.SetBounds(0, 1, 1)
	q.SetBounds(1, 2, 3)
	p.CopyBounds(q)
	for j := 0; j < 2; j++ {
		plo, phi := p.Bounds(j)
		qlo, qhi := q.Bounds(j)
		if plo != qlo || phi != qhi {
			t.Fatalf("column %d: bounds [%v,%v], want [%v,%v]", j, plo, phi, qlo, qhi)
		}
	}
	p.CopyBounds(NewProblem(3))
	if lo, hi := p.Bounds(1); lo != 2 || hi != 3 {
		t.Fatalf("a mismatched copy changed column 1 to [%v,%v]", lo, hi)
	}
	if _, err := p.Solve(context.Background()); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("Solve after a mismatched copy: %v, want ErrBadProblem", err)
	}
}
