// Package beebs re-implements the ten benchmarks of the BEEBS suite
// (Pallister, Hollis, Bennett: "BEEBS: Open Benchmarks for Energy
// Measurements on Embedded Platforms") in the mcc dialect, sized for the
// 64 KiB flash / 8 KiB RAM target. Every benchmark writes its observable
// output to the `result` global; Validate checks it against a Go
// reference implementation of the same kernel.
package beebs

import (
	"fmt"
	"slices"
)

// Benchmark is one BEEBS program.
type Benchmark struct {
	Name   string
	Source string
	// ResultWords is the number of 32-bit words in the result global.
	ResultWords int
	// Validate checks simulated results against the Go reference.
	Validate func(words []uint32) error
	// UsesFloat marks soft-float-bound benchmarks (cubic, float_matmult),
	// whose library calls the optimizer cannot touch (§6 of the paper).
	UsesFloat bool
}

// registry holds the ten benchmarks, built once: their sources are
// constants and their validators pure, so every caller can share them.
var registry = []*Benchmark{
	{Name: "2dfir", Source: src2DFIR, ResultWords: 4, Validate: exact(ref2DFIR)},
	{Name: "blowfish", Source: srcBlowfish, ResultWords: 4, Validate: exact(refBlowfish)},
	{Name: "crc32", Source: srcCRC32, ResultWords: 2, Validate: exact(refCRC32)},
	{Name: "cubic", Source: srcCubic, ResultWords: 4, Validate: near(refCubic, 3), UsesFloat: true},
	{Name: "dijkstra", Source: srcDijkstra, ResultWords: 4, Validate: exact(refDijkstra)},
	{Name: "fdct", Source: srcFDCT, ResultWords: 4, Validate: exact(refFDCT)},
	{Name: "float_matmult", Source: srcFloatMatmult, ResultWords: 4, Validate: near(refFloatMatmult, 3), UsesFloat: true},
	{Name: "int_matmult", Source: srcIntMatmult, ResultWords: 4, Validate: exact(refIntMatmult)},
	{Name: "rijndael", Source: srcRijndael, ResultWords: 4, Validate: exact(refRijndael)},
	{Name: "sha", Source: srcSHA, ResultWords: 5, Validate: exact(refSHA)},
}

// All returns the ten benchmarks in the paper's Figure 5 order: a fresh
// slice of shared benchmarks, which callers must not modify.
func All() []*Benchmark {
	return slices.Clone(registry)
}

// Get returns the (shared) benchmark with the given name, or nil.
func Get(name string) *Benchmark {
	for _, b := range registry {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// exact builds a validator requiring bit-identical results.
func exact(ref func() []uint32) func([]uint32) error {
	return func(words []uint32) error {
		want := ref()
		if len(words) < len(want) {
			return fmt.Errorf("got %d result words, want %d", len(words), len(want))
		}
		for i, w := range want {
			if words[i] != w {
				return fmt.Errorf("result[%d] = %d (%#x), want %d (%#x)",
					i, int32(words[i]), words[i], int32(w), w)
			}
		}
		return nil
	}
}

// near builds a validator allowing ±tol on each (integer-scaled float)
// result word: the simulated soft-float truncates where Go's float32
// rounds to nearest.
func near(ref func() []uint32, tol int32) func([]uint32) error {
	return func(words []uint32) error {
		want := ref()
		if len(words) < len(want) {
			return fmt.Errorf("got %d result words, want %d", len(words), len(want))
		}
		for i, w := range want {
			d := int64(int32(words[i])) - int64(int32(w))
			if d < -int64(tol) || d > int64(tol) {
				return fmt.Errorf("result[%d] = %d, want %d ± %d",
					i, int32(words[i]), int32(w), tol)
			}
		}
		return nil
	}
}

// ---- Go reference implementations (mirroring the C semantics) ----

func ref2DFIR() []uint32 {
	var image, out [16][16]int32
	coeff := [3][3]int32{{1, 2, 1}, {2, 4, 2}, {1, 2, 1}}
	for i := int32(0); i < 16; i++ {
		for j := int32(0); j < 16; j++ {
			image[i][j] = (i*31 + j*17 + 7) % 256
		}
	}
	for rep := 0; rep < 4; rep++ {
		for i := 1; i < 15; i++ {
			for j := 1; j < 15; j++ {
				acc := int32(0)
				for ki := 0; ki < 3; ki++ {
					for kj := 0; kj < 3; kj++ {
						acc += image[i+ki-1][j+kj-1] * coeff[ki][kj]
					}
				}
				out[i][j] = acc >> 4
			}
		}
	}
	sum := int32(0)
	h := uint32(2166136261)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			sum += out[i][j]
			h = (h ^ uint32(out[i][j])) * 16777619
		}
	}
	return []uint32{uint32(sum), h, uint32(out[8][8]), uint32(out[1][14])}
}

func refBlowfish() []uint32 {
	var parr [18]uint32
	var sbox [256]uint32
	var data [32]uint32
	x := uint32(0x243f6a88)
	for i := 0; i < 18; i++ {
		x = x*1664525 + 1013904223
		parr[i] = x
	}
	for i := 0; i < 256; i++ {
		x = x*1664525 + 1013904223
		sbox[i] = x
	}
	for i := 0; i < 32; i++ {
		data[i] = uint32(int32(i) * int32(-1640531535)) // 2654435761 as int32
	}
	f := func(x uint32) uint32 {
		a := sbox[(x>>24)&255]
		b := sbox[(x>>16)&255]
		c := sbox[(x>>8)&255]
		d := sbox[x&255]
		return ((a + b) ^ c) + d
	}
	enc := func(idx int) {
		l, r := data[idx], data[idx+1]
		for i := 0; i < 16; i++ {
			l ^= parr[i]
			r = f(l) ^ r
			l, r = r, l
		}
		l, r = r, l
		r ^= parr[16]
		l ^= parr[17]
		data[idx], data[idx+1] = l, r
	}
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < 32; i += 2 {
			enc(i)
		}
	}
	h := uint32(0)
	for i := 0; i < 32; i++ {
		h = h*31 + data[i]
	}
	return []uint32{h, data[0], data[31], parr[17]}
}

func refCRC32() []uint32 {
	var buf [256]byte
	for i := 0; i < 256; i++ {
		buf[i] = byte(i*7 + 3)
	}
	var c uint32
	for rep := 0; rep < 4; rep++ {
		crc := uint32(0xFFFFFFFF)
		for i := 0; i < 256; i++ {
			crc ^= uint32(buf[i])
			for k := 0; k < 8; k++ {
				if crc&1 != 0 {
					crc = (crc >> 1) ^ 0xEDB88320
				} else {
					crc >>= 1
				}
			}
		}
		c = crc ^ 0xFFFFFFFF
	}
	return []uint32{c, uint32(buf[255])}
}

func refCubic() []uint32 {
	poly := func(a, b, c, x float32) float32 { return ((x+a)*x+b)*x + c }
	dpoly := func(a, b, x float32) float32 { return (3*x+2*a)*x + b }
	solve := func(a, b, c, x0 float32) float32 {
		x := x0
		for i := 0; i < 24; i++ {
			dx := dpoly(a, b, x)
			if dx == 0 {
				return x
			}
			x = x - poly(a, b, c, x)/dx
		}
		return x
	}
	roots := []float32{
		solve(-6, 11, -6, 0.5),
		solve(-6, 11, -6, 1.9),
		solve(-6, 11, -6, 5.0),
		solve(0, -1, 0, 0.8),
	}
	out := make([]uint32, 4)
	for i, r := range roots {
		out[i] = uint32(int32(r*1000 + 0.5))
	}
	return out
}

func refDijkstra() []uint32 {
	var adj [20][20]int32
	for i := int32(0); i < 20; i++ {
		for j := int32(0); j < 20; j++ {
			if i == j {
				adj[i][j] = 0
			} else {
				adj[i][j] = (i*23+j*41+5)%97 + 1
			}
		}
	}
	var dist [20]int32
	var visited [20]bool
	run := func(src int) {
		for i := range dist {
			dist[i] = 1000000
			visited[i] = false
		}
		dist[src] = 0
		for v := 0; v < 20; v++ {
			u, best := -1, int32(1000000)
			for i := 0; i < 20; i++ {
				if !visited[i] && dist[i] < best {
					best = dist[i]
					u = i
				}
			}
			if u < 0 {
				return
			}
			visited[u] = true
			for i := 0; i < 20; i++ {
				nd := dist[u] + adj[u][i]
				if !visited[i] && nd < dist[i] {
					dist[i] = nd
				}
			}
		}
	}
	acc := int32(0)
	for s := 0; s < 8; s++ {
		run(s)
		for i := 0; i < 20; i++ {
			acc += dist[i]
		}
	}
	run(0)
	return []uint32{uint32(acc), uint32(dist[19]), uint32(dist[10]), uint32(dist[1])}
}

func refFDCT() []uint32 {
	var block [8][8]int32
	rows := func() {
		for i := 0; i < 8; i++ {
			s07 := block[i][0] + block[i][7]
			d07 := block[i][0] - block[i][7]
			s16 := block[i][1] + block[i][6]
			d16 := block[i][1] - block[i][6]
			s25 := block[i][2] + block[i][5]
			d25 := block[i][2] - block[i][5]
			s34 := block[i][3] + block[i][4]
			d34 := block[i][3] - block[i][4]
			a, b := s07+s34, s16+s25
			c, d := s07-s34, s16-s25
			block[i][0] = a + b
			block[i][4] = a - b
			block[i][2] = (c*17 + d*7) >> 4
			block[i][6] = (c*7 - d*17) >> 4
			block[i][1] = (d07*23 + d16*19 + d25*13 + d34*5) >> 4
			block[i][3] = (d07*19 - d16*5 - d25*23 - d34*13) >> 4
			block[i][5] = (d07*13 - d16*23 + d25*5 + d34*19) >> 4
			block[i][7] = (d07*5 - d16*13 + d25*19 - d34*23) >> 4
		}
	}
	cols := func() {
		for j := 0; j < 8; j++ {
			s07 := block[0][j] + block[7][j]
			d07 := block[0][j] - block[7][j]
			s16 := block[1][j] + block[6][j]
			d16 := block[1][j] - block[6][j]
			s25 := block[2][j] + block[5][j]
			d25 := block[2][j] - block[5][j]
			s34 := block[3][j] + block[4][j]
			d34 := block[3][j] - block[4][j]
			a, b := s07+s34, s16+s25
			c, d := s07-s34, s16-s25
			block[0][j] = (a + b) >> 3
			block[4][j] = (a - b) >> 3
			block[2][j] = (c*17 + d*7) >> 7
			block[6][j] = (c*7 - d*17) >> 7
			block[1][j] = (d07*23 + d16*19 + d25*13 + d34*5) >> 7
			block[3][j] = (d07*19 - d16*5 - d25*23 - d34*13) >> 7
			block[5][j] = (d07*13 - d16*23 + d25*5 + d34*19) >> 7
			block[7][j] = (d07*5 - d16*13 + d25*19 - d34*23) >> 7
		}
	}
	sum := int32(0)
	h := uint32(2166136261)
	for rep := int32(0); rep < 16; rep++ {
		for i := int32(0); i < 8; i++ {
			for j := int32(0); j < 8; j++ {
				block[i][j] = ((i*8+j)*29+rep*13)%256 - 128
			}
		}
		rows()
		cols()
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				sum += block[i][j]
				h = (h ^ uint32(block[i][j])) * 16777619
			}
		}
	}
	return []uint32{uint32(sum), h, uint32(block[0][0]), uint32(block[7][7])}
}

func refFloatMatmult() []uint32 {
	var ma, mb, mc [10][10]float32
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			ma[i][j] = float32((i*13+j*7)%10) * 0.5
			mb[i][j] = float32((i*5+j*11)%10) * 0.25
		}
	}
	for rep := 0; rep < 2; rep++ {
		for i := 0; i < 10; i++ {
			for j := 0; j < 10; j++ {
				acc := float32(0)
				for k := 0; k < 10; k++ {
					acc += ma[i][k] * mb[k][j]
				}
				mc[i][j] = acc
			}
		}
	}
	acc := float32(0)
	for i := 0; i < 10; i++ {
		acc += mc[i][i]
	}
	return []uint32{
		uint32(int32(acc * 100)),
		uint32(int32(mc[0][0] * 100)),
		uint32(int32(mc[9][9] * 100)),
		uint32(int32(mc[4][7] * 100)),
	}
}

func refIntMatmult() []uint32 {
	var ma, mb, mc [20][20]int32
	for i := int32(0); i < 20; i++ {
		for j := int32(0); j < 20; j++ {
			ma[i][j] = (i*3+j*5)%17 - 8
			mb[i][j] = (i*7+j*2)%19 - 9
		}
	}
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < 20; i++ {
			for j := 0; j < 20; j++ {
				acc := int32(0)
				for k := 0; k < 20; k++ {
					acc += ma[i][k] * mb[k][j]
				}
				mc[i][j] = acc
			}
		}
	}
	trace := int32(0)
	for i := 0; i < 20; i++ {
		trace += mc[i][i]
	}
	h := uint32(2166136261)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			h = (h ^ uint32(mc[i][j])) * 16777619
		}
	}
	return []uint32{uint32(trace), h, uint32(mc[0][19]), uint32(mc[19][0])}
}

func refRijndael() []uint32 {
	var sbox [256]byte
	var state [4][16]byte
	var rk [176]byte
	x := uint32(99)
	for i := 0; i < 256; i++ {
		x = (x*167 + 77) % 256
		sbox[i] = byte(x ^ uint32(i>>1))
	}
	x = 0x52
	for i := 0; i < 176; i++ {
		x = (x*73 + 11) % 256
		rk[i] = byte(x)
	}
	xtime := func(b byte) byte {
		v := int32(b) << 1
		if b&128 != 0 {
			v ^= 27
		}
		return byte(v)
	}
	encrypt := func(s int) {
		st := &state[s]
		for i := 0; i < 16; i++ {
			st[i] ^= rk[i]
		}
		for round := 1; round <= 10; round++ {
			for i := 0; i < 16; i++ {
				st[i] = sbox[st[i]]
			}
			t := st[1]
			st[1], st[5], st[9], st[13] = st[5], st[9], st[13], t
			st[2], st[10] = st[10], st[2]
			st[6], st[14] = st[14], st[6]
			t = st[15]
			st[15], st[11], st[7], st[3] = st[11], st[7], st[3], t
			if round < 10 {
				for c := 0; c < 4; c++ {
					a0, a1, a2, a3 := st[4*c], st[4*c+1], st[4*c+2], st[4*c+3]
					t := a0 ^ a1 ^ a2 ^ a3
					st[4*c] ^= t ^ xtime(a0^a1)
					st[4*c+1] ^= t ^ xtime(a1^a2)
					st[4*c+2] ^= t ^ xtime(a2^a3)
					st[4*c+3] ^= t ^ xtime(a3^a0)
				}
			}
			for i := 0; i < 16; i++ {
				st[i] ^= rk[round*16+i]
			}
		}
	}
	for s := 0; s < 4; s++ {
		for i := 0; i < 16; i++ {
			state[s][i] = byte(s*16 + i*3 + 1)
		}
	}
	for rep := 0; rep < 4; rep++ {
		for s := 0; s < 4; s++ {
			encrypt(s)
		}
	}
	h := uint32(0)
	for s := 0; s < 4; s++ {
		for i := 0; i < 16; i++ {
			h = h*31 + uint32(state[s][i])
		}
	}
	return []uint32{h, uint32(state[0][0]), uint32(state[3][15]), uint32(rk[175])}
}

func refSHA() []uint32 {
	var w [80]uint32
	var msg [32]uint32
	h := [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	for i := 0; i < 32; i++ {
		msg[i] = uint32(int32(i)*int32(-2048144777)) ^ 0x9E3779B9 // 2246822519 as int32
	}
	rol := func(x uint32, n uint) uint32 { return x<<n | x>>(32-n) }
	blockFn := func(base int) {
		for t := 0; t < 16; t++ {
			w[t] = msg[base+t]
		}
		for t := 16; t < 80; t++ {
			w[t] = rol(w[t-3]^w[t-8]^w[t-14]^w[t-16], 1)
		}
		a, b, c, d, e := h[0], h[1], h[2], h[3], h[4]
		for t := 0; t < 80; t++ {
			var f, k uint32
			switch {
			case t < 20:
				f, k = (b&c)|((^b)&d), 0x5A827999
			case t < 40:
				f, k = b^c^d, 0x6ED9EBA1
			case t < 60:
				f, k = (b&c)|(b&d)|(c&d), 0x8F1BBCDC
			default:
				f, k = b^c^d, 0xCA62C1D6
			}
			tmp := rol(a, 5) + f + e + k + w[t]
			e, d, c, b, a = d, c, rol(b, 30), a, tmp
		}
		h[0] += a
		h[1] += b
		h[2] += c
		h[3] += d
		h[4] += e
	}
	for rep := 0; rep < 4; rep++ {
		blockFn(0)
		blockFn(16)
	}
	return h[:]
}
