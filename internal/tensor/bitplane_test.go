package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// Exactness tests of the bit-plane kernel against a brute-force
// Σ wcode·acode oracle. Both sides compute float32(acc)·scale from the same
// exact integer accumulator, so the comparison is == on every element.

// oracleConv is the direct six-loop convolution of signed weight codes
// (OIHW) with unsigned activation codes (CHW), int64 accumulation,
// rescaled like the kernel.
func oracleConv(w []int8, a []uint, g ConvGeom, rows int, scales []float32) []float32 {
	oh, ow := g.OutH(), g.OutW()
	k := g.InC * g.KH * g.KW
	out := make([]float32, rows*oh*ow)
	for o := 0; o < rows; o++ {
		s := scales[0]
		if len(scales) > 1 {
			s = scales[o]
		}
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc int64
				for c := 0; c < g.InC; c++ {
					for kh := 0; kh < g.KH; kh++ {
						iy := oy*g.StrideH - g.PadH + kh
						if iy < 0 || iy >= g.InH {
							continue
						}
						for kw := 0; kw < g.KW; kw++ {
							ix := ox*g.StrideW - g.PadW + kw
							if ix < 0 || ix >= g.InW {
								continue
							}
							acc += int64(w[o*k+(c*g.KH+kh)*g.KW+kw]) * int64(a[(c*g.InH+iy)*g.InW+ix])
						}
					}
				}
				out[(o*oh+oy)*ow+ox] = float32(int(acc)) * s
			}
		}
	}
	return out
}

// randWeightCodes draws zero-heavy signed codes on a W-bit grid: ±1 for
// W1, [−(2^(W−1)−1), 2^(W−1)−1] otherwise.
func randWeightCodes(rng *rand.Rand, n, wBits int) []int8 {
	codes := make([]int8, n)
	for i := range codes {
		if wBits == 1 {
			codes[i] = int8(2*rng.Intn(2) - 1)
			continue
		}
		if rng.Intn(3) == 0 {
			continue
		}
		lv := 1<<(wBits-1) - 1
		codes[i] = int8(rng.Intn(2*lv+1) - lv)
	}
	return codes
}

// randActCodes draws unsigned A-bit codes, about half of them zero.
func randActCodes(rng *rand.Rand, n, aBits int) []uint {
	codes := make([]uint, n)
	for i := range codes {
		if rng.Intn(2) == 0 {
			codes[i] = uint(rng.Intn(1 << aBits))
		}
	}
	return codes
}

// intCode is the activation grid of the tests: the integers themselves.
func intCode(v float32) (uint, bool) { return uint(v), v >= 0 && v == float32(int(v)) }

// runBitplane packs codes, runs the kernel and returns the output data.
func runBitplane(t testing.TB, w []int8, a []uint, g ConvGeom, rows, aBits int, scales []float32) []float32 {
	t.Helper()
	pw, err := PackBitplaneWeights(w, rows, g.InC, g.KH*g.KW)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, len(a))
	for i, c := range a {
		x[i] = float32(c)
	}
	acts := BorrowWords(BitplaneActsLen(g, aBits))
	defer ReleaseWords(acts)
	ok, err := PackBitplaneActs(acts, x, g, aBits, intCode)
	if err != nil || !ok {
		t.Fatalf("pack activations: ok=%v err=%v", ok, err)
	}
	dst := New(rows, g.OutH()*g.OutW())
	if err := BitplaneConvInto(dst, pw, acts, aBits, g, scales); err != nil {
		t.Fatal(err)
	}
	return dst.Data()
}

func TestBitplaneConvMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for _, wBits := range []int{1, 2, 3, 8} {
		for _, aBits := range []int{1, 2, 3} {
			for _, inC := range []int{1, 3, 45, 64, 65, 130} {
				for _, pad := range []int{0, 1} {
					for _, stride := range []int{1, 2} {
						g := ConvGeom{InC: inC, InH: 5, InW: 6, KH: 3, KW: 3,
							StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
						rows := 1 + rng.Intn(5)
						w := randWeightCodes(rng, rows*inC*9, wBits)
						a := randActCodes(rng, inC*g.InH*g.InW, aBits)
						for _, perChannel := range []bool{false, true} {
							scales := []float32{0.37}
							if perChannel {
								scales = make([]float32, rows)
								for i := range scales {
									scales[i] = rng.Float32() + 0.01
								}
							}
							got := runBitplane(t, w, a, g, rows, aBits, scales)
							want := oracleConv(w, a, g, rows, scales)
							name := fmt.Sprintf("W%dA%d inC=%d pad=%d stride=%d perChannel=%v", wBits, aBits, inC, pad, stride, perChannel)
							for i := range want {
								if got[i] != want[i] {
									t.Fatalf("%s: out[%d] = %v, oracle %v", name, i, got[i], want[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestBitplaneConvRandomGeometries draws kernel, stride and padding per
// axis (KH, KW 1–5; strides 1–3; pads 0–2) on non-square inputs, so a
// kernel that mixed up an H and a W value would miss the oracle.
func TestBitplaneConvRandomGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(144))
	for trial := 0; trial < 150; trial++ {
		g := ConvGeom{InC: []int{1, 3, 45, 64, 65, 130}[rng.Intn(6)],
			KH: 1 + rng.Intn(5), KW: 1 + rng.Intn(5),
			StrideH: 1 + rng.Intn(3), StrideW: 1 + rng.Intn(3),
			PadH: rng.Intn(3), PadW: rng.Intn(3)}
		for g.InH, g.InW = 1+rng.Intn(9), 1+rng.Intn(9); g.Validate() != nil; g.InH, g.InW = 1+rng.Intn(9), 1+rng.Intn(9) {
		}
		wBits, aBits := []int{1, 2, 3, 8}[rng.Intn(4)], 1+rng.Intn(3)
		rows := 1 + rng.Intn(5)
		w := randWeightCodes(rng, rows*g.InC*g.KH*g.KW, wBits)
		a := randActCodes(rng, g.InC*g.InH*g.InW, aBits)
		scales := make([]float32, 1+rng.Intn(2)*(rows-1))
		for i := range scales {
			scales[i] = rng.Float32() + 0.01
		}
		got := runBitplane(t, w, a, g, rows, aBits, scales)
		want := oracleConv(w, a, g, rows, scales)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("W%dA%d %+v: out[%d] = %v, oracle %v", wBits, aBits, g, i, got[i], want[i])
			}
		}
	}
}

// The dense shape: one pixel, one tap.
func TestBitplaneDenseMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	for _, in := range []int{1, 63, 64, 256, 513, 40000} { // 40000: a patch past the stack buffer
		g := ConvGeom{InC: in, InH: 1, InW: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
		w := randWeightCodes(rng, 7*in, 2)
		a := randActCodes(rng, in, 2)
		got := runBitplane(t, w, a, g, 7, 2, []float32{1})
		want := oracleConv(w, a, g, 7, []float32{1})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("in=%d: out[%d] = %v, oracle %v", in, i, got[i], want[i])
			}
		}
	}
}

func TestBitplaneBitIdenticalAcrossWorkers(t *testing.T) {
	prevGrain := SetParallelGrain(1)
	defer SetParallelGrain(prevGrain)
	rng := rand.New(rand.NewSource(143))
	g := ConvGeom{InC: 70, InH: 9, InW: 9, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	w := randWeightCodes(rng, 13*70*9, 3)
	a := randActCodes(rng, 70*81, 2)
	var first []float32
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		prev := SetMaxWorkers(workers)
		got := runBitplane(t, w, a, g, 13, 2, []float32{0.5})
		SetMaxWorkers(prev)
		if first == nil {
			first = got
			continue
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("workers=%d: out[%d] = %v, 1 worker %v", workers, i, got[i], first[i])
			}
		}
	}
}

func TestPackBitplaneActsRejectsOffGrid(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 2, InW: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	acts := make([]uint64, BitplaneActsLen(g, 2))
	for _, x := range [][]float32{
		{0, 1, 2, 3, 0, 1, 2.5, 3}, // not an integer
		{0, 1, 2, 3, 0, 1, 4, 3},   // code wider than two planes
		{0, 1, 2, 3, 0, 1, -1, 3},  // negative
	} {
		ok, err := PackBitplaneActs(acts, x, g, 2, intCode)
		if err != nil || ok {
			t.Fatalf("%v: ok=%v err=%v, want an off-grid refusal", x, ok, err)
		}
	}
	if _, err := PackBitplaneActs(acts[:1], make([]float32, 8), g, 2, intCode); err == nil {
		t.Fatal("short plane buffer accepted")
	}
}

func TestBitplaneValidation(t *testing.T) {
	if _, err := PackBitplaneWeights(make([]int8, 5), 2, 3, 1); err == nil {
		t.Fatal("code count mismatch accepted")
	}
	g := ConvGeom{InC: 3, InH: 4, InW: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	w, err := PackBitplaneWeights(make([]int8, 2*27), 2, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	acts := make([]uint64, BitplaneActsLen(g, 2))
	good := New(2, 4)
	if err := BitplaneConvInto(good, w, acts, 2, g, []float32{1}); err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"dst shape":   func() error { return BitplaneConvInto(New(3, 4), w, acts, 2, g, []float32{1}) },
		"acts length": func() error { return BitplaneConvInto(good, w, acts[1:], 2, g, []float32{1}) },
		"scales":      func() error { return BitplaneConvInto(good, w, acts, 2, g, []float32{1, 2, 3}) },
		"geometry": func() error {
			g2 := g
			g2.KH = 1
			return BitplaneConvInto(good, w, acts, 2, g2, []float32{1})
		},
	} {
		if call() == nil {
			t.Fatalf("%s mismatch accepted", name)
		}
	}
}

// FuzzBitplaneDot checks the kernel's dot product on random code vectors
// and plane widths against the brute-force sum.
func FuzzBitplaneDot(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), uint8(2))
	f.Add([]byte{0xff, 0x80, 0x7f, 0x01}, uint8(8), uint8(3))
	f.Add(make([]byte, 200), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, wBits, aBits uint8) {
		n := len(data) / 2
		if n == 0 {
			return
		}
		wb, ab := 1+int(wBits)%8, 1+int(aBits)%4
		w := make([]int8, n)
		a := make([]uint, n)
		for i := 0; i < n; i++ {
			w[i] = int8(data[2*i])
			if wb < 8 {
				lv := 1<<(wb-1) - 1
				w[i] = int8(int(w[i]) % (lv + 1)) // |code| ≤ lv (0 for W1)
			}
			a[i] = uint(data[2*i+1]) & (1<<ab - 1)
		}
		g := ConvGeom{InC: n, InH: 1, InW: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
		got := runBitplane(t, w, a, g, 1, ab, []float32{1})
		var want int64
		for i := range w {
			want += int64(w[i]) * int64(a[i])
		}
		if got[0] != float32(want) {
			t.Fatalf("W%dA%d n=%d: dot %v, brute force %d", wb, ab, n, got[0], want)
		}
	})
}
