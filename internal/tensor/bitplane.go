package tensor

import (
	"fmt"
	"math/bits"
)

// Bit-plane kernel for low-bit quantized layers, the software form of
// FINN's MVTU on narrow operands. Signed weight codes are split into
// magnitude planes by sign (P_i holds bit i of the positive codes' |w|,
// N_i of the negative ones'), unsigned activation codes into planes A_j,
// 64 input channels per uint64. A dot product is then
//
//	Σ_words Σ_i,j 2^(i+j) · (popcount(P_i & A_j) − popcount(N_i & A_j)),
//
// an exact integer sum, so results are bit-identical at any worker count.
// Both operands are laid out per (tap, channel word): activations per
// pixel of a zero-padded input, weights per (row, tap), so a convolution
// patch is KH rows of KW adjacent pixels and no im2col matrix is built.
// A dense layer is the same kernel on a 1×1 input with one tap.

// BitplaneWeights holds a weight matrix as sign-split magnitude planes.
// Data is laid out [row][tap][word][P_0..P_{Planes-1}, N_0..N_{Planes-1}].
type BitplaneWeights struct {
	Rows, Taps, Words, Planes int
	Data                      []uint64
}

// channelWords returns how many 64-channel words hold c channels.
func channelWords(c int) int { return (c + 63) / 64 }

// PackBitplaneWeights packs rows of signed codes in OIHW order (row o,
// channel c, tap t at codes[(o·inC+c)·taps+t]) into magnitude planes. The
// plane count is the bit length of the largest magnitude, at least one.
func PackBitplaneWeights(codes []int8, rows, inC, taps int) (*BitplaneWeights, error) {
	if rows <= 0 || inC <= 0 || taps <= 0 || len(codes) != rows*inC*taps {
		return nil, fmt.Errorf("tensor: %d weight codes do not fill %d rows of %d channels × %d taps",
			len(codes), rows, inC, taps)
	}
	var maxMag uint8 = 1
	for _, c := range codes {
		maxMag = max(maxMag, magnitude(c))
	}
	w := &BitplaneWeights{Rows: rows, Taps: taps, Words: channelWords(inC), Planes: bits.Len8(maxMag)}
	group := 2 * w.Planes
	w.Data = make([]uint64, rows*taps*w.Words*group)
	for o := 0; o < rows; o++ {
		for c := 0; c < inC; c++ {
			bit := uint64(1) << (c & 63)
			for t := 0; t < taps; t++ {
				code := codes[(o*inC+c)*taps+t]
				if code == 0 {
					continue
				}
				base := ((o*taps+t)*w.Words + c>>6) * group
				if code < 0 {
					base += w.Planes
				}
				for m := magnitude(code); m != 0; m &= m - 1 {
					w.Data[base+bits.TrailingZeros8(m)] |= bit
				}
			}
		}
	}
	return w, nil
}

// magnitude returns |c| (128 for −128).
func magnitude(c int8) uint8 {
	if c < 0 {
		return uint8(-int16(c))
	}
	return uint8(c)
}

// BitplaneActsLen returns the uint64 length PackBitplaneActs fills for a
// geometry with the given number of activation planes.
func BitplaneActsLen(g ConvGeom, planes int) int {
	return (g.InH + 2*g.PadH) * (g.InW + 2*g.PadW) * channelWords(g.InC) * planes
}

// PackBitplaneActs packs a CHW input's unsigned activation codes into dst,
// laid out [padded row][padded column][word][A_0..A_{planes-1}] with the
// padding border zero. code maps a nonzero value to its grid code and
// reports false for a value off the grid or a code wider than planes
// bits; PackBitplaneActs then stops and returns false, leaving dst
// undefined. Zero always packs as code 0.
func PackBitplaneActs(dst []uint64, x []float32, g ConvGeom, planes int, code func(float32) (uint, bool)) (bool, error) {
	if err := g.Validate(); err != nil {
		return false, err
	}
	if len(x) != g.InC*g.InH*g.InW || len(dst) != BitplaneActsLen(g, planes) {
		return false, fmt.Errorf("tensor: PackBitplaneActs input %d / planes %d do not match geometry %dx%dx%d",
			len(x), len(dst), g.InC, g.InH, g.InW)
	}
	clear(dst)
	var codes codeCache
	pw, words := g.InW+2*g.PadW, channelWords(g.InC)
	for c := 0; c < g.InC; c++ {
		bit := uint64(1) << (c & 63)
		plane := x[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for y := 0; y < g.InH; y++ {
			row := ((y+g.PadH)*pw+g.PadW)*words + c>>6
			for xi, v := range plane[y*g.InW : (y+1)*g.InW] {
				if v == 0 {
					continue
				}
				k, ok := codes.lookup(v, code)
				if !ok || k>>planes != 0 {
					return false, nil
				}
				base := (row + xi*words) * planes
				for ; k != 0; k &= k - 1 {
					dst[base+bits.TrailingZeros(k)] |= bit
				}
			}
		}
	}
	return true, nil
}

// codeCache remembers the codes of the first distinct values it is asked
// for: grid inputs repeat a handful of values, so the code function runs
// once per value rather than once per element.
type codeCache struct {
	n int
	v [8]float32
	k [8]uint
}

// lookup returns code(v), from the cache when v was seen before.
func (c *codeCache) lookup(v float32, code func(float32) (uint, bool)) (uint, bool) {
	for i, cv := range c.v[:c.n] {
		if cv == v {
			return c.k[i], true
		}
	}
	k, ok := code(v)
	if ok && c.n < len(c.v) {
		c.v[c.n], c.k[c.n] = v, k
		c.n++
	}
	return k, ok
}

// BitplaneConvInto computes dst = outScales ⊙ (W ⋆ A): the convolution of
// packed activations acts (PackBitplaneActs with actPlanes planes over g)
// with packed weights w, one output row per weight row. Row o is scaled
// by outScales[o], or outScales[0] for one tensor-wide scale. dst holds
// the Rows × OutH·OutW outputs in row-major order under any shape (the
// layers pass their output shape), fully overwritten. Accumulators are
// exact integers; the single float32 rescale is exact while they stay
// below 2^24 in magnitude. Output rows are split across the worker pool.
func BitplaneConvInto(dst *Tensor, w *BitplaneWeights, acts []uint64, actPlanes int, g ConvGeom, outScales []float32) error {
	if err := g.Validate(); err != nil {
		return err
	}
	oh, ow := g.OutH(), g.OutW()
	cols := oh * ow
	words := channelWords(g.InC)
	switch {
	case w.Taps != g.KH*g.KW || w.Words != words || len(w.Data) != w.Rows*w.Taps*w.Words*2*w.Planes:
		return fmt.Errorf("tensor: BitplaneConvInto weights %d taps × %d words do not match geometry", w.Taps, w.Words)
	case len(acts) != BitplaneActsLen(g, actPlanes):
		return fmt.Errorf("tensor: BitplaneConvInto has %d activation words, want %d", len(acts), BitplaneActsLen(g, actPlanes))
	case dst.Len() != w.Rows*cols:
		return fmt.Errorf("tensor: BitplaneConvInto dst %v, want %dx%d values", dst.shape, w.Rows, cols)
	case len(outScales) != 1 && len(outScales) != w.Rows:
		return fmt.Errorf("tensor: BitplaneConvInto wants 1 or %d output scales, got %d", w.Rows, len(outScales))
	}
	aPix := words * actPlanes         // activation words per pixel
	aRow := (g.InW + 2*g.PadW) * aPix // activation words per padded row
	span := g.KW * aPix               // one kernel row of a patch
	wRow := w.Taps * words * 2 * w.Planes
	od := dst.data
	parallelFor(w.Rows, cols*wRow, func(lo, hi int) {
		// The patch of one output position, gathered once and swept by
		// every row of the chunk.
		var buf [512]uint64
		patch := buf[:0]
		if n := g.KH * span; n <= len(buf) {
			patch = buf[:n]
		} else {
			patch = make([]uint64, n)
		}
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				base := oy*g.StrideH*aRow + ox*g.StrideW*aPix
				for kh := 0; kh < g.KH; kh++ {
					copy(patch[kh*span:(kh+1)*span], acts[base+kh*aRow:])
				}
				j := oy*ow + ox
				for o := lo; o < hi; o++ {
					s := outScales[0]
					if len(outScales) > 1 {
						s = outScales[o]
					}
					od[o*cols+j] = float32(bitplaneDot(w.Data[o*wRow:(o+1)*wRow], patch, w.Planes, actPlanes)) * s
				}
			}
		}
	})
	return nil
}

// bitplaneDot is one row-patch dot product: a specialised loop for one
// weight plane (W1 and W2 grids) against two activation planes, the CNV
// models' W2A2, and the generic loop otherwise.
func bitplaneDot(w, a []uint64, wPlanes, aPlanes int) int {
	if wPlanes == 1 && aPlanes == 2 {
		return dotW1A2(w, a)
	}
	return dotGeneric(w, a, wPlanes, aPlanes)
}

// dotGeneric is the reference loop: w holds groups of 2·wPlanes words
// (P then N planes), a groups of aPlanes words, one group per channel word.
func dotGeneric(w, a []uint64, wPlanes, aPlanes int) int {
	acc := 0
	for g := 0; g < len(a)/aPlanes; g++ {
		wg := w[g*2*wPlanes : (g+1)*2*wPlanes]
		ag := a[g*aPlanes : (g+1)*aPlanes]
		for i := 0; i < wPlanes; i++ {
			p, n := wg[i], wg[wPlanes+i]
			for j, av := range ag {
				acc += (bits.OnesCount64(p&av) - bits.OnesCount64(n&av)) << (i + j)
			}
		}
	}
	return acc
}

func dotW1A2(w, a []uint64) int {
	w = w[:len(a)]
	acc := 0
	for g := 0; g+1 < len(a); g += 2 {
		p, n := w[g], w[g+1]
		a0, a1 := a[g], a[g+1]
		acc += bits.OnesCount64(p&a0) - bits.OnesCount64(n&a0) +
			(bits.OnesCount64(p&a1)-bits.OnesCount64(n&a1))<<1
	}
	return acc
}
