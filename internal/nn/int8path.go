package nn

import (
	"fmt"
	"sync/atomic"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// The integer inference path: a quantized Conv2D or Dense whose input lies
// on a known activation grid computes inference on the bit-plane kernel
// (tensor.BitplaneConvInto) — weight and activation grid codes packed into
// bit planes, exact integer popcount accumulation, one float rescale per
// output row. Network.Append records the grid: the quantizer of the
// nearest upstream QuantAct reached only through MaxPool2D and Flatten,
// which both keep grid values. Each forward checks that every input value
// is on that grid and runs the float reference when one is not (the path
// counters record it). Training, float layers, grids wider than 8 bits
// and layers with no known input grid (the image input) always take the
// float reference, which the backward pass and the dataflow compiler
// consume. Call SetInt8GEMM(false) to force the float reference at
// inference time too, e.g. when bisecting a numeric difference against the
// compiled dataflow programs.

// floatGEMM forces the float reference; its zero value leaves the integer
// path on.
var floatGEMM atomic.Bool

// SetInt8GEMM enables or disables the integer inference path for
// quantized layers, returning the previous setting. Safe for concurrent
// use; in-flight forwards keep the path they chose.
func SetInt8GEMM(on bool) bool {
	return !floatGEMM.Swap(!on)
}

// Int8GEMMEnabled reports whether quantized layers take the integer path
// at inference time.
func Int8GEMMEnabled() bool { return !floatGEMM.Load() }

// intPath is the integer inference state of a quantized Conv2D or Dense.
type intPath struct {
	// inGrid is the activation grid of the layer input, set by
	// Network.Append; nil when no grid is known.
	inGrid *quant.ActQuantizer
	// packed is the bit-plane weight view, built on the first integer
	// forward, so skeletons and float-only layers never carry one.
	packed *packedWeights

	// quantRuns counts weight quantizer passes of either path (for the
	// regression tests guarding the caches); intForwards and floatFwds
	// count which path served each inference forward, off-grid fallbacks
	// included.
	quantRuns   int
	intForwards int
	floatFwds   int
}

// packedWeights holds packed weight planes and their scales, cached on the
// weight Param's identity and version like EffectiveWeights.
type packedWeights struct {
	w         *tensor.BitplaneWeights
	scales    []float32
	of        *Param
	version   uint64
	outScales []float32 // scales × activation step, refilled per forward
}

// useInt reports whether inference forwards try the integer path.
func (p *intPath) useInt(q *quant.WeightQuantizer) bool {
	return q != nil && q.Int8Capable() && p.inGrid != nil && Int8GEMMEnabled()
}

// forwardInt writes the pre-bias output of weights wp over input x with
// geometry g into out on the bit-plane kernel, one row per filter or
// neuron. It returns false, and no error, when a value of x is off the
// input grid.
func (p *intPath) forwardInt(out, x *tensor.Tensor, wp *Param, q *quant.WeightQuantizer, perChannel bool, g tensor.ConvGeom) (bool, error) {
	planes := p.inGrid.Bits
	acts := tensor.BorrowWords(tensor.BitplaneActsLen(g, planes))
	defer tensor.ReleaseWords(acts)
	ok, err := tensor.PackBitplaneActs(acts, x.Data(), g, planes, p.inGrid.GridCode)
	if err != nil || !ok {
		return false, err
	}
	pw, err := p.packWeights(wp, q, perChannel, g.InC, g.KH*g.KW)
	if err != nil {
		return false, err
	}
	step := p.inGrid.Step()
	pw.outScales = pw.outScales[:0]
	for _, s := range pw.scales {
		pw.outScales = append(pw.outScales, s*step)
	}
	if err := tensor.BitplaneConvInto(out, pw.w, acts, planes, g, pw.outScales); err != nil {
		return false, err
	}
	p.intForwards++
	return true, nil
}

// packWeights returns the packed weight planes, rebuilt when the weight
// Param's identity or version changed. Codes and scales come from the
// quantizer's int8 code view, so code·scale is bit-identical to
// EffectiveWeights.
func (p *intPath) packWeights(wp *Param, q *quant.WeightQuantizer, perChannel bool, inC, taps int) (*packedWeights, error) {
	if p.packed != nil && p.packed.of == wp && p.packed.version == wp.Version() {
		return p.packed, nil
	}
	version := wp.Version()
	codes := make([]int8, wp.Value.Len())
	var scales []float32
	if perChannel {
		s, err := q.QuantizeTensorPerChannelInt8(codes, wp.Value.Data(), inC*taps)
		if err != nil {
			return nil, err
		}
		scales = s
	} else {
		s, err := q.QuantizeTensorInt8(codes, wp.Value.Data())
		if err != nil {
			return nil, err
		}
		scales = []float32{s}
	}
	w, err := tensor.PackBitplaneWeights(codes, len(codes)/(inC*taps), inC, taps)
	if err != nil {
		return nil, fmt.Errorf("nn: %w", err)
	}
	p.quantRuns++
	p.packed = &packedWeights{w: w, scales: scales, of: wp, version: version}
	return p.packed, nil
}
