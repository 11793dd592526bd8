package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution layer with OIHW weights and optional weight
// quantization. It is the software twin of a FINN SWU+MVTU pair.
type Conv2D struct {
	ID   string
	Geom tensor.ConvGeom // input geometry; OutC filters of KHxKW over InC
	OutC int

	Weight *Param // shape (OutC, InC, KH, KW)
	Bias   *Param // shape (OutC); nil if disabled

	Quant *quant.WeightQuantizer // nil = float weights
	// PerChannel quantizes each filter with its own adaptive scale
	// (FINN's per-channel weight scaling) instead of one tensor-wide
	// scale.
	PerChannel bool

	// forward cache
	cols   *tensor.Tensor // im2col of last input (borrowed scratch)
	qw     *tensor.Tensor // quantized weight matrix (OutC, InC*KH*KW)
	inGeom tensor.ConvGeom

	// EffectiveWeights cache, keyed on the weight Param's identity and
	// version so inference-only workloads stop re-quantizing identical
	// weights every image. quantRuns counts actual quantizer passes (for
	// the regression test guarding the cache).
	effW        *tensor.Tensor
	effWOf      *Param
	effWVersion uint64
	quantRuns   int

	// Integer fast-path cache, keyed like effW: the weight grid codes and
	// their scales, requantized only when the weight version changes. The
	// path counters record which kernel served each inference forward (the
	// int8-path acceptance test fails if a quantized layer falls back to
	// float).
	effWQ        *tensor.Int8Matrix
	effWQScales  []float32
	effWQOf      *Param
	effWQVersion uint64
	outScaleBuf  []float32
	intForwards  int
	floatFwds    int
}

// ConvConfig collects Conv2D construction options.
type ConvConfig struct {
	ID         string
	Geom       tensor.ConvGeom
	OutC       int
	Bias       bool
	WQuant     *quant.WeightQuantizer
	PerChannel bool       // per-filter quantization scales
	InitRNG    *rand.Rand // nil = zero weights
}

// NewConv2D builds a convolution layer, He-initializing weights when an RNG
// is supplied.
func NewConv2D(cfg ConvConfig) (*Conv2D, error) {
	if err := cfg.Geom.Validate(); err != nil {
		return nil, err
	}
	if cfg.OutC <= 0 {
		return nil, fmt.Errorf("nn: conv %q has non-positive OutC %d", cfg.ID, cfg.OutC)
	}
	c := &Conv2D{ID: cfg.ID, Geom: cfg.Geom, OutC: cfg.OutC, Quant: cfg.WQuant, PerChannel: cfg.PerChannel}
	w := tensor.New(cfg.OutC, cfg.Geom.InC, cfg.Geom.KH, cfg.Geom.KW)
	if cfg.InitRNG != nil {
		fanIn := cfg.Geom.InC * cfg.Geom.KH * cfg.Geom.KW
		std := float32(math.Sqrt(2 / float64(fanIn)))
		for i := range w.Data() {
			w.Data()[i] = float32(cfg.InitRNG.NormFloat64()) * std
		}
	}
	c.Weight = newParam(cfg.ID+".weight", w)
	if cfg.Bias {
		c.Bias = newParam(cfg.ID+".bias", tensor.New(cfg.OutC))
	}
	return c, nil
}

// Name implements Layer.
func (c *Conv2D) Name() string { return "conv2d:" + c.ID }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return presentParams(c.Weight, c.Bias) }

// EffectiveWeights returns the weights as they enter the compute: the
// (OutC, InC·KH·KW) matrix after fake quantization (per-channel when
// configured), or the raw weights for float layers. The dataflow compiler
// consumes exactly this view. For quantized layers the result is cached
// until the weight Param's version changes (see Param.BumpVersion), so
// repeated inference does not re-quantize; callers must treat the returned
// tensor as read-only.
func (c *Conv2D) EffectiveWeights() (*tensor.Tensor, error) {
	if c.Weight == nil {
		return nil, errSkeleton(c.Name())
	}
	k := c.Geom.InC * c.Geom.KH * c.Geom.KW
	wm, err := c.Weight.Value.Reshape(c.OutC, k)
	if err != nil {
		return nil, err
	}
	if c.Quant == nil {
		return wm, nil
	}
	if c.effW != nil && c.effWOf == c.Weight && c.effWVersion == c.Weight.Version() {
		return c.effW, nil
	}
	version := c.Weight.Version()
	q := tensor.New(c.OutC, k)
	if c.PerChannel {
		if _, err := c.Quant.QuantizeTensorPerChannel(q.Data(), wm.Data(), k); err != nil {
			return nil, err
		}
	} else if _, err := c.Quant.QuantizeTensor(q.Data(), wm.Data()); err != nil {
		return nil, err
	}
	c.quantRuns++
	c.effW, c.effWOf, c.effWVersion = q, c.Weight, version
	return q, nil
}

// int8Weights returns the weight grid codes and per-row scales for the
// integer fast path, cached until the weight Param's identity or version
// changes (the same key as the EffectiveWeights cache). One scale is
// returned for tensor-wide quantization, OutC scales for per-channel.
func (c *Conv2D) int8Weights() (*tensor.Int8Matrix, []float32, error) {
	if c.effWQ != nil && c.effWQOf == c.Weight && c.effWQVersion == c.Weight.Version() {
		return c.effWQ, c.effWQScales, nil
	}
	version := c.Weight.Version()
	k := c.Geom.InC * c.Geom.KH * c.Geom.KW
	wq := tensor.NewInt8Matrix(c.OutC, k)
	var scales []float32
	if c.PerChannel {
		s, err := c.Quant.QuantizeTensorPerChannelInt8(wq.Data, c.Weight.Value.Data(), k)
		if err != nil {
			return nil, nil, err
		}
		scales = s
	} else {
		s, err := c.Quant.QuantizeTensorInt8(wq.Data, c.Weight.Value.Data())
		if err != nil {
			return nil, nil, err
		}
		scales = []float32{s}
	}
	c.quantRuns++
	c.effWQ, c.effWQScales, c.effWQOf, c.effWQVersion = wq, scales, c.Weight, version
	return wq, scales, nil
}

// useInt8 reports whether inference forwards take the integer fast path.
func (c *Conv2D) useInt8() bool {
	return c.Quant != nil && c.Quant.Int8Capable() && Int8GEMMEnabled()
}

// forwardInt8 is the inference fast path: weights as cached int8 grid
// codes, input dynamically quantized to int8, and the fused streaming
// im2col+GEMM kernel accumulating in int32 — no float GEMM and no full
// patch matrix. The single float rescale folds the weight scale(s) and
// the input scale.
func (c *Conv2D) forwardInt8(x *tensor.Tensor, oh, ow int) (*tensor.Tensor, error) {
	if x.Rank() != 3 || x.Dim(0) != c.Geom.InC || x.Dim(1) != c.Geom.InH || x.Dim(2) != c.Geom.InW {
		return nil, fmt.Errorf("nn: conv %q input %v does not match geometry %dx%dx%d",
			c.ID, x.Shape(), c.Geom.InC, c.Geom.InH, c.Geom.InW)
	}
	wq, wScales, err := c.int8Weights()
	if err != nil {
		return nil, err
	}
	xq := tensor.BorrowInt8(x.Len())
	defer tensor.ReleaseInt8(xq)
	sx, err := quant.QuantizeSymmetricInt8(xq, x.Data())
	if err != nil {
		return nil, err
	}
	if cap(c.outScaleBuf) < len(wScales) {
		c.outScaleBuf = make([]float32, len(wScales))
	}
	outScales := c.outScaleBuf[:len(wScales)]
	for i, s := range wScales {
		outScales[i] = s * sx
	}
	out := tensor.New(c.OutC, oh*ow)
	if err := tensor.ConvInt8Into(out, wq, xq, c.Geom, outScales); err != nil {
		return nil, err
	}
	c.addBias(out, oh, ow)
	c.intForwards++
	// Match the float inference path: a no-train forward invalidates any
	// pending Backward state.
	c.cols, c.qw = nil, nil
	return out.Reshape(c.OutC, oh, ow)
}

// Forward implements Layer. Input is CHW; output is (OutC, OutH, OutW).
// Quantized layers serve inference through the integer fast path (see
// forwardInt8); training and float layers run the float reference: the
// im2col matrix lives in borrowed scratch — inference returns it to the
// arena before Forward exits, training keeps it until Backward finishes.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if c.Weight == nil {
		return nil, errSkeleton(c.Name())
	}
	oh, ow := c.Geom.OutH(), c.Geom.OutW()
	if !train && c.useInt8() {
		return c.forwardInt8(x, oh, ow)
	}
	if !train {
		c.floatFwds++
	}
	cols := tensor.Borrow(c.Geom.InC*c.Geom.KH*c.Geom.KW, oh*ow)
	if err := tensor.Im2ColInto(cols, x, c.Geom); err != nil {
		tensor.Release(cols)
		return nil, err
	}
	wm, err := c.EffectiveWeights()
	if err != nil {
		tensor.Release(cols)
		return nil, err
	}
	out := tensor.New(c.OutC, oh*ow)
	if err := tensor.GemmInto(out, wm, cols); err != nil {
		tensor.Release(cols)
		return nil, err
	}
	c.addBias(out, oh, ow)
	if train {
		c.cols = cols
		c.qw = wm
		c.inGeom = c.Geom
	} else {
		tensor.Release(cols)
		c.cols, c.qw = nil, nil
	}
	return out.Reshape(c.OutC, oh, ow)
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if c.Weight == nil {
		return nil, errSkeleton(c.Name())
	}
	if c.cols == nil {
		return nil, fmt.Errorf("nn: conv %q Backward without Forward(train=true)", c.ID)
	}
	oh, ow := c.inGeom.OutH(), c.inGeom.OutW()
	g, err := grad.Reshape(c.OutC, oh*ow)
	if err != nil {
		return nil, err
	}
	k := c.inGeom.InC * c.inGeom.KH * c.inGeom.KW
	// dW = g · colsᵀ, with STE through the quantizer.
	dW := tensor.Borrow(c.OutC, k)
	if err := tensor.GemmTransBInto(dW, g, c.cols); err != nil {
		tensor.Release(dW)
		return nil, err
	}
	wg, err := c.Weight.Grad.Reshape(c.OutC, k)
	if err != nil {
		tensor.Release(dW)
		return nil, err
	}
	// Straight-through estimator: the gradient of the fake-quantized
	// forward passes to the float shadow weights unchanged (the adaptive
	// per-tensor scale means no weight sits outside the grid range).
	for i, gv := range dW.Data() {
		wg.Data()[i] += gv
	}
	tensor.Release(dW)
	if c.Bias != nil {
		bg := c.Bias.Grad.Data()
		gd := g.Data()
		for o := 0; o < c.OutC; o++ {
			var s float32
			for _, v := range gd[o*oh*ow : (o+1)*oh*ow] {
				s += v
			}
			bg[o] += s
		}
	}
	// dX = Col2Im(Wᵀ · g).
	dCols := tensor.Borrow(k, oh*ow)
	if err := tensor.GemmTransAInto(dCols, c.qw, g); err != nil {
		tensor.Release(dCols)
		return nil, err
	}
	dx := tensor.New(c.inGeom.InC, c.inGeom.InH, c.inGeom.InW)
	err = tensor.Col2ImInto(dx, dCols, c.inGeom)
	tensor.Release(dCols)
	// The im2col scratch borrowed by Forward(train=true) is done now.
	tensor.Release(c.cols)
	c.cols, c.qw = nil, nil
	if err != nil {
		return nil, err
	}
	return dx, nil
}

// PruneFilters removes the given output filters (ascending, unique indices)
// from the layer, shrinking OutC. The caller is responsible for shrinking
// the consuming layer's input channels with PruneInputChannels.
func (c *Conv2D) PruneFilters(remove []int) error {
	kept, err := checkRemove(c.OutC, remove)
	if err != nil {
		return fmt.Errorf("nn: conv %q: %w", c.ID, err)
	}
	k := c.Geom.InC * c.Geom.KH * c.Geom.KW
	c.Weight = keepGroups(c.Weight, 1, k, remove, kept, c.Geom.InC, c.Geom.KH, c.Geom.KW)
	c.Bias = keepGroups(c.Bias, 1, 1, remove, kept)
	c.OutC = kept
	return nil
}

// PruneInputChannels removes the given input channels from the layer's
// weights and geometry, matching an upstream filter prune.
func (c *Conv2D) PruneInputChannels(remove []int) error {
	kept, err := checkRemove(c.Geom.InC, remove)
	if err != nil {
		return fmt.Errorf("nn: conv %q inputs: %w", c.ID, err)
	}
	c.Weight = keepGroups(c.Weight, c.OutC, c.Geom.KH*c.Geom.KW, remove, c.OutC, kept, c.Geom.KH, c.Geom.KW)
	c.Geom.InC = kept
	return nil
}

// FilterL1Norms returns the ℓ1 norm of each output filter, the importance
// measure dataflow-aware pruning sorts on.
func (c *Conv2D) FilterL1Norms() []float64 {
	k := c.Geom.InC * c.Geom.KH * c.Geom.KW
	norms := make([]float64, c.OutC)
	d := c.Weight.Value.Data()
	for o := 0; o < c.OutC; o++ {
		var s float64
		for _, v := range d[o*k : (o+1)*k] {
			s += math.Abs(float64(v))
		}
		norms[o] = s
	}
	return norms
}

// checkRemove validates remove (strictly ascending, in range, not removing
// everything) against n channels and returns how many survive.
func checkRemove(n int, remove []int) (int, error) {
	if len(remove) >= n {
		return 0, fmt.Errorf("cannot remove %d of %d channels", len(remove), n)
	}
	prev := -1
	for _, r := range remove {
		if r <= prev {
			return 0, fmt.Errorf("remove indices must be strictly ascending, got %v", remove)
		}
		if r < 0 || r >= n {
			return 0, fmt.Errorf("remove index %d out of range [0,%d)", r, n)
		}
		prev = r
	}
	return n - len(remove), nil
}

// keepGroups returns a copy of p shaped as shape that drops, from each of
// its rows rows, the runs of group consecutive values at the checked
// indices remove. It is how every prune slices a parameter. A nil p (no
// bias, or a shape-only skeleton) stays nil, so pruning a skeleton copies
// no tensor.
func keepGroups(p *Param, rows, group int, remove []int, shape ...int) *Param {
	if p == nil {
		return nil
	}
	nt := tensor.New(shape...)
	src, dst := p.Value.Data(), nt.Data()
	oldRow, newRow := len(src)/rows, len(dst)/rows
	for r := 0; r < rows; r++ {
		row, out, rm := src[r*oldRow:(r+1)*oldRow], dst[r*newRow:(r+1)*newRow], remove
		for g := 0; g*group < oldRow; g++ {
			if len(rm) > 0 && rm[0] == g {
				rm = rm[1:]
				continue
			}
			out = out[copy(out, row[g*group:(g+1)*group]):]
		}
	}
	return newParam(p.Name, nt)
}
