package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// Dense is a fully-connected layer y = W·x + b with optional weight
// quantization. FINN executes dense layers on the same MVTU hardware as
// convolutions, so Dense carries the same quantizer plumbing as Conv2D.
type Dense struct {
	ID   string
	In   int
	Out  int
	Flat bool // accept any input whose volume equals In (flatten on the fly)

	Weight *Param // (Out, In)
	Bias   *Param // (Out) or nil

	Quant *quant.WeightQuantizer

	// forward cache
	x  *tensor.Tensor
	qw *tensor.Tensor

	// EffectiveWeights cache, keyed on the weight Param's identity and
	// version (see Conv2D).
	effW        *tensor.Tensor
	effWOf      *Param
	effWVersion uint64
	quantRuns   int

	// Integer fast-path cache and path counters (see Conv2D).
	effWQ        *tensor.Int8Matrix
	effWQScale   float32
	effWQOf      *Param
	effWQVersion uint64
	intForwards  int
	floatFwds    int
}

// DenseConfig collects Dense construction options.
type DenseConfig struct {
	ID      string
	In, Out int
	Bias    bool
	WQuant  *quant.WeightQuantizer
	InitRNG *rand.Rand
}

// NewDense builds a dense layer, He-initializing weights when an RNG is
// supplied. Inputs of any shape are accepted as long as their volume is In.
func NewDense(cfg DenseConfig) (*Dense, error) {
	if cfg.In <= 0 || cfg.Out <= 0 {
		return nil, fmt.Errorf("nn: dense %q has non-positive size %dx%d", cfg.ID, cfg.In, cfg.Out)
	}
	d := &Dense{ID: cfg.ID, In: cfg.In, Out: cfg.Out, Flat: true, Quant: cfg.WQuant}
	w := tensor.New(cfg.Out, cfg.In)
	if cfg.InitRNG != nil {
		std := float32(math.Sqrt(2 / float64(cfg.In)))
		for i := range w.Data() {
			w.Data()[i] = float32(cfg.InitRNG.NormFloat64()) * std
		}
	}
	d.Weight = newParam(cfg.ID+".weight", w)
	if cfg.Bias {
		d.Bias = newParam(cfg.ID+".bias", tensor.New(cfg.Out))
	}
	return d, nil
}

// Name implements Layer.
func (d *Dense) Name() string { return "dense:" + d.ID }

// Params implements Layer.
func (d *Dense) Params() []*Param { return presentParams(d.Weight, d.Bias) }

// EffectiveWeights returns the weights as they enter the compute (after
// fake quantization), cached until the weight version changes; see
// Conv2D.EffectiveWeights. Callers must treat the result as read-only.
func (d *Dense) EffectiveWeights() (*tensor.Tensor, error) {
	if d.Weight == nil {
		return nil, errSkeleton(d.Name())
	}
	if d.Quant == nil {
		return d.Weight.Value, nil
	}
	if d.effW != nil && d.effWOf == d.Weight && d.effWVersion == d.Weight.Version() {
		return d.effW, nil
	}
	version := d.Weight.Version()
	q := tensor.New(d.Out, d.In)
	if _, err := d.Quant.QuantizeTensor(q.Data(), d.Weight.Value.Data()); err != nil {
		return nil, err
	}
	d.quantRuns++
	d.effW, d.effWOf, d.effWVersion = q, d.Weight, version
	return q, nil
}

// int8Weights returns the weight grid codes and tensor-wide scale for the
// integer fast path, cached until the weight version changes (see
// Conv2D.int8Weights).
func (d *Dense) int8Weights() (*tensor.Int8Matrix, float32, error) {
	if d.effWQ != nil && d.effWQOf == d.Weight && d.effWQVersion == d.Weight.Version() {
		return d.effWQ, d.effWQScale, nil
	}
	version := d.Weight.Version()
	wq := tensor.NewInt8Matrix(d.Out, d.In)
	scale, err := d.Quant.QuantizeTensorInt8(wq.Data, d.Weight.Value.Data())
	if err != nil {
		return nil, 0, err
	}
	d.quantRuns++
	d.effWQ, d.effWQScale, d.effWQOf, d.effWQVersion = wq, scale, d.Weight, version
	return wq, scale, nil
}

// useInt8 reports whether inference forwards take the integer fast path.
func (d *Dense) useInt8() bool {
	return d.Quant != nil && d.Quant.Int8Capable() && Int8GEMMEnabled()
}

// forwardInt8 is the inference fast path: an int8 matrix-vector product
// accumulated in int32 with one float rescale (see Conv2D.forwardInt8).
func (d *Dense) forwardInt8(x *tensor.Tensor) (*tensor.Tensor, error) {
	wq, wScale, err := d.int8Weights()
	if err != nil {
		return nil, err
	}
	xq := tensor.BorrowInt8(d.In)
	defer tensor.ReleaseInt8(xq)
	sx, err := quant.QuantizeSymmetricInt8(xq, x.Data())
	if err != nil {
		return nil, err
	}
	acc := tensor.BorrowInt32(d.Out)
	defer tensor.ReleaseInt32(acc)
	if err := tensor.GemmInt8Into(acc, wq, &tensor.Int8Matrix{Rows: d.In, Cols: 1, Data: xq}); err != nil {
		return nil, err
	}
	s := wScale * sx
	out := tensor.New(d.Out)
	od := out.Data()
	for i, v := range acc[:d.Out] {
		od[i] = float32(v) * s
	}
	if d.Bias != nil {
		for i := range od {
			od[i] += d.Bias.Value.Data()[i]
		}
	}
	d.intForwards++
	d.x, d.qw = nil, nil
	return out, nil
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if d.Weight == nil {
		return nil, errSkeleton(d.Name())
	}
	if x.Len() != d.In {
		return nil, fmt.Errorf("nn: dense %q input volume %d, want %d", d.ID, x.Len(), d.In)
	}
	if !train && d.useInt8() {
		return d.forwardInt8(x)
	}
	if !train {
		d.floatFwds++
	}
	xm, err := x.Reshape(d.In, 1)
	if err != nil {
		return nil, err
	}
	wm, err := d.EffectiveWeights()
	if err != nil {
		return nil, err
	}
	out := tensor.New(d.Out, 1)
	if err := tensor.GemmInto(out, wm, xm); err != nil {
		return nil, err
	}
	if d.Bias != nil {
		for i := range out.Data() {
			out.Data()[i] += d.Bias.Value.Data()[i]
		}
	}
	if train {
		d.x = x.Clone()
		d.qw = wm
	} else {
		d.x, d.qw = nil, nil
	}
	return out.Reshape(d.Out)
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if d.Weight == nil {
		return nil, errSkeleton(d.Name())
	}
	if d.x == nil {
		return nil, fmt.Errorf("nn: dense %q Backward without Forward(train=true)", d.ID)
	}
	if grad.Len() != d.Out {
		return nil, fmt.Errorf("nn: dense %q gradient volume %d, want %d", d.ID, grad.Len(), d.Out)
	}
	gd := grad.Data()
	xd := d.x.Data()
	wg := d.Weight.Grad.Data()
	// Straight-through estimator: gradients pass to the float shadow
	// weights unchanged (see Conv2D.Backward).
	for o := 0; o < d.Out; o++ {
		g := gd[o]
		row := o * d.In
		for i := 0; i < d.In; i++ {
			wg[row+i] += g * xd[i]
		}
	}
	if d.Bias != nil {
		bg := d.Bias.Grad.Data()
		for o := 0; o < d.Out; o++ {
			bg[o] += gd[o]
		}
	}
	dx := tensor.New(d.In)
	dxd := dx.Data()
	qwd := d.qw.Data()
	for o := 0; o < d.Out; o++ {
		g := gd[o]
		if g == 0 {
			continue
		}
		row := o * d.In
		for i := 0; i < d.In; i++ {
			dxd[i] += g * qwd[row+i]
		}
	}
	return dx, nil
}

// NeuronL1Norms returns the ℓ1 norm of each output neuron's weight row —
// the importance measure for fully-connected pruning (the paper's §IV-A1
// covers "neurons, in the case of a fully-connected layer").
func (d *Dense) NeuronL1Norms() []float64 {
	norms := make([]float64, d.Out)
	w := d.Weight.Value.Data()
	for o := 0; o < d.Out; o++ {
		var s float64
		for _, v := range w[o*d.In : (o+1)*d.In] {
			s += math.Abs(float64(v))
		}
		norms[o] = s
	}
	return norms
}

// PruneNeurons removes the given output neurons (ascending, unique
// indices), shrinking Out. The caller shrinks the consumer's inputs with
// PruneInputs.
func (d *Dense) PruneNeurons(remove []int) error {
	kept, err := checkRemove(d.Out, remove)
	if err != nil {
		return fmt.Errorf("nn: dense %q neurons: %w", d.ID, err)
	}
	d.Weight = keepGroups(d.Weight, 1, d.In, remove, kept, d.In)
	d.Bias = keepGroups(d.Bias, 1, 1, remove, kept)
	d.Out = kept
	return nil
}

// PruneInputs removes the given input columns, matching an upstream filter
// prune that reached the classifier head. remove indexes *channel groups*
// of size groupSize (the flattened spatial footprint per channel).
func (d *Dense) PruneInputs(remove []int, groupSize int) error {
	if groupSize <= 0 || d.In%groupSize != 0 {
		return fmt.Errorf("nn: dense %q group size %d does not divide In %d", d.ID, groupSize, d.In)
	}
	groups := d.In / groupSize
	kept, err := checkRemove(groups, remove)
	if err != nil {
		return fmt.Errorf("nn: dense %q inputs: %w", d.ID, err)
	}
	newIn := kept * groupSize
	d.Weight = keepGroups(d.Weight, d.Out, groupSize, remove, d.Out, newIn)
	d.In = newIn
	return nil
}
