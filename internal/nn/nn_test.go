package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

func TestConvForwardKnown(t *testing.T) {
	// 1 input channel 3x3, one 2x2 filter of ones: output = window sums.
	c, err := NewConv2D(ConvConfig{
		ID:   "c0",
		Geom: tensor.ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1},
		OutC: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Weight.Value.Fill(1)
	in := tensor.MustFromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 3, 3)
	out, err := c.Forward(in, false)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.MustFromSlice([]float32{12, 16, 24, 28}, 1, 2, 2)
	if !tensor.Equal(out, want) {
		t.Fatalf("conv out = %v, want %v", out.Data(), want.Data())
	}
}

func TestConvBiasApplied(t *testing.T) {
	c, _ := NewConv2D(ConvConfig{
		ID:   "c0",
		Geom: tensor.ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		OutC: 2, Bias: true,
	})
	c.Weight.Value.Fill(0)
	c.Bias.Value.Set(3, 0)
	c.Bias.Value.Set(-1, 1)
	out, err := c.Forward(tensor.New(1, 2, 2), false)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0, 0) != 3 || out.At(1, 1, 1) != -1 {
		t.Fatalf("bias not applied: %v", out.Data())
	}
}

func TestConvBackwardWithoutForwardFails(t *testing.T) {
	c, _ := NewConv2D(ConvConfig{
		ID:   "c0",
		Geom: tensor.ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		OutC: 1,
	})
	if _, err := c.Backward(tensor.New(1, 2, 2)); err == nil {
		t.Fatal("Backward without Forward accepted")
	}
}

// numericalGrad estimates dLoss/dθ for one scalar parameter by central
// differences through the whole network.
func numericalGrad(t *testing.T, net *Network, x *tensor.Tensor, label int, p *Param, idx int) float64 {
	t.Helper()
	const eps = 1e-3
	orig := p.Value.Data()[idx]
	p.Value.Data()[idx] = orig + eps
	out, err := net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	lp, _, err := SoftmaxCrossEntropy(out, label)
	if err != nil {
		t.Fatal(err)
	}
	p.Value.Data()[idx] = orig - eps
	out, err = net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	lm, _, err := SoftmaxCrossEntropy(out, label)
	if err != nil {
		t.Fatal(err)
	}
	p.Value.Data()[idx] = orig
	return (lp - lm) / (2 * eps)
}

// analyticGrads runs one forward/backward pass and returns the network.
func analyticGrads(t *testing.T, net *Network, x *tensor.Tensor, label int) {
	t.Helper()
	net.ZeroGrad()
	out, err := net.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := SoftmaxCrossEntropy(out, label)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Backward(g); err != nil {
		t.Fatal(err)
	}
}

// TestGradientCheckFloatNet verifies analytic gradients against numerical
// differentiation on a small float conv→relu→pool→dense net. This is the
// core correctness property of the training engine.
func TestGradientCheckFloatNet(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	conv, err := NewConv2D(ConvConfig{
		ID:   "c0",
		Geom: tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		OutC: 3, Bias: true, InitRNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewScaleShift("s0", 3)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewMaxPool2D("p0", tensor.ConvGeom{InC: 3, InH: 6, InW: 6, KH: 2, KW: 2, StrideH: 2, StrideW: 2})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewDense(DenseConfig{ID: "d0", In: 3 * 3 * 3, Out: 4, Bias: true, InitRNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(conv, ss, NewReLU("r0"), pool, NewFlatten("f0"), dense)

	x := tensor.New(2, 6, 6)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()*2 - 1
	}
	label := 2
	analyticGrads(t, net, x, label)

	for _, p := range net.Params() {
		// Spot-check a handful of indices per parameter.
		for k := 0; k < 5 && k < p.Value.Len(); k++ {
			idx := (k * 37) % p.Value.Len()
			num := numericalGrad(t, net, x, label, p, idx)
			ana := float64(p.Grad.Data()[idx])
			if math.Abs(num-ana) > 5e-2*(1+math.Abs(num)) {
				t.Errorf("%s[%d]: analytic %v vs numerical %v", p.Name, idx, ana, num)
			}
		}
	}
}

func TestDenseForwardKnown(t *testing.T) {
	d, _ := NewDense(DenseConfig{ID: "d", In: 2, Out: 2, Bias: true})
	copy(d.Weight.Value.Data(), []float32{1, 2, 3, 4})
	copy(d.Bias.Value.Data(), []float32{10, 20})
	out, err := d.Forward(tensor.MustFromSlice([]float32{1, 1}, 2), false)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0) != 13 || out.At(1) != 27 {
		t.Fatalf("dense out = %v", out.Data())
	}
}

func TestDenseVolumeMismatch(t *testing.T) {
	d, _ := NewDense(DenseConfig{ID: "d", In: 4, Out: 2})
	if _, err := d.Forward(tensor.New(3), false); err == nil {
		t.Fatal("volume mismatch accepted")
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p, _ := NewMaxPool2D("p", tensor.ConvGeom{InC: 1, InH: 2, InW: 2, KH: 2, KW: 2, StrideH: 2, StrideW: 2})
	in := tensor.MustFromSlice([]float32{1, 5, 3, 2}, 1, 2, 2)
	out, err := p.Forward(in, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.At(0, 0, 0) != 5 {
		t.Fatalf("pool out = %v", out.Data())
	}
	g, err := p.Backward(tensor.MustFromSlice([]float32{7}, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.MustFromSlice([]float32{0, 7, 0, 0}, 1, 2, 2)
	if !tensor.Equal(g, want) {
		t.Fatalf("pool grad = %v", g.Data())
	}
}

func TestQuantActForward(t *testing.T) {
	q, _ := quant.NewActQuantizer(2, 3)
	a, err := NewQuantAct("a", q)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.Forward(tensor.MustFromSlice([]float32{-1, 0.6, 2.7, 9}, 4), false)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.MustFromSlice([]float32{0, 1, 3, 3}, 4)
	if !tensor.Equal(out, want) {
		t.Fatalf("quantact out = %v", out.Data())
	}
	if _, err := NewQuantAct("bad", nil); err == nil {
		t.Fatal("nil quantizer accepted")
	}
}

func TestQuantizedConvWeightsOnGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	wq, _ := quant.NewWeightQuantizer(2)
	c, err := NewConv2D(ConvConfig{
		ID:   "cq",
		Geom: tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1},
		OutC: 2, WQuant: wq, InitRNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 4, 4)
	in.Fill(1)
	out, err := c.Forward(in, false)
	if err != nil {
		t.Fatal(err)
	}
	// With all-ones input and 2-bit weights, each output must be a multiple
	// of the per-tensor adaptive scale.
	scale := wq.TensorScale(c.Weight.Value.Data())
	for _, v := range out.Data() {
		r := float64(v) / float64(scale)
		if math.Abs(r-math.Round(r)) > 1e-3 {
			t.Fatalf("output %v is not an integer multiple of scale %v", v, scale)
		}
	}
}

// TestPerChannelConvMatchesCompiledView: per-channel quantized convs run,
// and their EffectiveWeights rows are each on the row's own grid.
func TestPerChannelConvQuantization(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	wq, _ := quant.NewWeightQuantizer(2)
	c, err := NewConv2D(ConvConfig{
		ID:   "pc",
		Geom: tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1},
		OutC: 3, WQuant: wq, PerChannel: true, InitRNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Scale one filter way up: per-channel scales must track it.
	k := 2 * 9
	for i := 0; i < k; i++ {
		c.Weight.Value.Data()[2*k+i] *= 50
	}
	q, err := c.EffectiveWeights()
	if err != nil {
		t.Fatal(err)
	}
	// Each row has at most 3 distinct magnitudes {0, s, -s} for 2-bit.
	for r := 0; r < 3; r++ {
		mags := map[float32]bool{}
		for i := 0; i < k; i++ {
			v := q.At(r, i)
			if v < 0 {
				v = -v
			}
			mags[v] = true
		}
		if len(mags) > 2 {
			t.Fatalf("row %d has %d magnitudes; not a 2-bit grid", r, len(mags))
		}
	}
	// The scaled-up filter's nonzero magnitude must dwarf the others'.
	var m0, m2 float32
	for i := 0; i < k; i++ {
		if v := q.At(0, i); v > m0 {
			m0 = v
		}
		if v := q.At(2, i); v > m2 {
			m2 = v
		}
	}
	if m2 < 10*m0 {
		t.Fatalf("per-channel scale not tracking magnitude: %v vs %v", m2, m0)
	}
	// Forward still runs.
	if _, err := c.Forward(tensor.New(2, 4, 4), false); err != nil {
		t.Fatal(err)
	}
	// Clone preserves the flag.
	cc := c.cloneLayer(true).(*Conv2D)
	if !cc.PerChannel {
		t.Fatal("clone dropped PerChannel")
	}
}

func TestScaleShiftForward(t *testing.T) {
	s, _ := NewScaleShift("s", 2)
	s.Gamma.Value.Set(2, 0)
	s.Gamma.Value.Set(3, 1)
	s.Beta.Value.Set(1, 0)
	s.Beta.Value.Set(-1, 1)
	in := tensor.MustFromSlice([]float32{1, 1, 2, 2}, 2, 2, 1)
	out, err := s.Forward(in, false)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.MustFromSlice([]float32{3, 3, 5, 5}, 2, 2, 1)
	if !tensor.Equal(out, want) {
		t.Fatalf("scaleshift = %v", out.Data())
	}
	if _, err := s.Forward(tensor.New(3), false); err == nil {
		t.Fatal("indivisible volume accepted")
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.MustFromSlice([]float32{0, 0}, 2)
	loss, grad, err := SoftmaxCrossEntropy(logits, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-math.Log(2)) > 1e-6 {
		t.Fatalf("loss = %v, want ln 2", loss)
	}
	if math.Abs(float64(grad.At(0))+0.5) > 1e-6 || math.Abs(float64(grad.At(1))-0.5) > 1e-6 {
		t.Fatalf("grad = %v", grad.Data())
	}
	if _, _, err := SoftmaxCrossEntropy(logits, 5); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	p := Softmax(logits)
	if math.Abs(float64(p.At(0))-0.5) > 1e-6 {
		t.Fatalf("softmax = %v", p.Data())
	}
}

func TestSoftmaxNumericallyStable(t *testing.T) {
	logits := tensor.MustFromSlice([]float32{1000, 999}, 2)
	p := Softmax(logits)
	if math.IsNaN(float64(p.At(0))) || p.At(0) <= p.At(1) {
		t.Fatalf("softmax unstable: %v", p.Data())
	}
}

func TestPruneFilters(t *testing.T) {
	c, _ := NewConv2D(ConvConfig{
		ID:   "c",
		Geom: tensor.ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		OutC: 4, Bias: true,
	})
	for o := 0; o < 4; o++ {
		c.Weight.Value.Set(float32(o+1), o, 0, 0, 0)
		c.Bias.Value.Set(float32(10*(o+1)), o)
	}
	if err := c.PruneFilters([]int{1, 3}); err != nil {
		t.Fatal(err)
	}
	if c.OutC != 2 {
		t.Fatalf("OutC = %d", c.OutC)
	}
	if c.Weight.Value.At(0, 0, 0, 0) != 1 || c.Weight.Value.At(1, 0, 0, 0) != 3 {
		t.Fatalf("kept wrong filters: %v", c.Weight.Value.Data())
	}
	if c.Bias.Value.At(0) != 10 || c.Bias.Value.At(1) != 30 {
		t.Fatalf("kept wrong biases: %v", c.Bias.Value.Data())
	}
}

func TestPruneFiltersValidation(t *testing.T) {
	c, _ := NewConv2D(ConvConfig{
		ID:   "c",
		Geom: tensor.ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		OutC: 3,
	})
	if err := c.PruneFilters([]int{0, 1, 2}); err == nil {
		t.Fatal("removing all filters accepted")
	}
	if err := c.PruneFilters([]int{2, 1}); err == nil {
		t.Fatal("descending removal accepted")
	}
	if err := c.PruneFilters([]int{5}); err == nil {
		t.Fatal("out-of-range removal accepted")
	}
}

func TestPruneInputChannels(t *testing.T) {
	c, _ := NewConv2D(ConvConfig{
		ID:   "c",
		Geom: tensor.ConvGeom{InC: 3, InH: 2, InW: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		OutC: 2,
	})
	for o := 0; o < 2; o++ {
		for i := 0; i < 3; i++ {
			c.Weight.Value.Set(float32(10*o+i), o, i, 0, 0)
		}
	}
	if err := c.PruneInputChannels([]int{1}); err != nil {
		t.Fatal(err)
	}
	if c.Geom.InC != 2 {
		t.Fatalf("InC = %d", c.Geom.InC)
	}
	if c.Weight.Value.At(0, 1, 0, 0) != 2 || c.Weight.Value.At(1, 0, 0, 0) != 10 {
		t.Fatalf("input prune kept wrong channels: %v", c.Weight.Value.Data())
	}
}

// Property: pruning input channels of the consumer with the same indices as
// pruned producer filters preserves the composed function on the surviving
// channels.
func TestPruneConsistencyPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	geom1 := tensor.ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	c1, _ := NewConv2D(ConvConfig{ID: "c1", Geom: geom1, OutC: 4, InitRNG: rng})
	geom2 := tensor.ConvGeom{InC: 4, InH: 5, InW: 5, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	c2, _ := NewConv2D(ConvConfig{ID: "c2", Geom: geom2, OutC: 3, InitRNG: rng})

	x := tensor.New(2, 5, 5)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
	}

	// Reference: zero out filters {1,3} of c1 (so they contribute nothing).
	ref1, _ := NewConv2D(ConvConfig{ID: "r1", Geom: geom1, OutC: 4})
	copy(ref1.Weight.Value.Data(), c1.Weight.Value.Data())
	k := geom1.InC * 9
	for _, f := range []int{1, 3} {
		for i := f * k; i < (f+1)*k; i++ {
			ref1.Weight.Value.Data()[i] = 0
		}
	}
	h, err := ref1.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	wantOut, err := c2.Forward(h, false)
	if err != nil {
		t.Fatal(err)
	}

	// Pruned pipeline.
	if err := c1.PruneFilters([]int{1, 3}); err != nil {
		t.Fatal(err)
	}
	if err := c2.PruneInputChannels([]int{1, 3}); err != nil {
		t.Fatal(err)
	}
	h2, err := c1.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	gotOut, err := c2.Forward(h2, false)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(wantOut, gotOut, 1e-4) {
		t.Fatal("pruned pipeline does not match zeroed-filter reference")
	}
}

func TestDensePruneInputs(t *testing.T) {
	d, _ := NewDense(DenseConfig{ID: "d", In: 6, Out: 1})
	copy(d.Weight.Value.Data(), []float32{0, 1, 2, 3, 4, 5})
	// Groups of 2 (channels of spatial footprint 2); remove group 1.
	if err := d.PruneInputs([]int{1}, 2); err != nil {
		t.Fatal(err)
	}
	if d.In != 4 {
		t.Fatalf("In = %d", d.In)
	}
	want := []float32{0, 1, 4, 5}
	for i, w := range want {
		if d.Weight.Value.Data()[i] != w {
			t.Fatalf("weights = %v, want %v", d.Weight.Value.Data(), want)
		}
	}
	if err := d.PruneInputs([]int{0}, 3); err == nil {
		t.Fatal("indivisible group size accepted")
	}
}

func TestFilterL1Norms(t *testing.T) {
	c, _ := NewConv2D(ConvConfig{
		ID:   "c",
		Geom: tensor.ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		OutC: 2,
	})
	c.Weight.Value.Set(-3, 0, 0, 0, 0)
	c.Weight.Value.Set(1, 1, 0, 0, 0)
	norms := c.FilterL1Norms()
	if norms[0] != 3 || norms[1] != 1 {
		t.Fatalf("norms = %v", norms)
	}
}

func TestNetworkHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, _ := NewConv2D(ConvConfig{
		ID:   "c",
		Geom: tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1},
		OutC: 2, InitRNG: rng,
	})
	d, _ := NewDense(DenseConfig{ID: "d", In: 8, Out: 3, InitRNG: rng})
	net := NewNetwork(c, NewFlatten("f"), d)
	if len(net.Convs()) != 1 || len(net.Denses()) != 1 {
		t.Fatal("layer type helpers wrong")
	}
	if net.ParamCount() != 2*9+8*3 {
		t.Fatalf("ParamCount = %d", net.ParamCount())
	}
	cls, err := net.Predict(tensor.New(1, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if cls < 0 || cls >= 3 {
		t.Fatalf("Predict = %d", cls)
	}
}

func TestNetworkForwardErrorWrapsLayer(t *testing.T) {
	d, _ := NewDense(DenseConfig{ID: "d", In: 4, Out: 2})
	net := NewNetwork(d)
	_, err := net.Forward(tensor.New(3), false)
	if err == nil {
		t.Fatal("expected error")
	}
}
