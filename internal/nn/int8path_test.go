package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// Acceptance tests for the integer inference path: a quantized layer whose
// input lies on a known activation grid must actually execute the
// bit-plane kernel (not silently fall back to float), agree with the float
// reference to float rounding, be bit-identical across worker counts, and
// fall back to float for off-grid inputs.

func forceInt8(t *testing.T) {
	t.Helper()
	prev := SetInt8GEMM(true)
	t.Cleanup(func() { SetInt8GEMM(prev) })
}

// testGrid is the A2 activation grid of the tests (levels 0, 2/3, 4/3, 2).
func testGrid(t testing.TB) *quant.ActQuantizer {
	t.Helper()
	aq, err := quant.NewActQuantizer(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return aq
}

// onGrid fills x with values of grid aq drawn from a normal distribution.
func onGrid(rng *rand.Rand, x *tensor.Tensor, aq *quant.ActQuantizer) *tensor.Tensor {
	for i := range x.Data() {
		x.Data()[i] = aq.Quantize(float32(rng.NormFloat64()) * 1.5)
	}
	return x
}

// testConv builds a quantized conv behind a QuantAct, so Network.Append
// records its input grid, and an on-grid input.
func testConv(t *testing.T, bits int, perChannel bool) (*Conv2D, *tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(81))
	q, err := quant.NewWeightQuantizer(bits)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewConv2D(ConvConfig{
		ID:   "c",
		Geom: tensor.ConvGeom{InC: 3, InH: 9, InW: 9, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		OutC: 6, Bias: true, WQuant: q, PerChannel: perChannel, InitRNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Bias.Value.Data() {
		c.Bias.Value.Data()[i] = float32(rng.NormFloat64()) * 0.1
	}
	aq := testGrid(t)
	act, err := NewQuantAct("a", aq)
	if err != nil {
		t.Fatal(err)
	}
	NewNetwork(act, c)
	return c, onGrid(rng, tensor.New(3, 9, 9), aq)
}

// checkFloatAgreement runs layer on x on both paths and bounds their
// difference by float32 rounding: the float GEMM's relative error over
// k products, relative to Σ|w·x| (the bit-plane sum is exact).
func checkFloatAgreement(t *testing.T, l Layer, x *tensor.Tensor, effW []float32, rows int) (intOut *tensor.Tensor) {
	t.Helper()
	intOut, err := l.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	prev := SetInt8GEMM(false)
	floatOut, err := l.Forward(x, false)
	SetInt8GEMM(prev)
	if err != nil {
		t.Fatal(err)
	}
	rowLen := len(effW) / rows
	cols := intOut.Len() / rows
	var xMax float64
	for _, v := range x.Data() {
		xMax = math.Max(xMax, math.Abs(float64(v)))
	}
	for i, iv := range intOut.Data() {
		var l1 float64
		for _, w := range effW[i/cols*rowLen : (i/cols+1)*rowLen] {
			l1 += math.Abs(float64(w))
		}
		bound := float64(rowLen)*1.2e-7*l1*xMax + 1e-6
		if d := math.Abs(float64(iv - floatOut.Data()[i])); d > bound {
			t.Fatalf("out[%d]: bit-plane %v float %v, |Δ|=%v > bound %v", i, iv, floatOut.Data()[i], d, bound)
		}
	}
	return intOut
}

func TestQuantizedConvTakesInt8Path(t *testing.T) {
	for _, perChannel := range []bool{false, true} {
		forceInt8(t)
		c, x := testConv(t, 2, perChannel)
		effW, err := c.EffectiveWeights()
		if err != nil {
			t.Fatal(err)
		}
		checkFloatAgreement(t, c, x, effW.Data(), c.OutC)
		if c.intForwards != 1 || c.floatFwds != 1 {
			t.Fatalf("perChannel=%v: int=%d float=%d, want one forward on each path",
				perChannel, c.intForwards, c.floatFwds)
		}
	}
}

func TestQuantizedDenseTakesInt8Path(t *testing.T) {
	forceInt8(t)
	rng := rand.New(rand.NewSource(82))
	q, err := quant.NewWeightQuantizer(4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDense(DenseConfig{ID: "d", In: 137, Out: 11, Bias: true, WQuant: q, InitRNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	aq := testGrid(t)
	act, err := NewQuantAct("a", aq)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(act, NewFlatten("f"), d)
	effW, err := d.EffectiveWeights()
	if err != nil {
		t.Fatal(err)
	}
	checkFloatAgreement(t, d, onGrid(rng, tensor.New(137), aq), effW.Data(), d.Out)
	if d.intForwards != 1 || d.floatFwds != 1 {
		t.Fatalf("int=%d float=%d, want one forward on each path", d.intForwards, d.floatFwds)
	}
	// An off-grid image through the whole network reaches the dense layer
	// on the QuantAct's grid, so the network forward is an integer one.
	raw := tensor.New(137)
	for i := range raw.Data() {
		raw.Data()[i] = float32(rng.NormFloat64())
	}
	if _, err := net.Forward(raw, false); err != nil {
		t.Fatal(err)
	}
	if d.intForwards != 2 || d.floatFwds != 1 {
		t.Fatalf("network forward: int=%d float=%d, want 2/1", d.intForwards, d.floatFwds)
	}
}

func TestInt8PathBitIdenticalAcrossWorkers(t *testing.T) {
	forceInt8(t)
	prevGrain := tensor.SetParallelGrain(1)
	defer tensor.SetParallelGrain(prevGrain)
	// The float reference, forced with the switch off, must be as
	// worker-independent as the integer path.
	for _, int8 := range []bool{true, false} {
		SetInt8GEMM(int8)
		c, x := testConv(t, 3, true)
		var first []float32
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			prev := tensor.SetMaxWorkers(workers)
			out, err := c.Forward(x, false)
			tensor.SetMaxWorkers(prev)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = append([]float32(nil), out.Data()...)
				continue
			}
			for i, v := range out.Data() {
				if v != first[i] {
					t.Fatalf("int8=%v workers=%d: out[%d] = %v, 1-worker %v", int8, workers, i, v, first[i])
				}
			}
		}
		if onPath := map[bool]int{true: c.intForwards, false: c.floatFwds}[int8]; onPath != 3 {
			t.Fatalf("int8=%v: int=%d float=%d forwards, want 3 on the selected path", int8, c.intForwards, c.floatFwds)
		}
	}
}

// An input value off the recorded grid sends that forward to the float
// reference, and the path counter records the fallback.
func TestOffGridInputFallsBackToFloat(t *testing.T) {
	forceInt8(t)
	c, x := testConv(t, 2, false)
	x.Data()[17] = 0.5 // between the levels 0 and 2/3
	got, err := c.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if c.intForwards != 0 || c.floatFwds != 1 {
		t.Fatalf("off-grid input: int=%d float=%d, want a float fallback", c.intForwards, c.floatFwds)
	}
	SetInt8GEMM(false)
	want, err := c.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(got, want) {
		t.Fatal("off-grid fallback differs from the float reference")
	}
}

// Append records the grid of the nearest upstream QuantAct through pools
// and flattens only; clones and skeletons inherit it by construction.
func TestAppendRecordsInputGrid(t *testing.T) {
	aq := testGrid(t)
	act, err := NewQuantAct("a", aq)
	if err != nil {
		t.Fatal(err)
	}
	geom := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	conv := func(id string) *Conv2D {
		c, err := NewConv2D(ConvConfig{ID: id, Geom: geom, OutC: 2})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	dense := func(id string) *Dense {
		d, err := NewDense(DenseConfig{ID: id, In: 8, Out: 8})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	pool, err := NewMaxPool2D("p", tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewScaleShift("s", 2)
	if err != nil {
		t.Fatal(err)
	}
	c0, c1, c2 := conv("c0"), conv("c1"), conv("c2")
	d0, d1 := dense("d0"), dense("d1")
	net := NewNetwork(c0, act, c1, ss, c2, &QuantAct{ID: "a2", Q: aq}, pool, NewFlatten("f"), d0, d1)
	want := map[string]*quant.ActQuantizer{"c0": nil, "c1": aq, "c2": nil, "d0": aq, "d1": nil}
	for _, n := range []*Network{net, mustClone(t, CloneNetwork, net), mustClone(t, Skeleton, net)} {
		for _, c := range n.Convs() {
			if c.inGrid != want[c.ID] {
				t.Fatalf("conv %s: grid %v, want %v", c.ID, c.inGrid, want[c.ID])
			}
		}
		for _, d := range n.Denses() {
			if d.inGrid != want[d.ID] {
				t.Fatalf("dense %s: grid %v, want %v", d.ID, d.inGrid, want[d.ID])
			}
		}
	}
}

func mustClone(t *testing.T, clone func(*Network) (*Network, error), n *Network) *Network {
	t.Helper()
	c, err := clone(n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFloatLayersNeverTakeInt8Path(t *testing.T) {
	forceInt8(t)
	rng := rand.New(rand.NewSource(83))
	c, err := NewConv2D(ConvConfig{
		ID:   "f",
		Geom: tensor.ConvGeom{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 0, PadW: 0},
		OutC: 3, InitRNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	aq := testGrid(t)
	NewNetwork(&QuantAct{ID: "a", Q: aq}, c)
	if _, err := c.Forward(onGrid(rng, tensor.New(2, 5, 5), aq), false); err != nil {
		t.Fatal(err)
	}
	if c.intForwards != 0 {
		t.Fatal("float layer took the integer path")
	}
}

// Training forwards must stay on the float reference regardless of the
// fast-path switch — the straight-through backward pass consumes the float
// cache the int path never fills.
func TestTrainingStaysOnFloatPath(t *testing.T) {
	forceInt8(t)
	c, x := testConv(t, 2, false)
	out, err := c.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if c.intForwards != 0 {
		t.Fatal("training forward took the integer path")
	}
	grad := tensor.New(out.Shape()...)
	for i := range grad.Data() {
		grad.Data()[i] = 1
	}
	if _, err := c.Backward(grad); err != nil {
		t.Fatalf("backward after training forward: %v", err)
	}
}

// A wide (>8-bit) grid cannot carry int8 codes; such layers must fall back
// to the float path even with the switch on.
func TestWideGridFallsBackToFloat(t *testing.T) {
	forceInt8(t)
	rng := rand.New(rand.NewSource(84))
	q, err := quant.NewWeightQuantizer(9)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDense(DenseConfig{ID: "w", In: 8, Out: 4, WQuant: q, InitRNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	aq := testGrid(t)
	NewNetwork(&QuantAct{ID: "a", Q: aq}, d)
	if _, err := d.Forward(onGrid(rng, tensor.New(8), aq), false); err != nil {
		t.Fatal(err)
	}
	if d.intForwards != 0 || d.floatFwds != 1 {
		t.Fatalf("9-bit layer: int=%d float=%d, want float fallback", d.intForwards, d.floatFwds)
	}
}
