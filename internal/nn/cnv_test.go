package nn_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/finn"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// On every Conv2D and Dense of paper-scale CNVW2A2, pruned at 0, 0.3, 0.6
// and 0.9, the integer path must equal a brute-force Σ wcode·acode oracle
// bit for bit, and agree with the float path to float rounding. Layers
// without an input grid (the image-input conv0, the float head) must be the
// float path exactly.
func TestCNVW2A2LayersMatchOracle(t *testing.T) {
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	gran, err := finn.DefaultFolding(m).ChannelGranularity(m)
	if err != nil {
		t.Fatal(err)
	}
	prev := nn.SetInt8GEMM(true)
	defer nn.SetInt8GEMM(prev)
	rng := rand.New(rand.NewSource(151))
	for _, rate := range []float64{0, 0.3, 0.6, 0.9} {
		v, _, err := prune.Shrink(m, rate, gran)
		if err != nil {
			t.Fatal(err)
		}
		var grid *quant.ActQuantizer
		for _, nl := range v.Net.Layers {
			var (
				geom  tensor.ConvGeom
				rows  int
				bias  *nn.Param
				wq    *quant.WeightQuantizer
				perCh bool
			)
			switch l := nl.Layer.(type) {
			case *nn.QuantAct:
				grid = l.Q
				continue
			case *nn.MaxPool2D, *nn.Flatten:
				continue
			case *nn.Conv2D:
				geom, rows, bias, wq, perCh = l.Geom, l.OutC, l.Bias, l.Quant, l.PerChannel
			case *nn.Dense:
				geom = tensor.ConvGeom{InC: l.In, InH: 1, InW: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
				rows, bias, wq = l.Out, l.Bias, l.Quant
			default:
				grid = nil
				continue
			}
			name := fmt.Sprintf("rate %.1f %s", rate, nl.Layer.Name())
			x := randInput(rng, geom, grid)
			got := forward(t, nl.Layer, x, true)
			float := forward(t, nl.Layer, x, false)
			if grid == nil || wq == nil {
				for i := range got {
					if got[i] != float[i] {
						t.Fatalf("%s: out[%d] = %v off the float path %v", name, i, got[i], float[i])
					}
				}
				grid = nil
				continue
			}
			want, mag := oracle(t, nl.Layer.Params()[0], wq, perCh, x, geom, rows, bias, grid)
			k := geom.InC * geom.KH * geom.KW
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: out[%d] = %v, oracle %v", name, i, got[i], want[i])
				}
				if d := math.Abs(float64(got[i] - float[i])); d > float64(k)*1.2e-7*mag[i]+1e-6 {
					t.Fatalf("%s: out[%d] bit-plane %v float %v, |Δ|=%v over Σ|w·x|=%v", name, i, got[i], float[i], d, mag[i])
				}
			}
			grid = nil
		}
	}
}

// randInput draws an input for a layer: values of grid when it has one,
// arbitrary floats otherwise.
func randInput(rng *rand.Rand, g tensor.ConvGeom, grid *quant.ActQuantizer) *tensor.Tensor {
	x := tensor.New(g.InC, g.InH, g.InW)
	for i := range x.Data() {
		v := float32(rng.NormFloat64())
		if grid != nil {
			v = grid.Quantize(1.5 * v)
		}
		x.Data()[i] = v
	}
	return x
}

// forward runs one inference forward of l on x on the integer or float
// path. Dense layers take the flattened input.
func forward(t *testing.T, l nn.Layer, x *tensor.Tensor, integer bool) []float32 {
	t.Helper()
	prev := nn.SetInt8GEMM(integer)
	defer nn.SetInt8GEMM(prev)
	if _, ok := l.(*nn.Dense); ok {
		x, _ = x.Reshape(x.Len())
	}
	out, err := l.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	return out.Data()
}

// oracle returns the brute-force output float32(Σ wcode·acode)·(wScale·Step)
// + bias per output element, and Σ|w·x| in real units for the float bound.
func oracle(t *testing.T, wp *nn.Param, wq *quant.WeightQuantizer, perCh bool, x *tensor.Tensor,
	g tensor.ConvGeom, rows int, bias *nn.Param, grid *quant.ActQuantizer) ([]float32, []float64) {
	t.Helper()
	k := g.InC * g.KH * g.KW
	codes := make([]int8, rows*k)
	var scales []float32
	if perCh {
		s, err := wq.QuantizeTensorPerChannelInt8(codes, wp.Value.Data(), k)
		if err != nil {
			t.Fatal(err)
		}
		scales = s
	} else {
		s, err := wq.QuantizeTensorInt8(codes, wp.Value.Data())
		if err != nil {
			t.Fatal(err)
		}
		scales = []float32{s}
	}
	oh, ow := g.OutH(), g.OutW()
	out := make([]float32, rows*oh*ow)
	mag := make([]float64, len(out))
	acodes := make([]int64, x.Len())
	for i, v := range x.Data() {
		acodes[i] = int64(grid.Code(v))
	}
	for o := 0; o < rows; o++ {
		s := scales[0]
		if perCh {
			s = scales[o]
		}
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc, abs int64
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
							w := int64(codes[o*k+(c*g.KH+kh)*g.KW+kw])
							a := acodes[(c*g.InH+iy)*g.InW+ix]
							acc += w * a
							abs += max(w, -w) * a
						}
					}
				}
				i := (o*oh+oy)*ow + ox
				out[i] = float32(int(acc)) * (s * grid.Step())
				if bias != nil {
					out[i] += bias.Value.Data()[o]
				}
				mag[i] = float64(abs) * float64(s) * float64(grid.Step())
			}
		}
	}
	return out, mag
}
