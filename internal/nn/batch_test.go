package nn

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// A batch of frames is served as sequential Network.Forward calls; its
// outputs must not depend on the worker count — float and integer paths,
// at 1, 2 and NumCPU workers.

// testBatchNet builds a small act→conv→act→pool→flatten→dense network
// plus a batch of on-grid inputs. Quantized when bits > 0 (per-channel
// conv); both weight layers then have an input grid.
func testBatchNet(t *testing.T, bits, batch int, seed int64) (*Network, []*tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var wq *quant.WeightQuantizer
	if bits > 0 {
		q, err := quant.NewWeightQuantizer(bits)
		if err != nil {
			t.Fatal(err)
		}
		wq = q
	}
	conv, err := NewConv2D(ConvConfig{
		ID:   "c1",
		Geom: tensor.ConvGeom{InC: 3, InH: 12, InW: 12, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		OutC: 6, Bias: true, WQuant: wq, PerChannel: bits > 0, InitRNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range conv.Bias.Value.Data() {
		conv.Bias.Value.Data()[i] = float32(rng.NormFloat64()) * 0.1
	}
	pool, err := NewMaxPool2D("p1", tensor.ConvGeom{
		InC: 6, InH: 12, InW: 12, KH: 2, KW: 2, StrideH: 2, StrideW: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewDense(DenseConfig{ID: "d1", In: 6 * 6 * 6, Out: 10, Bias: true, WQuant: wq, InitRNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	aq := testGrid(t)
	net := NewNetwork(&QuantAct{ID: "a0", Q: aq}, conv, &QuantAct{ID: "a1", Q: aq}, pool, NewFlatten("f1"), dense)
	xs := make([]*tensor.Tensor, batch)
	for j := range xs {
		xs[j] = onGrid(rng, tensor.New(3, 12, 12), aq)
	}
	return net, xs
}

// forwardAll runs every frame of a batch through net.Forward.
func forwardAll(t *testing.T, net *Network, xs []*tensor.Tensor) []*tensor.Tensor {
	t.Helper()
	outs := make([]*tensor.Tensor, len(xs))
	for j, x := range xs {
		out, err := net.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		outs[j] = out
	}
	return outs
}

func TestForwardBatchBitIdentical(t *testing.T) {
	prevGrain := tensor.SetParallelGrain(1)
	defer tensor.SetParallelGrain(prevGrain)
	for _, tc := range []struct {
		name string
		bits int
		int8 bool
	}{
		{"float", 0, false},
		{"quantized-float-path", 2, false},
		{"int8", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev := SetInt8GEMM(tc.int8)
			defer SetInt8GEMM(prev)
			for _, batch := range []int{1, 3, 8} {
				// Reference: the batch served on one worker.
				prevW := tensor.SetMaxWorkers(1)
				net, xs := testBatchNet(t, tc.bits, batch, 91)
				want := forwardAll(t, net, xs)
				tensor.SetMaxWorkers(prevW)
				for _, workers := range []int{2, runtime.NumCPU()} {
					prevW := tensor.SetMaxWorkers(workers)
					net, xs := testBatchNet(t, tc.bits, batch, 91)
					got := forwardAll(t, net, xs)
					tensor.SetMaxWorkers(prevW)
					for j := range xs {
						gd, wd := got[j].Data(), want[j].Data()
						if len(gd) != len(wd) {
							t.Fatalf("batch=%d workers=%d sample %d: length %d want %d",
								batch, workers, j, len(gd), len(wd))
						}
						for i := range gd {
							if gd[i] != wd[i] {
								t.Fatalf("batch=%d workers=%d sample %d out[%d]: %v, 1-worker %v",
									batch, workers, j, i, gd[i], wd[i])
							}
						}
					}
				}
			}
		})
	}
}

// A batch must take the integer path: its forwards count as int forwards,
// never float fallbacks.
func TestForwardBatchTakesInt8Path(t *testing.T) {
	prev := SetInt8GEMM(true)
	defer SetInt8GEMM(prev)
	net, xs := testBatchNet(t, 2, 4, 92)
	forwardAll(t, net, xs)
	conv := net.Convs()[0]
	dense := net.Denses()[0]
	if conv.intForwards != 4 || conv.floatFwds != 0 {
		t.Fatalf("conv batch: int=%d float=%d, want 4/0", conv.intForwards, conv.floatFwds)
	}
	if dense.intForwards != 4 || dense.floatFwds != 0 {
		t.Fatalf("dense batch: int=%d float=%d, want 4/0", dense.intForwards, dense.floatFwds)
	}
}
