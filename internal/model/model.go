// Package model builds the CNN topologies evaluated in the AdaFlow paper:
// the FINN CNV network in its CNVW2A2 and CNVW1A2 quantization variants,
// plus scaled-down "tiny" variants that the test suite can actually train
// in milliseconds.
//
// A Model wraps an nn.Network with the metadata the rest of the framework
// needs: quantization widths, input geometry, per-convolution channel
// counts of the *initial* (worst-case) network — which is what a
// Flexible-Pruning accelerator is synthesized for — and the pruning rate
// that produced the current weights.
package model

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Model is a CNN plus the metadata AdaFlow tracks across pruning,
// synthesis, and runtime switching.
type Model struct {
	Name    string
	Dataset string
	WBits   int
	ABits   int

	InC, InH, InW int
	Classes       int

	Net *nn.Network

	// BaseChannels holds the out-channel count of every convolution in the
	// *unpruned* initial model, in layer order. Flexible accelerators are
	// synthesized to these worst-case values.
	BaseChannels []int

	// PruneRate is the requested filter-pruning rate that produced this
	// model (0 for the initial model).
	PruneRate float64
}

// Config parameterizes a CNV-style build.
type Config struct {
	Name     string
	Dataset  string
	WBits    int // weight bits (1 or 2 for the paper's models)
	ABits    int // activation bits (2 for the paper's models)
	InC      int
	InH, InW int
	Classes  int
	// ConvChannels lists the out-channels of each convolution. Pools are
	// inserted after the convolution indices in PoolAfter.
	ConvChannels []int
	PoolAfter    []int // indices into ConvChannels (0-based) followed by 2x2/2 maxpool
	// DenseSizes lists hidden dense widths; a final dense to Classes is
	// always appended.
	DenseSizes []int
	// InputWBits, when positive, gives the first convolution its own
	// (wider) weight quantizer — FINN networks commonly keep an 8-bit
	// input layer in front of a binary/2-bit body.
	InputWBits int
	Seed       int64
}

// CNVW2A2 returns the paper-scale CNV with 2-bit weights and activations.
func CNVW2A2(ds string, classes int, seed int64) (*Model, error) {
	return Build(cnvConfig("CNVW2A2", ds, 2, classes, seed))
}

// CNVW1A2 returns the paper-scale CNV with binary weights, 2-bit
// activations.
func CNVW1A2(ds string, classes int, seed int64) (*Model, error) {
	return Build(cnvConfig("CNVW1A2", ds, 1, classes, seed))
}

func cnvConfig(name, ds string, wbits, classes int, seed int64) Config {
	return Config{
		Name: name, Dataset: ds, WBits: wbits, ABits: 2,
		InC: 3, InH: 32, InW: 32, Classes: classes,
		ConvChannels: []int{64, 64, 128, 128, 256, 256},
		PoolAfter:    []int{1, 3},
		DenseSizes:   []int{512, 512},
		Seed:         seed,
	}
}

// TinyCNV returns a test-scale CNV-shaped network on 3x8x8 inputs that
// trains in well under a second.
func TinyCNV(name, ds string, wbits, classes int, seed int64) (*Model, error) {
	return Build(Config{
		Name: name, Dataset: ds, WBits: wbits, ABits: 2,
		InC: 3, InH: 8, InW: 8, Classes: classes,
		ConvChannels: []int{8, 16},
		PoolAfter:    []int{1},
		DenseSizes:   []int{32},
		Seed:         seed,
	})
}

// BuildMLP constructs a dense-only model (FINN's TFC/SFC family): a stack
// of [Dense → ScaleShift → QuantAct] blocks plus a float head, over a
// flattened input. MLPs exercise the dense-only dataflow path (no SWU, no
// channel pruning — adaptation comes from neuron pruning on Fixed
// accelerators).
func BuildMLP(cfg Config) (*Model, error) {
	if len(cfg.ConvChannels) != 0 {
		return nil, fmt.Errorf("model %q: BuildMLP takes no convolutions", cfg.Name)
	}
	if len(cfg.DenseSizes) == 0 {
		return nil, fmt.Errorf("model %q: need at least one dense layer", cfg.Name)
	}
	if cfg.Classes < 2 {
		return nil, fmt.Errorf("model %q: need at least 2 classes", cfg.Name)
	}
	var wq *quant.WeightQuantizer
	var err error
	if cfg.WBits > 0 {
		if wq, err = quant.NewWeightQuantizer(cfg.WBits); err != nil {
			return nil, fmt.Errorf("model %q: %w", cfg.Name, err)
		}
	}
	var aq *quant.ActQuantizer
	if cfg.ABits > 0 {
		if aq, err = quant.NewActQuantizer(cfg.ABits, 2); err != nil {
			return nil, fmt.Errorf("model %q: %w", cfg.Name, err)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := nn.NewNetwork()
	net.Append(nn.NewFlatten("flatten"))
	in := cfg.InC * cfg.InH * cfg.InW
	for i, width := range cfg.DenseSizes {
		d, err := nn.NewDense(nn.DenseConfig{
			ID: fmt.Sprintf("fc%d", i), In: in, Out: width, WQuant: wq, InitRNG: rng,
		})
		if err != nil {
			return nil, err
		}
		net.Append(d)
		ss, err := nn.NewScaleShift(fmt.Sprintf("fcbn%d", i), width)
		if err != nil {
			return nil, err
		}
		net.Append(ss)
		if aq != nil {
			qa, err := nn.NewQuantAct(fmt.Sprintf("fcact%d", i), aq)
			if err != nil {
				return nil, err
			}
			net.Append(qa)
		} else {
			net.Append(nn.NewReLU(fmt.Sprintf("fcrelu%d", i)))
		}
		in = width
	}
	head, err := nn.NewDense(nn.DenseConfig{ID: "head", In: in, Out: cfg.Classes, Bias: true, InitRNG: rng})
	if err != nil {
		return nil, err
	}
	net.Append(head)
	return &Model{
		Name: cfg.Name, Dataset: cfg.Dataset,
		WBits: cfg.WBits, ABits: cfg.ABits,
		InC: cfg.InC, InH: cfg.InH, InW: cfg.InW,
		Classes: cfg.Classes, Net: net,
	}, nil
}

// TFC returns the FINN TFC-style MLP (three 64-wide hidden layers) at the
// given input geometry — the dense-only counterpart to CNV.
func TFC(ds string, classes int, seed int64) (*Model, error) {
	return BuildMLP(Config{
		Name: "TFCW2A2", Dataset: ds, WBits: 2, ABits: 2,
		InC: 1, InH: 28, InW: 28, Classes: classes,
		DenseSizes: []int{64, 64, 64}, Seed: seed,
	})
}

// Build constructs a Model from a Config. The topology is:
//
//	[Conv → ScaleShift → QuantAct] per ConvChannels entry,
//	MaxPool(2x2, stride 2) after each PoolAfter index,
//	Flatten, then [Dense → ScaleShift → QuantAct] per DenseSizes entry,
//	and a final Dense to Classes (float logits).
//
// Convolutions are 3x3, stride 1, no padding — exactly the FINN CNV shape.
func Build(cfg Config) (*Model, error) {
	if len(cfg.ConvChannels) == 0 {
		return nil, fmt.Errorf("model %q: need at least one convolution", cfg.Name)
	}
	if cfg.Classes < 2 {
		return nil, fmt.Errorf("model %q: need at least 2 classes", cfg.Name)
	}
	var wq *quant.WeightQuantizer
	var err error
	if cfg.WBits > 0 {
		wq, err = quant.NewWeightQuantizer(cfg.WBits)
		if err != nil {
			return nil, fmt.Errorf("model %q: %w", cfg.Name, err)
		}
	}
	var aq *quant.ActQuantizer
	if cfg.ABits > 0 {
		aq, err = quant.NewActQuantizer(cfg.ABits, 2)
		if err != nil {
			return nil, fmt.Errorf("model %q: %w", cfg.Name, err)
		}
	}
	var inputWQ *quant.WeightQuantizer
	if cfg.InputWBits > 0 {
		inputWQ, err = quant.NewWeightQuantizer(cfg.InputWBits)
		if err != nil {
			return nil, fmt.Errorf("model %q input layer: %w", cfg.Name, err)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	poolAfter := make(map[int]bool, len(cfg.PoolAfter))
	for _, p := range cfg.PoolAfter {
		if p < 0 || p >= len(cfg.ConvChannels) {
			return nil, fmt.Errorf("model %q: PoolAfter index %d out of range", cfg.Name, p)
		}
		poolAfter[p] = true
	}

	net := nn.NewNetwork()
	c, h, w := cfg.InC, cfg.InH, cfg.InW
	for i, outC := range cfg.ConvChannels {
		geom := tensor.ConvGeom{InC: c, InH: h, InW: w, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
		if err := geom.Validate(); err != nil {
			return nil, fmt.Errorf("model %q conv%d: %w", cfg.Name, i, err)
		}
		layerWQ := wq
		if i == 0 && inputWQ != nil {
			layerWQ = inputWQ
		}
		conv, err := nn.NewConv2D(nn.ConvConfig{
			ID: fmt.Sprintf("conv%d", i), Geom: geom, OutC: outC,
			WQuant: layerWQ, InitRNG: rng,
		})
		if err != nil {
			return nil, err
		}
		net.Append(conv)
		ss, err := nn.NewScaleShift(fmt.Sprintf("bn%d", i), outC)
		if err != nil {
			return nil, err
		}
		net.Append(ss)
		if aq != nil {
			qa, err := nn.NewQuantAct(fmt.Sprintf("act%d", i), aq)
			if err != nil {
				return nil, err
			}
			net.Append(qa)
		} else {
			net.Append(nn.NewReLU(fmt.Sprintf("relu%d", i)))
		}
		c, h, w = outC, geom.OutH(), geom.OutW()
		if poolAfter[i] {
			pg := tensor.ConvGeom{InC: c, InH: h, InW: w, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
			if err := pg.Validate(); err != nil {
				return nil, fmt.Errorf("model %q pool after conv%d: %w", cfg.Name, i, err)
			}
			pool, err := nn.NewMaxPool2D(fmt.Sprintf("pool%d", i), pg)
			if err != nil {
				return nil, err
			}
			net.Append(pool)
			h, w = pg.OutH(), pg.OutW()
		}
	}
	net.Append(nn.NewFlatten("flatten"))
	in := c * h * w
	for i, width := range cfg.DenseSizes {
		d, err := nn.NewDense(nn.DenseConfig{
			ID: fmt.Sprintf("fc%d", i), In: in, Out: width,
			WQuant: wq, InitRNG: rng,
		})
		if err != nil {
			return nil, err
		}
		net.Append(d)
		ss, err := nn.NewScaleShift(fmt.Sprintf("fcbn%d", i), width)
		if err != nil {
			return nil, err
		}
		net.Append(ss)
		if aq != nil {
			qa, err := nn.NewQuantAct(fmt.Sprintf("fcact%d", i), aq)
			if err != nil {
				return nil, err
			}
			net.Append(qa)
		} else {
			net.Append(nn.NewReLU(fmt.Sprintf("fcrelu%d", i)))
		}
		in = width
	}
	head, err := nn.NewDense(nn.DenseConfig{
		ID: "head", In: in, Out: cfg.Classes, Bias: true, InitRNG: rng,
	})
	if err != nil {
		return nil, err
	}
	net.Append(head)

	return &Model{
		Name:    cfg.Name,
		Dataset: cfg.Dataset,
		WBits:   cfg.WBits,
		ABits:   cfg.ABits,
		InC:     cfg.InC, InH: cfg.InH, InW: cfg.InW,
		Classes:      cfg.Classes,
		Net:          net,
		BaseChannels: append([]int(nil), cfg.ConvChannels...),
	}, nil
}

// Clone deep-copies the model (weights included, gradients zeroed).
func (m *Model) Clone() (*Model, error) { return m.copyWith(nn.CloneNetwork) }

// Skeleton copies the model without its parameter tensors: the layer
// graph with geometry, channel counts and quantizers. Pruning a skeleton
// (prune.Apply) edits shapes only, which is all the dataflow mapper and a
// shape-only evaluator read; running it returns an error.
func (m *Model) Skeleton() (*Model, error) { return m.copyWith(nn.Skeleton) }

// copyWith copies the model's metadata around copyNet's copy of the
// network.
func (m *Model) copyWith(copyNet func(*nn.Network) (*nn.Network, error)) (*Model, error) {
	net, err := copyNet(m.Net)
	if err != nil {
		return nil, err
	}
	c := *m
	c.Net = net
	c.BaseChannels = append([]int(nil), m.BaseChannels...)
	return &c, nil
}

// ConvChannels returns the current out-channel count per convolution.
func (m *Model) ConvChannels() []int {
	convs := m.Net.Convs()
	out := make([]int, len(convs))
	for i, c := range convs {
		out[i] = c.OutC
	}
	return out
}

// Key returns a stable identifier combining name, dataset, and prune rate,
// used as the library table key.
func (m *Model) Key() string {
	return fmt.Sprintf("%s/%s/p%02.0f", m.Name, m.Dataset, m.PruneRate*100)
}
