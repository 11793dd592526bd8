package main

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/finn"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// inferRates are the pruning rates of the versions the infer workload
// rotates over. Versions at 0.70 and above are left out: with the untrained
// seeded weights they output all-zero logits, which would reward shortcuts
// that depend on the values.
var inferRates = []float64{0, 0.30, 0.60}

// inferImages is how many synthetic CIFAR-10 test images the workload
// cycles through; set-up labels each on both compute paths.
const inferImages = 8

// inferRunner predicts one image on one version per op, rotating over
// versions and images, and checks each label against the default-path
// label set-up computed for the same image and version.
type inferRunner struct {
	versions []*model.Model
	images   []*tensor.Tensor
	ref      [][]int // [version][image] labels on the default (int8) path
	match    int     // labels equal on the default and float paths
}

func setupInfer(seed int64) (runner, error) {
	m, err := model.CNVW2A2("cifar10", 10, seed)
	if err != nil {
		return nil, err
	}
	gran, err := finn.DefaultFolding(m).ChannelGranularity(m)
	if err != nil {
		return nil, err
	}
	r := &inferRunner{}
	for _, rate := range inferRates {
		v, _, err := prune.Shrink(m, rate, gran)
		if err != nil {
			return nil, fmt.Errorf("prune %v: %w", rate, err)
		}
		r.versions = append(r.versions, v)
	}
	ds := dataset.SyntheticCIFAR10(seed)
	for k := 0; k < inferImages; k++ {
		x, _ := ds.TestSample(k)
		r.images = append(r.images, x)
	}
	float := make([][]int, len(r.versions))
	prev := nn.SetInt8GEMM(false)
	for v := range r.versions {
		if float[v], err = r.labels(v); err != nil {
			break
		}
	}
	nn.SetInt8GEMM(prev)
	if err != nil {
		return nil, err
	}
	r.ref = make([][]int, len(r.versions))
	for v := range r.versions {
		if r.ref[v], err = r.labels(v); err != nil {
			return nil, err
		}
		for k, lb := range r.ref[v] {
			if lb == float[v][k] {
				r.match++
			}
		}
	}
	return r, nil
}

// labels predicts every image on version v.
func (r *inferRunner) labels(v int) ([]int, error) {
	out := make([]int, len(r.images))
	for k, x := range r.images {
		lb, err := r.versions[v].Net.Predict(x)
		if err != nil {
			return nil, err
		}
		out[k] = lb
	}
	return out, nil
}

func (r *inferRunner) labelMatch() (int, int) { return r.match, len(r.versions) * len(r.images) }

// pick maps op i to a version and an image.
func (r *inferRunner) pick(i int) (v, k int) {
	return i % len(r.versions), (i / len(r.versions)) % len(r.images)
}

func (r *inferRunner) check(v, k, label int) error {
	if label < 0 || label >= r.versions[v].Classes {
		return fmt.Errorf("label %d out of range", label)
	}
	if label != r.ref[v][k] {
		return fmt.Errorf("version %d image %d: label %d, set-up gave %d", v, k, label, r.ref[v][k])
	}
	return nil
}

func (r *inferRunner) op(i int) (outcome, error) {
	v, k := r.pick(i)
	label, err := r.versions[v].Net.Predict(r.images[k])
	if err != nil {
		return outcome{}, err
	}
	return outcome{ident: label}, r.check(v, k, label)
}

// traced runs the layers' Forward in sequence, timing each, and checks
// the result against Predict's label. MACs and bytes moved are computed
// from tensor shapes, not measured.
func (r *inferRunner) traced(i int, l *layers) (outcome, error) {
	v, k := r.pick(i)
	net := r.versions[v].Net
	x := r.images[k]
	var actMS, total float64
	for _, nl := range net.Layers {
		t0 := time.Now()
		y, err := nl.Layer.Forward(x, false)
		d := msSince(t0)
		total += d
		if err != nil {
			return outcome{}, err
		}
		switch layer := nl.Layer.(type) {
		case *nn.Conv2D:
			g := layer.Geom
			macs := layer.OutC * g.InC * g.KH * g.KW * g.OutH() * g.OutW()
			addCompute(l, layer.ID, d, macs, x.Len()+layer.Weight.Value.Len()+y.Len())
		case *nn.Dense:
			addCompute(l, layer.ID, d, layer.In*layer.Out, x.Len()+layer.Weight.Value.Len()+y.Len())
		case *nn.QuantAct:
			actMS += d
			zeros := 0
			for _, a := range y.Data() {
				if a == 0 {
					zeros++
				}
			}
			l.add("quant."+layer.ID+"_zero_pct", "%", 100*float64(zeros)/float64(y.Len()))
		default:
			actMS += d
		}
		x = y
	}
	l.addNote("nn.act_ms", "ms", actMS, "scale-shift, activation, pool and flatten layers")
	label := x.ArgMax()
	return outcome{ident: label, ms: total}, r.check(v, k, label)
}

// addCompute records a conv or dense layer's time, MACs and bytes moved
// (4 bytes per float32 element read or written: input, weights, output).
func addCompute(l *layers, id string, ms float64, macs, elems int) {
	l.add("nn."+id+"_ms", "ms", ms)
	l.addNote("nn."+id+"_mmac", "MMAC", float64(macs)/1e6, "computed from shapes")
	l.addNote("nn."+id+"_mb", "MB", 4*float64(elems)/1e6, "computed from tensor sizes")
}
