// Package accuracy estimates a pruned model's TOP-1 test accuracy.
//
// Two evaluators exist. Trained actually retrains and tests the model on a
// synthetic dataset (used for tiny models in tests and examples, where the
// full prune→retrain→evaluate mechanism is exercised end to end).
// Calibrated reproduces the paper's accuracy-vs-pruning-rate behaviour for
// the paper-scale models, whose real training data (CIFAR-10, GTSRB) and
// GPU-days of retraining are unavailable here: baselines are the TOP-1
// values implied by the paper's Table I QoE figures, and the loss curve is
// anchored at the paper's reported −9.9 % at 25 % pruning for
// CNVW2A2/CIFAR-10 with a quadratic profile (filter pruning removes
// quadratically more computation, and accuracy follows).
package accuracy

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/train"
)

// Evaluator estimates TOP-1 accuracy of a model in [0, 1].
type Evaluator interface {
	Accuracy(m *model.Model) (float64, error)
}

// WeightReader is the optional interface of an Evaluator that reads the
// model's parameters (it trains or runs inference). library.Generate
// hands every other evaluator a shape-only skeleton (model.Model.Skeleton)
// and copies weights only for one that declares it needs them; an
// evaluator that runs a skeleton gets a "shape-only skeleton" error.
type WeightReader interface {
	NeedsWeights() bool
}

// NeedsWeights reports whether e declared that it reads model weights.
func NeedsWeights(e Evaluator) bool {
	w, ok := e.(WeightReader)
	return ok && w.NeedsWeights()
}

// Calibrated evaluates accuracy from the paper-calibrated curves.
type Calibrated struct {
	// Baseline is the unpruned TOP-1 accuracy in [0,1].
	Baseline float64
	// LinearLoss and QuadLoss define accuracy loss (in accuracy points,
	// 0–1 scale) as LinearLoss·p + QuadLoss·p² of the effective pruning
	// fraction p.
	LinearLoss float64
	QuadLoss   float64
	// Chance is the floor (1/classes).
	Chance float64
}

// calibration table: baselines derived from Table I (QoE = accuracy ×
// processed fraction, consistent across scenarios), curve anchored at the
// Fig. 5(b) point (−9.9 points at 25 % pruning).
var calibrations = map[string]Calibrated{
	"CNVW2A2/cifar10": {Baseline: 0.887, LinearLoss: 0.12, QuadLoss: 1.10, Chance: 0.10},
	"CNVW2A2/gtsrb":   {Baseline: 0.700, LinearLoss: 0.10, QuadLoss: 0.95, Chance: 1.0 / 43},
	"CNVW1A2/cifar10": {Baseline: 0.879, LinearLoss: 0.14, QuadLoss: 1.25, Chance: 0.10},
	"CNVW1A2/gtsrb":   {Baseline: 0.699, LinearLoss: 0.12, QuadLoss: 1.10, Chance: 1.0 / 43},
}

// NewCalibrated returns the calibrated evaluator for a paper model/dataset
// pair ("CNVW2A2"/"cifar10" etc.).
func NewCalibrated(modelName, ds string) (*Calibrated, error) {
	c, ok := calibrations[modelName+"/"+ds]
	if !ok {
		return nil, fmt.Errorf("accuracy: no calibration for %s/%s", modelName, ds)
	}
	return &c, nil
}

// EffectivePruneFraction returns the channel-weighted fraction of filters
// removed relative to the initial model.
func EffectivePruneFraction(m *model.Model) float64 {
	var base, cur int
	ch := m.ConvChannels()
	for i, b := range m.BaseChannels {
		base += b
		if i < len(ch) {
			cur += ch[i]
		}
	}
	if base == 0 {
		return 0
	}
	return 1 - float64(cur)/float64(base)
}

// Accuracy implements Evaluator. It reads channel counts only
// (ConvChannels against BaseChannels), so a shape-only skeleton serves.
func (c *Calibrated) Accuracy(m *model.Model) (float64, error) {
	p := EffectivePruneFraction(m)
	if p < 0 || p >= 1 {
		return 0, fmt.Errorf("accuracy: effective prune fraction %v out of [0,1)", p)
	}
	acc := c.Baseline - (c.LinearLoss*p + c.QuadLoss*p*p)
	if acc < c.Chance {
		acc = c.Chance
	}
	return acc, nil
}

// AccuracyAtRate evaluates the curve directly at an effective pruning
// fraction (used by plots that do not carry a model).
func (c *Calibrated) AccuracyAtRate(p float64) float64 {
	acc := c.Baseline - (c.LinearLoss*p + c.QuadLoss*p*p)
	if acc < c.Chance {
		acc = c.Chance
	}
	return acc
}

// Trained retrains a model on a synthetic dataset and reports measured
// test accuracy. This is the paper's retrain-for-40-epochs step scaled to
// synthetic data.
type Trained struct {
	Dataset *dataset.Dataset
	Opts    train.Options
}

// NewTrained builds a trained evaluator.
func NewTrained(ds *dataset.Dataset, opts train.Options) *Trained {
	return &Trained{Dataset: ds, Opts: opts}
}

// NeedsWeights implements WeightReader: Trained retrains the weights.
func (t *Trained) NeedsWeights() bool { return true }

// Accuracy implements Evaluator: it retrains the model in place (the
// paper retrains each pruned model before adding it to the library) and
// returns measured test accuracy.
func (t *Trained) Accuracy(m *model.Model) (float64, error) {
	tr, err := train.New(t.Opts)
	if err != nil {
		return 0, err
	}
	res, err := tr.Fit(m, t.Dataset)
	if err != nil {
		return 0, err
	}
	return res.TestAcc, nil
}
