package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// ForwardBatch runs inference on a batch of samples: B Forward(x, false)
// calls in order, so it is bit-identical to them by construction. No layer
// has a batched kernel of its own; the bit-plane path packs its weight
// planes once per weight version, so a batch has nothing left to share.
func (n *Network) ForwardBatch(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("nn: ForwardBatch on empty batch")
	}
	outs := make([]*tensor.Tensor, len(xs))
	for j, x := range xs {
		out, err := n.Forward(x, false)
		if err != nil {
			return nil, err
		}
		outs[j] = out
	}
	return outs, nil
}

// PredictBatch runs batched inference and returns the argmax class per
// sample.
func (n *Network) PredictBatch(xs []*tensor.Tensor) ([]int, error) {
	outs, err := n.ForwardBatch(xs)
	if err != nil {
		return nil, err
	}
	classes := make([]int, len(outs))
	for i, out := range outs {
		classes[i] = out.ArgMax()
	}
	return classes, nil
}
