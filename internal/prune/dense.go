package prune

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/nn"
)

// DensePlan records neuron removals for the hidden dense layers (the
// paper's §IV-A1 covers "neurons, in the case of a fully-connected layer";
// the classifier head is never pruned). Neuron pruning applies to Fixed
// accelerators — the Flexible templates' runtime parameter covers CONV
// channels only, as in the paper.
type DensePlan struct {
	Rate          float64
	Removed       [][]int // per hidden dense layer
	Widths        []int   // resulting Out per hidden dense layer
	EffectiveRate float64
}

// PlanNeurons computes a neuron-pruning plan at the given nominal rate.
// granularity has one entry per hidden dense layer (see
// finn.Folding.DenseGranularity); pass all-1s for free pruning.
func PlanNeurons(m *model.Model, rate float64, granularity []int) (*DensePlan, error) {
	if rate < 0 || rate >= 1 {
		return nil, fmt.Errorf("prune: rate %v out of [0,1)", rate)
	}
	denses := m.Net.Denses()
	if len(denses) == 0 {
		return nil, fmt.Errorf("prune: model has no dense layers")
	}
	hidden := denses[:len(denses)-1]
	if len(granularity) != len(hidden) {
		return nil, fmt.Errorf("prune: %d granularity entries for %d hidden dense layers", len(granularity), len(hidden))
	}
	p := &DensePlan{Rate: rate, Removed: make([][]int, len(hidden)), Widths: make([]int, len(hidden))}
	var total, removed int
	for i, d := range hidden {
		if d.Weight == nil {
			return nil, fmt.Errorf("prune: dense %q is a shape-only skeleton; plan on the weighted model", d.ID)
		}
		out := d.Out
		r, err := constrainedRemoval(out, rate, granularity[i])
		if err != nil {
			return nil, fmt.Errorf("prune: dense %d: %w", i, err)
		}
		p.Widths[i] = out - r
		total += out
		removed += r
		if r > 0 {
			p.Removed[i] = smallest(ascendingOrder(d.NeuronL1Norms()), r)
		}
	}
	if total > 0 {
		p.EffectiveRate = float64(removed) / float64(total)
	}
	return p, nil
}

// ApplyNeurons executes a neuron plan in place: each hidden dense loses
// the planned neurons, the following per-channel layers shrink, and the
// next dense narrows its inputs.
func ApplyNeurons(m *model.Model, p *DensePlan) error {
	denses := m.Net.Denses()
	if len(denses) == 0 {
		return fmt.Errorf("prune: model has no dense layers")
	}
	hidden := denses[:len(denses)-1]
	if len(p.Removed) != len(hidden) {
		return fmt.Errorf("prune: plan has %d entries for %d hidden dense layers", len(p.Removed), len(hidden))
	}
	// Locate dense layer positions.
	var denseLayers []int
	for li, nl := range m.Net.Layers {
		if _, ok := nl.Layer.(*nn.Dense); ok {
			denseLayers = append(denseLayers, li)
		}
	}
	for di := len(hidden) - 1; di >= 0; di-- {
		rm := p.Removed[di]
		if len(rm) == 0 {
			continue
		}
		d := hidden[di]
		if err := d.PruneNeurons(rm); err != nil {
			return err
		}
		consumed := false
		for lj := denseLayers[di] + 1; lj < len(m.Net.Layers) && !consumed; lj++ {
			switch l := m.Net.Layers[lj].Layer.(type) {
			case *nn.ScaleShift:
				if err := l.PruneChannels(rm); err != nil {
					return err
				}
			case *nn.Dense:
				if err := l.PruneInputs(rm, 1); err != nil {
					return err
				}
				consumed = true
			}
		}
		if !consumed {
			return fmt.Errorf("prune: dense %d has no downstream consumer", di)
		}
	}
	return nil
}

// ShrinkDense clones the model and applies a fresh neuron plan.
func ShrinkDense(m *model.Model, rate float64, granularity []int) (*model.Model, *DensePlan, error) {
	p, err := PlanNeurons(m, rate, granularity)
	if err != nil {
		return nil, nil, err
	}
	c, err := m.Clone()
	if err != nil {
		return nil, nil, err
	}
	if err := ApplyNeurons(c, p); err != nil {
		return nil, nil, err
	}
	return c, p, nil
}
