// Package prune implements AdaFlow's dataflow-aware filter pruning
// (paper §IV-A1): starting from an initial CNN, it removes the
// least-important filters (ℓ1-norm ranking, Li et al. ICLR'17) from every
// convolution at a requested rate, subject to the dataflow constraints
//
//	(ch_out − r_i) mod PE_i       == 0
//	(ch_out − r_i) mod SIMD_{i+1} == 0   (expressed as a per-layer
//	                                      channel granularity)
//
// iteratively decreasing r_i until both hold, exactly as the paper
// describes. The package is independent of internal/finn; callers obtain
// the per-convolution granularity from finn.Folding.ChannelGranularity and
// pass it in, which keeps the dependency graph acyclic.
package prune

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/nn"
)

// Plan records which filters a prune removes from each convolution.
type Plan struct {
	// Rate is the requested (nominal) pruning rate in [0, 1).
	Rate float64
	// Removed lists, per convolution, the ascending filter indices to
	// remove (possibly empty when constraints round r_i down to zero).
	Removed [][]int
	// Channels is the resulting out-channel count per convolution.
	Channels []int
	// EffectiveRate is the achieved fraction of removed filters over all
	// convolutions (weighted by channel count).
	EffectiveRate float64
}

// Ranking is every convolution's filter order by ascending ℓ1 norm, ties
// broken by index: the order in which pruning removes filters (Li et al.).
// Ranking once and planning many rates from it is how a rate sweep avoids
// re-reading the weights per rate.
type Ranking struct {
	order [][]int // per convolution, filter indices least important first
}

// Rank computes the model's filter ranking. It reads the weights, so it
// fails on a shape-only skeleton (model.Model.Skeleton).
func Rank(m *model.Model) (*Ranking, error) {
	convs := m.Net.Convs()
	r := &Ranking{order: make([][]int, len(convs))}
	for i, c := range convs {
		if c.Weight == nil {
			return nil, fmt.Errorf("prune: conv %q is a shape-only skeleton; rank the weighted model", c.ID)
		}
		r.order[i] = ascendingOrder(c.FilterL1Norms())
	}
	return r, nil
}

// Plan computes the pruning plan at the given nominal rate. granularity
// has one entry per convolution; pass 1s to disable the dataflow
// constraints (free pruning).
func (rk *Ranking) Plan(rate float64, granularity []int) (*Plan, error) {
	if rate < 0 || rate >= 1 {
		return nil, fmt.Errorf("prune: rate %v out of [0,1)", rate)
	}
	if len(granularity) != len(rk.order) {
		return nil, fmt.Errorf("prune: %d granularity entries for %d convolutions", len(granularity), len(rk.order))
	}
	p := &Plan{Rate: rate, Removed: make([][]int, len(rk.order)), Channels: make([]int, len(rk.order))}
	var total, removed int
	for i, order := range rk.order {
		ch := len(order)
		r, err := constrainedRemoval(ch, rate, granularity[i])
		if err != nil {
			return nil, fmt.Errorf("prune: conv %d: %w", i, err)
		}
		p.Channels[i] = ch - r
		total += ch
		removed += r
		p.Removed[i] = smallest(order, r)
	}
	if total > 0 {
		p.EffectiveRate = float64(removed) / float64(total)
	}
	return p, nil
}

// PlanFilters computes a pruning plan for the model at the given nominal
// rate (see Ranking.Plan).
func PlanFilters(m *model.Model, rate float64, granularity []int) (*Plan, error) {
	rk, err := Rank(m)
	if err != nil {
		return nil, err
	}
	return rk.Plan(rate, granularity)
}

// constrainedRemoval returns how many of n channels a prune at rate
// removes: rate·n, decreased until the n−r survivors are a positive
// multiple of the granularity g (paper §IV-A1).
func constrainedRemoval(n int, rate float64, g int) (int, error) {
	if g <= 0 {
		return 0, fmt.Errorf("granularity %d must be positive", g)
	}
	r := int(rate * float64(n))
	for r > 0 && ((n-r)%g != 0 || n-r <= 0) {
		r--
	}
	return r, nil
}

// ascendingOrder returns the indices of norms from smallest to largest,
// ties broken by index.
func ascendingOrder(norms []float64) []int {
	idx := make([]int, len(norms))
	for j := range idx {
		idx[j] = j
	}
	sort.Slice(idx, func(a, b int) bool {
		if norms[idx[a]] != norms[idx[b]] {
			return norms[idx[a]] < norms[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}

// smallest returns the first r indices of order, ascending; nil for r 0.
func smallest(order []int, r int) []int {
	if r == 0 {
		return nil
	}
	rm := append([]int(nil), order[:r]...)
	sort.Ints(rm)
	return rm
}

// Apply executes a plan on the model in place: it prunes each convolution's
// filters, shrinks the following per-channel layers (ScaleShift, MaxPool),
// and narrows the consumer's input channels (next convolution or the first
// dense layer, using the flattened spatial footprint).
func Apply(m *model.Model, p *Plan) error {
	convs := m.Net.Convs()
	if len(p.Removed) != len(convs) {
		return fmt.Errorf("prune: plan has %d conv entries for %d convolutions", len(p.Removed), len(convs))
	}
	shapes, err := nn.OutputShapeAfter(m.Net, m.InC, m.InH, m.InW)
	if err != nil {
		return err
	}
	// Locate each conv's layer index so we can walk the channel-wise span
	// between it and the next channel consumer.
	var convLayers []int
	for li, nl := range m.Net.Layers {
		if _, ok := nl.Layer.(*nn.Conv2D); ok {
			convLayers = append(convLayers, li)
		}
	}
	for ci := len(convs) - 1; ci >= 0; ci-- {
		rm := p.Removed[ci]
		if len(rm) == 0 {
			continue
		}
		c := convs[ci]
		li := convLayers[ci]
		if err := c.PruneFilters(rm); err != nil {
			return err
		}
		newC := c.OutC
		// Walk downstream until the next channel consumer, updating
		// channel-wise layers along the way.
		consumed := false
		for lj := li + 1; lj < len(m.Net.Layers) && !consumed; lj++ {
			switch l := m.Net.Layers[lj].Layer.(type) {
			case *nn.ScaleShift:
				if err := l.PruneChannels(rm); err != nil {
					return err
				}
			case *nn.MaxPool2D:
				if err := l.PruneChannels(newC); err != nil {
					return err
				}
			case *nn.Conv2D:
				if err := l.PruneInputChannels(rm); err != nil {
					return err
				}
				consumed = true
			case *nn.Dense:
				// Footprint: spatial elements per channel right before
				// the flatten — the last rank-3 shape.
				foot := 1
				for lk := lj - 1; lk > li; lk-- {
					if len(shapes[lk]) == 3 {
						foot = shapes[lk][1] * shapes[lk][2]
						break
					}
				}
				if lj == li+1 {
					// Dense directly after conv (no flatten tracked):
					// footprint from the conv's own output shape.
					foot = shapes[li][1] * shapes[li][2]
				}
				if err := l.PruneInputs(rm, foot); err != nil {
					return err
				}
				consumed = true
			}
		}
		if !consumed {
			return fmt.Errorf("prune: conv %d has no downstream channel consumer", ci)
		}
	}
	m.PruneRate = p.Rate
	return nil
}

// Shrink clones the model and applies a fresh plan at the given rate,
// returning the pruned clone and the plan. The original is untouched.
func Shrink(m *model.Model, rate float64, granularity []int) (*model.Model, *Plan, error) {
	p, err := PlanFilters(m, rate, granularity)
	if err != nil {
		return nil, nil, err
	}
	c, err := m.Clone()
	if err != nil {
		return nil, nil, err
	}
	if err := Apply(c, p); err != nil {
		return nil, nil, err
	}
	return c, p, nil
}

// Ones returns a granularity slice of n ones (free pruning).
func Ones(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = 1
	}
	return g
}
