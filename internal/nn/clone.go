package nn

import "fmt"

// cloneParam deep-copies a parameter (gradient starts zeroed). Without
// params it returns nil: the copy is a shape-only skeleton.
func cloneParam(p *Param, params bool) *Param {
	if p == nil || !params {
		return nil
	}
	return newParam(p.Name, p.Value.Clone())
}

// cloneLayer copies the convolution's geometry and quantizer, and its
// parameters when params is set.
func (c *Conv2D) cloneLayer(params bool) Layer {
	return &Conv2D{
		ID:         c.ID,
		Geom:       c.Geom,
		OutC:       c.OutC,
		Weight:     cloneParam(c.Weight, params),
		Bias:       cloneParam(c.Bias, params),
		Quant:      c.Quant,
		PerChannel: c.PerChannel,
	}
}

// cloneLayer copies the dense layer's sizes and quantizer, and its
// parameters when params is set.
func (d *Dense) cloneLayer(params bool) Layer {
	return &Dense{
		ID:     d.ID,
		In:     d.In,
		Out:    d.Out,
		Flat:   d.Flat,
		Weight: cloneParam(d.Weight, params),
		Bias:   cloneParam(d.Bias, params),
		Quant:  d.Quant,
	}
}

// cloneLayer copies the pooling layer.
func (m *MaxPool2D) cloneLayer(bool) Layer {
	return &MaxPool2D{ID: m.ID, Geom: m.Geom}
}

// cloneLayer copies the flatten layer.
func (f *Flatten) cloneLayer(bool) Layer { return &Flatten{ID: f.ID} }

// cloneLayer copies the affine layer's channel count, and its parameters
// when params is set.
func (s *ScaleShift) cloneLayer(params bool) Layer {
	return &ScaleShift{
		ID:       s.ID,
		Channels: s.Channels,
		Gamma:    cloneParam(s.Gamma, params),
		Beta:     cloneParam(s.Beta, params),
	}
}

// cloneLayer copies the quantized activation.
func (a *QuantAct) cloneLayer(bool) Layer { return &QuantAct{ID: a.ID, Q: a.Q} }

// cloneLayer copies the ReLU.
func (r *ReLU) cloneLayer(bool) Layer { return &ReLU{ID: r.ID} }

// layerCloner is implemented by every layer in this package.
type layerCloner interface{ cloneLayer(params bool) Layer }

// CloneNetwork deep-copies a network: parameters are copied, caches are
// not. It returns an error if a layer does not support cloning.
func CloneNetwork(n *Network) (*Network, error) { return cloneNetwork(n, true) }

// Skeleton copies a network's layer graph — geometry, channel counts and
// quantizers — without its parameter tensors. Pruning a skeleton edits
// shapes only; running one (Forward, Backward, EffectiveWeights) returns
// an error naming the layer.
func Skeleton(n *Network) (*Network, error) { return cloneNetwork(n, false) }

func cloneNetwork(n *Network, params bool) (*Network, error) {
	out := &Network{}
	for _, nl := range n.Layers {
		c, ok := nl.Layer.(layerCloner)
		if !ok {
			return nil, fmt.Errorf("nn: layer %d (%s) does not support cloning", nl.Index, nl.Layer.Name())
		}
		out.Append(c.cloneLayer(params))
	}
	return out, nil
}

// errSkeleton is the error a shape-only skeleton layer returns when asked
// to compute.
func errSkeleton(layer string) error {
	return fmt.Errorf("nn: %s is a shape-only skeleton without parameters", layer)
}

// presentParams drops the nil entries (no bias, or a skeleton) from ps.
func presentParams(ps ...*Param) []*Param {
	out := ps[:0]
	for _, p := range ps {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// OutputShapeAfter computes the CHW shape flowing out of each layer for a
// given input shape, without allocating activations. It is used by the
// dataflow mapper and by pruning to find the flatten footprint. The return
// value has one entry per layer.
func OutputShapeAfter(n *Network, inC, inH, inW int) ([][]int, error) {
	cur, rank := [3]int{inC, inH, inW}, 3
	// One backing array for every shape: the mapper and pruning call this
	// once per pruned version.
	buf := make([]int, 0, 3*len(n.Layers))
	shapes := make([][]int, 0, len(n.Layers))
	for _, nl := range n.Layers {
		switch l := nl.Layer.(type) {
		case *Conv2D:
			if rank != 3 || cur != [3]int{l.Geom.InC, l.Geom.InH, l.Geom.InW} {
				return nil, fmt.Errorf("nn: shape %v into conv %q wanting %dx%dx%d", cur[:rank], l.ID, l.Geom.InC, l.Geom.InH, l.Geom.InW)
			}
			cur = [3]int{l.OutC, l.Geom.OutH(), l.Geom.OutW()}
		case *MaxPool2D:
			if rank != 3 || cur != [3]int{l.Geom.InC, l.Geom.InH, l.Geom.InW} {
				return nil, fmt.Errorf("nn: shape %v into pool %q wanting %dx%dx%d", cur[:rank], l.ID, l.Geom.InC, l.Geom.InH, l.Geom.InW)
			}
			cur = [3]int{l.Geom.InC, l.Geom.OutH(), l.Geom.OutW()}
		case *Dense:
			if volume(cur[:rank]) != l.In {
				return nil, fmt.Errorf("nn: volume %d into dense %q wanting %d", volume(cur[:rank]), l.ID, l.In)
			}
			cur, rank = [3]int{l.Out}, 1
		case *Flatten:
			cur, rank = [3]int{volume(cur[:rank])}, 1
		default:
			// Channel-wise layers preserve shape.
		}
		start := len(buf)
		buf = append(buf, cur[:rank]...)
		shapes = append(shapes, buf[start:len(buf):len(buf)])
	}
	return shapes, nil
}

func volume(shape []int) int {
	v := 1
	for _, d := range shape {
		v *= d
	}
	return v
}
