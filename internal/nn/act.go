package nn

import (
	"fmt"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// ScaleShift is a learnable per-channel affine y = γ_c·x + β_c over CHW
// inputs (or per-element over flat inputs when Channels == Len). It models
// batch normalization after folding — which is exactly the form FINN
// absorbs into its threshold ladders.
type ScaleShift struct {
	ID       string
	Channels int

	Gamma *Param // (Channels)
	Beta  *Param // (Channels)

	// forward cache
	x *tensor.Tensor
}

// NewScaleShift builds the affine with γ=1, β=0.
func NewScaleShift(id string, channels int) (*ScaleShift, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("nn: scaleshift %q has non-positive channels %d", id, channels)
	}
	g := tensor.New(channels)
	g.Fill(1)
	return &ScaleShift{
		ID:       id,
		Channels: channels,
		Gamma:    newParam(id+".gamma", g),
		Beta:     newParam(id+".beta", tensor.New(channels)),
	}, nil
}

// Name implements Layer.
func (s *ScaleShift) Name() string { return "scaleshift:" + s.ID }

// Params implements Layer.
func (s *ScaleShift) Params() []*Param { return presentParams(s.Gamma, s.Beta) }

// spatial returns the per-channel spatial footprint of x.
func (s *ScaleShift) spatial(x *tensor.Tensor) (int, error) {
	if x.Len()%s.Channels != 0 {
		return 0, fmt.Errorf("nn: scaleshift %q input volume %d not divisible by %d channels", s.ID, x.Len(), s.Channels)
	}
	return x.Len() / s.Channels, nil
}

// Forward implements Layer.
func (s *ScaleShift) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if s.Gamma == nil {
		return nil, errSkeleton(s.Name())
	}
	sp, err := s.spatial(x)
	if err != nil {
		return nil, err
	}
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	gd, bd := s.Gamma.Value.Data(), s.Beta.Value.Data()
	for c := 0; c < s.Channels; c++ {
		g, b := gd[c], bd[c]
		for i := c * sp; i < (c+1)*sp; i++ {
			od[i] = g*xd[i] + b
		}
	}
	if train {
		s.x = x.Clone()
	} else {
		s.x = nil
	}
	return out, nil
}

// Backward implements Layer.
func (s *ScaleShift) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if s.Gamma == nil {
		return nil, errSkeleton(s.Name())
	}
	if s.x == nil {
		return nil, fmt.Errorf("nn: scaleshift %q Backward without Forward(train=true)", s.ID)
	}
	sp, err := s.spatial(s.x)
	if err != nil {
		return nil, err
	}
	if grad.Len() != s.x.Len() {
		return nil, fmt.Errorf("nn: scaleshift %q gradient volume %d, want %d", s.ID, grad.Len(), s.x.Len())
	}
	dx := tensor.New(s.x.Shape()...)
	xd, gd := s.x.Data(), grad.Data()
	gg, bg := s.Gamma.Grad.Data(), s.Beta.Grad.Data()
	gv := s.Gamma.Value.Data()
	dxd := dx.Data()
	for c := 0; c < s.Channels; c++ {
		var sg, sb float32
		for i := c * sp; i < (c+1)*sp; i++ {
			sg += gd[i] * xd[i]
			sb += gd[i]
			dxd[i] = gd[i] * gv[c]
		}
		gg[c] += sg
		bg[c] += sb
	}
	return dx, nil
}

// PruneChannels keeps only the listed channels (complement of remove).
func (s *ScaleShift) PruneChannels(remove []int) error {
	kept, err := checkRemove(s.Channels, remove)
	if err != nil {
		return fmt.Errorf("nn: scaleshift %q: %w", s.ID, err)
	}
	s.Gamma = keepGroups(s.Gamma, 1, 1, remove, kept)
	s.Beta = keepGroups(s.Beta, 1, 1, remove, kept)
	s.Channels = kept
	return nil
}

// QuantAct applies an activation quantizer element-wise with a
// straight-through gradient; the hardware equivalent is a multi-threshold
// unit.
type QuantAct struct {
	ID string
	Q  *quant.ActQuantizer

	x *tensor.Tensor
}

// NewQuantAct builds a quantized activation layer.
func NewQuantAct(id string, q *quant.ActQuantizer) (*QuantAct, error) {
	if q == nil {
		return nil, fmt.Errorf("nn: quantact %q needs a quantizer", id)
	}
	return &QuantAct{ID: id, Q: q}, nil
}

// Name implements Layer.
func (a *QuantAct) Name() string { return "quantact:" + a.ID }

// Params implements Layer.
func (a *QuantAct) Params() []*Param { return nil }

// Forward implements Layer.
func (a *QuantAct) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	out := tensor.New(x.Shape()...)
	for i, v := range x.Data() {
		out.Data()[i] = a.Q.Quantize(v)
	}
	if train {
		a.x = x.Clone()
	} else {
		a.x = nil
	}
	return out, nil
}

// Backward implements Layer.
func (a *QuantAct) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if a.x == nil {
		return nil, fmt.Errorf("nn: quantact %q Backward without Forward(train=true)", a.ID)
	}
	if grad.Len() != a.x.Len() {
		return nil, fmt.Errorf("nn: quantact %q gradient volume %d, want %d", a.ID, grad.Len(), a.x.Len())
	}
	dx := tensor.New(a.x.Shape()...)
	xd, gd := a.x.Data(), grad.Data()
	for i := range gd {
		dx.Data()[i] = a.Q.STEGrad(xd[i], gd[i])
	}
	return dx, nil
}

// ReLU is a plain rectifier, used by float baselines and tests.
type ReLU struct {
	ID string
	x  *tensor.Tensor
}

// NewReLU builds a ReLU layer.
func NewReLU(id string) *ReLU { return &ReLU{ID: id} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu:" + r.ID }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	out := tensor.New(x.Shape()...)
	for i, v := range x.Data() {
		if v > 0 {
			out.Data()[i] = v
		}
	}
	if train {
		r.x = x.Clone()
	} else {
		r.x = nil
	}
	return out, nil
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) (*tensor.Tensor, error) {
	if r.x == nil {
		return nil, fmt.Errorf("nn: relu %q Backward without Forward(train=true)", r.ID)
	}
	dx := tensor.New(r.x.Shape()...)
	for i, v := range r.x.Data() {
		if v > 0 {
			dx.Data()[i] = grad.Data()[i]
		}
	}
	return dx, nil
}
