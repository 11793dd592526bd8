package nn

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// skeletonNet is conv → scaleshift → flatten → dense with random weights,
// plus its shape-only skeleton.
func skeletonNet(t *testing.T) (full, skel *Network) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	geom := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	c, err := NewConv2D(ConvConfig{ID: "c", Geom: geom, OutC: 4, Bias: true, InitRNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScaleShift("s", 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDense(DenseConfig{ID: "d", In: 4 * 2 * 2, Out: 3, Bias: true, InitRNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	full = NewNetwork(c, s, NewFlatten("f"), d)
	skel, err = Skeleton(full)
	if err != nil {
		t.Fatal(err)
	}
	return full, skel
}

// A skeleton keeps the layer graph and every shape but owns no parameter
// tensor.
func TestSkeletonKeepsShapesNotParams(t *testing.T) {
	full, skel := skeletonNet(t)
	if len(skel.Layers) != len(full.Layers) {
		t.Fatalf("skeleton has %d layers, want %d", len(skel.Layers), len(full.Layers))
	}
	if n := len(skel.Params()); n != 0 {
		t.Fatalf("skeleton has %d params, want 0", n)
	}
	if skel.ParamCount() != 0 {
		t.Fatalf("skeleton ParamCount = %d", skel.ParamCount())
	}
	want, err := OutputShapeAfter(full, 2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OutputShapeAfter(skel, 2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) || volume(got[i]) != volume(want[i]) {
			t.Fatalf("layer %d shape %v, want %v", i, got[i], want[i])
		}
	}
	fc, sc := full.Convs()[0], skel.Convs()[0]
	if sc.Geom != fc.Geom || sc.OutC != fc.OutC || sc.Quant != fc.Quant {
		t.Fatalf("skeleton conv %+v lost geometry of %+v", sc, fc)
	}
}

// Running any parameterized skeleton layer returns an error naming the
// layer instead of dereferencing a nil tensor.
func TestSkeletonComputeFailsLoudly(t *testing.T) {
	_, skel := skeletonNet(t)
	cases := []struct {
		layer Layer
		in    *tensor.Tensor
	}{
		{skel.Layers[0].Layer, tensor.New(2, 4, 4)}, // conv
		{skel.Layers[1].Layer, tensor.New(4, 2, 2)}, // scaleshift
		{skel.Layers[3].Layer, tensor.New(16)},      // dense
	}
	wantErr := func(op, name string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "shape-only skeleton") || !strings.Contains(err.Error(), name) {
			t.Fatalf("%s %s: err = %v, want a shape-only skeleton error naming the layer", name, op, err)
		}
	}
	for _, tc := range cases {
		name := tc.layer.Name()
		_, err := tc.layer.Forward(tc.in, false)
		wantErr("Forward", name, err)
		_, err = tc.layer.Forward(tc.in, true)
		wantErr("Forward(train)", name, err)
		_, err = tc.layer.Backward(tensor.New(1))
		wantErr("Backward", name, err)
	}
	if _, err := skel.Convs()[0].EffectiveWeights(); err == nil {
		t.Fatal("conv EffectiveWeights on a skeleton succeeded")
	}
	if _, err := skel.Denses()[0].EffectiveWeights(); err == nil {
		t.Fatal("dense EffectiveWeights on a skeleton succeeded")
	}
	if _, err := skel.Forward(tensor.New(2, 4, 4), false); err == nil {
		t.Fatal("network Forward on a skeleton succeeded")
	}
}

// Pruning a skeleton edits the same shapes as pruning the weighted layers
// and copies no tensor; the weighted network is untouched.
func TestSkeletonPrunesShapesOnly(t *testing.T) {
	full, skel := skeletonNet(t)
	ref, err := CloneNetwork(full)
	if err != nil {
		t.Fatal(err)
	}
	rm := []int{1, 2}
	for _, n := range []*Network{ref, skel} {
		c := n.Convs()[0]
		s := n.Layers[1].Layer.(*ScaleShift)
		d := n.Denses()[0]
		if err := c.PruneFilters(rm); err != nil {
			t.Fatal(err)
		}
		if err := s.PruneChannels(rm); err != nil {
			t.Fatal(err)
		}
		if err := d.PruneInputs(rm, 4); err != nil {
			t.Fatal(err)
		}
		if err := d.PruneNeurons([]int{0}); err != nil {
			t.Fatal(err)
		}
	}
	rc, sc := ref.Convs()[0], skel.Convs()[0]
	if sc.OutC != rc.OutC || sc.OutC != 2 || sc.Weight != nil || sc.Bias != nil {
		t.Fatalf("skeleton conv after prune: OutC %d (weighted %d), weight %v", sc.OutC, rc.OutC, sc.Weight)
	}
	rs, ss := ref.Layers[1].Layer.(*ScaleShift), skel.Layers[1].Layer.(*ScaleShift)
	if ss.Channels != rs.Channels || ss.Gamma != nil || ss.Beta != nil {
		t.Fatalf("skeleton scaleshift after prune: %+v", ss)
	}
	rd, sd := ref.Denses()[0], skel.Denses()[0]
	if sd.In != rd.In || sd.Out != rd.Out || sd.Weight != nil {
		t.Fatalf("skeleton dense after prune: %dx%d, weighted %dx%d", sd.In, sd.Out, rd.In, rd.Out)
	}
	if full.Convs()[0].OutC != 4 || full.Denses()[0].In != 16 {
		t.Fatal("pruning a copy changed the original")
	}
	if _, err := rc.Forward(tensor.New(2, 4, 4), false); err != nil {
		t.Fatalf("weighted pruned conv: %v", err)
	}
}
