package prune

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Ranking reads weights, so a skeleton cannot be ranked or neuron-planned.
func TestRankRejectsSkeleton(t *testing.T) {
	sk, err := tiny(t).Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Rank(sk); err == nil || !strings.Contains(err.Error(), "shape-only skeleton") {
		t.Fatalf("Rank(skeleton) err = %v, want a shape-only skeleton error", err)
	}
	if _, err := PlanFilters(sk, 0.5, Ones(2)); err == nil {
		t.Fatal("PlanFilters on a skeleton succeeded")
	}
	if _, err := PlanNeurons(sk, 0.5, Ones(1)); err == nil || !strings.Contains(err.Error(), "shape-only skeleton") {
		t.Fatalf("PlanNeurons(skeleton) err = %v, want a shape-only skeleton error", err)
	}
}

// Apply walks skeletons and weighted models the same way: a plan from the
// weighted model leaves both with identical layer shapes, and only the
// weighted one can run.
func TestApplySkeletonMatchesWeighted(t *testing.T) {
	m := tiny(t)
	rk, err := Rank(m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := rk.Plan(0.5, Ones(2))
	if err != nil {
		t.Fatal(err)
	}
	full, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	sk, err := m.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(full, p); err != nil {
		t.Fatal(err)
	}
	if err := Apply(sk, p); err != nil {
		t.Fatal(err)
	}
	want, err := nn.OutputShapeAfter(full.Net, m.InC, m.InH, m.InW)
	if err != nil {
		t.Fatal(err)
	}
	got, err := nn.OutputShapeAfter(sk.Net, m.InC, m.InH, m.InW)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("layer %d: skeleton shape %v, weighted %v", i, got[i], want[i])
		}
	}
	if sk.PruneRate != full.PruneRate || !slices.Equal(sk.ConvChannels(), p.Channels) {
		t.Fatalf("skeleton rate %v channels %v, plan %v", sk.PruneRate, sk.ConvChannels(), p.Channels)
	}
	if sk.Net.ParamCount() != 0 {
		t.Fatalf("pruned skeleton grew %d parameters", sk.Net.ParamCount())
	}
	if _, err := full.Net.Forward(tensor.New(3, 8, 8), false); err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Net.Forward(tensor.New(3, 8, 8), false); err == nil {
		t.Fatal("pruned skeleton ran a forward pass")
	}
}
