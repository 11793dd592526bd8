package library

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/dataset"
	"repro/internal/finn"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/train"
)

// weightsDeclared wraps an evaluator so it declares accuracy.WeightReader,
// which sends Generate down the materialized (Clone + Apply) path.
type weightsDeclared struct{ accuracy.Evaluator }

func (weightsDeclared) NeedsWeights() bool { return true }

// shapeCase is one initial model with a shape-only evaluator.
type shapeCase struct {
	name  string
	build func() (*model.Model, error)
	eval  accuracy.Evaluator
}

func shapeCases(t *testing.T) []shapeCase {
	t.Helper()
	var cases []shapeCase
	for _, p := range []struct {
		model, ds string
		classes   int
	}{{"CNVW2A2", "cifar10", 10}, {"CNVW2A2", "gtsrb", 43}, {"CNVW1A2", "cifar10", 10}, {"CNVW1A2", "gtsrb", 43}} {
		ev, err := accuracy.NewCalibrated(p.model, p.ds)
		if err != nil {
			t.Fatal(err)
		}
		build := model.CNVW2A2
		if p.model == "CNVW1A2" {
			build = model.CNVW1A2
		}
		ds, classes := p.ds, p.classes
		cases = append(cases, shapeCase{
			name:  p.model + "/" + p.ds,
			build: func() (*model.Model, error) { return build(ds, classes, 1) },
			eval:  ev,
		})
	}
	cases = append(cases, shapeCase{
		name:  "TinyCNV",
		build: func() (*model.Model, error) { return model.TinyCNV("tiny", "tiny-syn", 2, 4, 1) },
		eval:  &accuracy.Calibrated{Baseline: 0.9, LinearLoss: 0.1, QuadLoss: 1, Chance: 0.25},
	})
	return cases
}

// TestShapeFirstMatchesMaterialized is the shape-first contract: pruning
// skeletons yields exactly the library that pruning weighted clones does —
// every entry field, every fixed accelerator's dataflow and per-module
// resources, the flexible accelerator and the synthesis-memo counts — at
// one worker and at NumCPU.
func TestShapeFirstMatchesMaterialized(t *testing.T) {
	for _, tc := range shapeCases(t) {
		for _, workers := range []int{1, runtime.NumCPU()} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				gen := func(ev accuracy.Evaluator) *Library {
					t.Helper()
					m, err := tc.build()
					if err != nil {
						t.Fatal(err)
					}
					lib, err := Generate(m, Config{Evaluator: ev, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					lib.Stats.Wall = 0
					return lib
				}
				shape, full := gen(tc.eval), gen(weightsDeclared{tc.eval})
				if len(shape.Entries) != len(full.Entries) {
					t.Fatalf("%d entries shape-first, %d materialized", len(shape.Entries), len(full.Entries))
				}
				for i := range full.Entries {
					s, f := shape.Entries[i], full.Entries[i]
					if !reflect.DeepEqual(s.Fixed.Dataflow, f.Fixed.Dataflow) {
						t.Fatalf("rate %v: fixed dataflow differs", f.NominalRate)
					}
					if !reflect.DeepEqual(s.Fixed.PerModule, f.Fixed.PerModule) {
						t.Fatalf("rate %v: fixed per-module resources differ", f.NominalRate)
					}
					if !reflect.DeepEqual(s, f) {
						t.Fatalf("rate %v: entry differs:\nshape-first  %+v\nmaterialized %+v", f.NominalRate, s, f)
					}
				}
				if !reflect.DeepEqual(shape.Flexible, full.Flexible) {
					t.Fatal("flexible accelerator differs")
				}
				if shape.Stats.DistinctSynth != full.Stats.DistinctSynth || shape.Stats.SynthReused != full.Stats.SynthReused {
					t.Fatalf("memo stats differ: shape-first %+v, materialized %+v", shape.Stats, full.Stats)
				}
				if !reflect.DeepEqual(shape, full) {
					t.Fatal("libraries differ outside their entries")
				}
			})
		}
	}
}

// countingEvaluator wraps an evaluator and records what Generate handed it:
// how many models, and how many carried every parameter tensor in the
// shape its layer's geometry implies.
type countingEvaluator struct {
	inner accuracy.Evaluator
	needs bool

	mu              sync.Mutex
	calls, weighted int
	bad             string // first model with weights of the wrong shape
}

func (c *countingEvaluator) NeedsWeights() bool { return c.needs }

func (c *countingEvaluator) Accuracy(m *model.Model) (float64, error) {
	ok, why := weightsShaped(m)
	c.mu.Lock()
	c.calls++
	if ok {
		c.weighted++
	} else if why != "" && c.bad == "" {
		c.bad = why
	}
	c.mu.Unlock()
	return c.inner.Accuracy(m)
}

// weightsShaped reports whether every conv and dense layer of m carries
// weights shaped to its geometry. why is empty for a clean skeleton (no
// weights anywhere) and names the offending layer otherwise.
func weightsShaped(m *model.Model) (ok bool, why string) {
	var present, missing int
	check := func(name string, p *nn.Param, want ...int) {
		if p == nil {
			missing++
			return
		}
		present++
		if got := p.Value.Shape(); !reflect.DeepEqual(got, want) && why == "" {
			why = fmt.Sprintf("%s weight shape %v, want %v", name, got, want)
		}
	}
	for _, c := range m.Net.Convs() {
		check(c.ID, c.Weight, c.OutC, c.Geom.InC, c.Geom.KH, c.Geom.KW)
	}
	for _, d := range m.Net.Denses() {
		check(d.ID, d.Weight, d.Out, d.In)
	}
	if present > 0 && missing > 0 && why == "" {
		why = fmt.Sprintf("%d layers weighted, %d not", present, missing)
	}
	return missing == 0 && why == "", why
}

// Evaluators that train, and runs that keep their models, get weighted
// models of the pruned shapes.
func TestGenerateMaterializesOnlyWhenNeeded(t *testing.T) {
	ds := dataset.TinyDataset(3)
	opts := train.DefaultOptions()
	opts.Epochs = 1
	opts.Samples = 40
	tinyModel := func() *model.Model {
		m, err := model.TinyCNV("tiny", ds.Name, 2, ds.Classes, 2)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cal := &accuracy.Calibrated{Baseline: 0.9, LinearLoss: 0.1, QuadLoss: 1, Chance: 0.25}
	for _, tc := range []struct {
		name         string
		ev           *countingEvaluator
		keep, weight bool
	}{
		{"trained", &countingEvaluator{inner: accuracy.NewTrained(ds, opts), needs: true}, false, true},
		{"keep-models", &countingEvaluator{inner: cal}, true, true},
		{"calibrated", &countingEvaluator{inner: cal}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lib, err := Generate(tinyModel(), Config{Rates: []float64{0, 0.5}, Evaluator: tc.ev, KeepModels: tc.keep})
			if err != nil {
				t.Fatal(err)
			}
			if tc.ev.bad != "" {
				t.Fatal(tc.ev.bad)
			}
			want := 0
			if tc.weight {
				want = tc.ev.calls
			}
			if tc.ev.calls != len(lib.Entries) || tc.ev.weighted != want {
				t.Fatalf("%d of %d evaluated models weighted, want %d of %d", tc.ev.weighted, tc.ev.calls, want, len(lib.Entries))
			}
			for _, e := range lib.Entries {
				if (e.Model != nil) != tc.keep {
					t.Fatalf("rate %v: model kept = %v, want %v", e.NominalRate, e.Model != nil, tc.keep)
				}
				if e.Model == nil {
					continue
				}
				if ok, why := weightsShaped(e.Model); !ok {
					t.Fatalf("rate %v: kept model not weighted: %s", e.NominalRate, why)
				}
				if !reflect.DeepEqual(e.Model.ConvChannels(), e.Channels) {
					t.Fatalf("rate %v: kept model channels %v, entry %v", e.NominalRate, e.Model.ConvChannels(), e.Channels)
				}
			}
		})
	}
}

// A calibrated run at paper scale allocates less than one copy of the
// model's weights: no rate clones them.
func TestCalibratedGenerateCopiesNoWeights(t *testing.T) {
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := accuracy.NewCalibrated("CNVW2A2", "cifar10")
	if err != nil {
		t.Fatal(err)
	}
	ev := &countingEvaluator{inner: cal}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Generate(m, Config{Evaluator: ev, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if ev.weighted != 0 || ev.bad != "" {
		t.Fatalf("%d of %d evaluated models carried weights (%s)", ev.weighted, ev.calls, ev.bad)
	}
	oneCopy := uint64(4 * m.Net.ParamCount())
	if got := after.TotalAlloc - before.TotalAlloc; got >= oneCopy {
		t.Fatalf("Generate allocated %d bytes, at least one weight copy (%d bytes)", got, oneCopy)
	}
}

// An evaluator that reads weights without declaring it gets a skeleton and
// fails loudly rather than training on nothing.
func TestUndeclaredWeightReaderFails(t *testing.T) {
	ds := dataset.TinyDataset(3)
	opts := train.DefaultOptions()
	opts.Epochs = 1
	opts.Samples = 8
	m, err := model.TinyCNV("tiny", ds.Name, 2, ds.Classes, 2)
	if err != nil {
		t.Fatal(err)
	}
	ev := &countingEvaluator{inner: accuracy.NewTrained(ds, opts)}
	_, err = Generate(m, Config{Rates: []float64{0, 0.5}, Evaluator: ev})
	if err == nil || !strings.Contains(err.Error(), "shape-only skeleton") {
		t.Fatalf("err = %v, want a shape-only skeleton error", err)
	}
}

// TestRankPlanMatchesL1Oracle checks one ranking serves every rate of the
// paper sweep: Rank(m).Plan(r, g) equals a brute-force ℓ1 selection
// computed straight from the weights, under the dataflow granularity and
// under free pruning.
func TestRankPlanMatchesL1Oracle(t *testing.T) {
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	gran, err := finn.DefaultFolding(m).ChannelGranularity(m)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := prune.Rank(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range [][]int{gran, prune.Ones(len(gran))} {
		for _, rate := range PaperRates() {
			got, err := rk.Plan(rate, g)
			if err != nil {
				t.Fatal(err)
			}
			want := oraclePlan(m, rate, g)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rate %v granularity %v:\nplan   %+v\noracle %+v", rate, g, got, want)
			}
		}
	}
}

// oraclePlan prunes by brute force: per conv, the largest removal count
// within rate·channels that leaves a positive multiple of the granularity,
// then that many filters picked one at a time as the smallest remaining
// (ℓ1 norm, index).
func oraclePlan(m *model.Model, rate float64, gran []int) *prune.Plan {
	p := &prune.Plan{Rate: rate}
	var total, removed int
	for i, c := range m.Net.Convs() {
		ch := c.OutC
		k := len(c.Weight.Value.Data()) / ch
		norms := make([]float64, ch)
		for o := range norms {
			for _, v := range c.Weight.Value.Data()[o*k : (o+1)*k] {
				norms[o] += math.Abs(float64(v))
			}
		}
		r := 0
		for cand := 0; cand <= int(rate*float64(ch)); cand++ {
			if ch-cand > 0 && (ch-cand)%gran[i] == 0 {
				r = cand
			}
		}
		taken := make([]bool, ch)
		for n := 0; n < r; n++ {
			best := -1
			for o := 0; o < ch; o++ {
				if !taken[o] && (best < 0 || norms[o] < norms[best]) {
					best = o
				}
			}
			taken[best] = true
		}
		var rm []int
		for o, t := range taken {
			if t {
				rm = append(rm, o)
			}
		}
		p.Removed = append(p.Removed, rm)
		p.Channels = append(p.Channels, ch-r)
		total += ch
		removed += r
	}
	p.EffectiveRate = float64(removed) / float64(total)
	return p
}
