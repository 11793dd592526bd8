package adaflow

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the DESIGN.md ablations and micro-benchmarks of the
// hot substrates. Key reproduction numbers are attached to the benchmark
// output via b.ReportMetric, so `go test -bench=. -benchmem` regenerates
// the paper's result set; cmd/adaflow-repro prints the full tables.

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/finn"
	"repro/internal/library"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/quant"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/train"
)

// benchRuns keeps per-iteration simulation cost reasonable; the paper
// averages 100 runs, which cmd/adaflow-repro uses by default.
const benchRuns = 10

// BenchmarkFig1a regenerates Figure 1(a): accuracy and FPS vs pruning rate
// for CNVW2A2/CIFAR-10 on FINN.
func BenchmarkFig1a(b *testing.B) {
	var last *experiments.Fig1aResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1a()
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	first, end := last.Points[0], last.Points[len(last.Points)-1]
	b.ReportMetric(first.FPS, "baseline-FPS")
	b.ReportMetric(end.FPS/first.FPS, "fps-gain-85pct")
	b.ReportMetric((first.Accuracy-end.Accuracy)*100, "acc-drop-85pct-pts")
}

// BenchmarkFig1b regenerates Figure 1(b): frame loss vs reconfiguration
// time for model switching via FPGA reconfigurations.
func BenchmarkFig1b(b *testing.B) {
	var last *experiments.Fig1bResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1b(benchRuns, 1)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	for _, s := range last.Series {
		switch s.Label {
		case "No Pruning":
			b.ReportMetric(s.FrameLossPct, "loss-nopruning-pct")
		case "Pruning Reconf. 0ms":
			b.ReportMetric(s.FrameLossPct, "loss-ideal-pct")
		case "Pruning Reconf. 362ms":
			b.ReportMetric(s.FrameLossPct, "loss-362ms-pct")
		}
	}
}

// BenchmarkFig5a regenerates Figure 5(a): FPGA resources for FINN vs
// Flexible vs Fixed accelerators.
func BenchmarkFig5a(b *testing.B) {
	var last *experiments.Fig5aResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5a()
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	b.ReportMetric(last.MeasuredFlexLUTRatio, "flex-LUT-ratio(paper-1.92)")
	b.ReportMetric(last.MeasuredFixedRed85Pct*100, "fixed-LUT-red-85pct(paper-46.2)")
}

// BenchmarkFig5b regenerates Figure 5(b): accuracy vs energy per
// inference on CIFAR-10.
func BenchmarkFig5b(b *testing.B) {
	benchFig5bc(b, "cifar10")
}

// BenchmarkFig5c regenerates Figure 5(c): the same on GTSRB.
func BenchmarkFig5c(b *testing.B) {
	benchFig5bc(b, "gtsrb")
}

func benchFig5bc(b *testing.B, ds string) {
	b.Helper()
	var last *experiments.Fig5bcResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5bc(ds)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	b.ReportMetric(last.MeasuredFixedRed25, "fixed-energy-red-25pct(paper-1.64)")
	b.ReportMetric(last.MeasuredFlexRed25, "flex-energy-red-25pct(paper-1.38)")
}

// BenchmarkTable1 regenerates Table I: frame loss, QoE, power, power
// efficiency across all dataset/model pairs and scenarios.
func BenchmarkTable1(b *testing.B) {
	var last *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(benchRuns, 1)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	var eff, proc float64
	for _, row := range last.Rows {
		eff += row.PowerEffRatio
		if row.FINN.Processed > 0 {
			proc += row.AdaFlow.Processed / row.FINN.Processed
		}
	}
	n := float64(len(last.Rows))
	b.ReportMetric(proc/n, "avg-inference-gain(paper-1.3)")
	b.ReportMetric(eff/n, "avg-power-eff(paper-1.27)")
}

// BenchmarkFig6a regenerates Figure 6(a): frame-loss traces with model
// switches under Scenarios 1, 2 and 1+2.
func BenchmarkFig6a(b *testing.B) {
	var last *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(1)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	for _, s := range last.Series {
		if s.Label == "AdaFlow" && s.Scenario == "scenario2" {
			b.ReportMetric(float64(s.Stats.Switches), "scen2-switches(paper-31)")
			b.ReportMetric(float64(s.Stats.Reconfigs), "scen2-reconfigs(paper-~0)")
		}
	}
}

// BenchmarkFig6b regenerates Figure 6(b): the QoE traces of the same runs.
func BenchmarkFig6b(b *testing.B) {
	var last *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(2)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	var ada, fn float64
	for _, s := range last.Series {
		if s.Scenario == "scenario1+2" {
			if s.Label == "AdaFlow" {
				ada = s.Stats.QoEPct
			} else {
				fn = s.Stats.QoEPct
			}
		}
	}
	b.ReportMetric(ada, "QoE-adaflow-scen1+2")
	b.ReportMetric(fn, "QoE-finn-scen1+2")
}

// BenchmarkAblationSwitchCriteria sweeps the Fixed/Flexible selection
// criteria multiple (the paper fine-tunes 10×).
func BenchmarkAblationSwitchCriteria(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationSwitchCriteria([]float64{1, 10, 100}, benchRuns/2+1, 1)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
	}
}

// BenchmarkAblationThreshold sweeps the user accuracy threshold.
func BenchmarkAblationThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationThreshold([]float64{0.05, 0.10, 0.20}, benchRuns/2+1, 1)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
	}
}

// BenchmarkAblationPolicy compares the accuracy-first and energy-first
// model-selection policies.
func BenchmarkAblationPolicy(b *testing.B) {
	var last *experiments.AblationPolicyResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationPolicy(benchRuns/2+1, 1)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	b.ReportMetric(last.Rows[0].PowerEff, "throughput-policy-inf-per-J")
	b.ReportMetric(last.Rows[1].PowerEff, "energy-policy-inf-per-J")
}

// BenchmarkAblationConstraintRelax measures how many freely-pruned models
// the dataflow constraints would reject.
func BenchmarkAblationConstraintRelax(b *testing.B) {
	var last *experiments.AblationConstraintsResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationConstraintRelax()
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	b.ReportMetric(float64(last.FreeViolates), "free-prune-violations")
	b.ReportMetric(float64(last.Total), "versions-total")
}

// BenchmarkExtChurn runs the device-churn extension experiment (variable
// number of connected nodes, which the paper motivates but does not
// evaluate).
func BenchmarkExtChurn(b *testing.B) {
	var last *experiments.ExtChurnResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtChurn(benchRuns, 1)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	b.ReportMetric(last.AdaFlow.FrameLossPct, "ada-loss-pct")
	b.ReportMetric(last.FINN.FrameLossPct, "finn-loss-pct")
}

// BenchmarkExtPoolScaling runs the multi-FPGA scaling study (the authors'
// follow-up direction, the paper's reference [3]).
func BenchmarkExtPoolScaling(b *testing.B) {
	var last *experiments.ExtPoolResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtPoolScaling(3, 1)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	b.ReportMetric(last.Rows[0].PowerEff, "one-board-inf-per-J")
	b.ReportMetric(last.Rows[3].PowerEff, "four-board-inf-per-J")
}

// BenchmarkAblationFoldingExplorer traces the FPS-vs-LUT frontier of the
// folding design space (FINN's folding-configuration step).
func BenchmarkAblationFoldingExplorer(b *testing.B) {
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	var lut460, lut1800 float64
	for i := 0; i < b.N; i++ {
		r1, err := explore.TargetFPS(m, 460, explore.Options{MaxIterations: 4000})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := explore.TargetFPS(m, 1800, explore.Options{MaxIterations: 8000})
		if err != nil {
			b.Fatal(err)
		}
		lut460, lut1800 = float64(r1.Res.LUT), float64(r2.Res.LUT)
	}
	b.ReportMetric(lut460, "LUT-at-460fps")
	b.ReportMetric(lut1800, "LUT-at-1800fps")
}

// BenchmarkExtEngineComparison evaluates the §II dataflow-vs-single-engine
// architecture comparison.
func BenchmarkExtEngineComparison(b *testing.B) {
	var last *experiments.ExtEngineResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtEngineComparison()
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
		last = r
	}
	b.ReportMetric(last.Rows[0].FPS/last.Rows[1].FPS, "dataflow-speedup-equal-array")
}

// ---- substrate micro-benchmarks ----

// BenchmarkGemm measures the GEMM kernel behind convolution lowering.
func BenchmarkGemm(b *testing.B) {
	a := tensor.New(64, 576)
	for i := range a.Data() {
		a.Data()[i] = float32(i%13) * 0.1
	}
	c := tensor.New(576, 196)
	for i := range c.Data() {
		c.Data()[i] = float32(i%7) * 0.2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tensor.Gemm(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGemmSizes compares the serial fast path against the pooled
// parallel path on small/medium/large square GEMMs, writing into reused
// scratch so allocs/op shows the zero-allocation steady state.
func BenchmarkGemmSizes(b *testing.B) {
	for _, size := range []struct {
		name string
		dim  int
	}{{"small-32", 32}, {"medium-128", 128}, {"large-384", 384}} {
		a := tensor.New(size.dim, size.dim)
		c := tensor.New(size.dim, size.dim)
		for i := range a.Data() {
			a.Data()[i] = float32(i%13)*0.1 - 0.5
			c.Data()[i] = float32(i%7)*0.2 - 0.5
		}
		dst := tensor.New(size.dim, size.dim)
		for _, mode := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", 0}} { // 0 resets the cap to NumCPU
			b.Run(size.name+"/"+mode.name, func(b *testing.B) {
				prev := tensor.SetMaxWorkers(mode.workers)
				defer tensor.SetMaxWorkers(prev)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := tensor.GemmInto(dst, a, c); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkIm2Col measures the sliding-window lowering (the software SWU)
// on the first-conv geometry of the paper's CNV, into reused scratch.
func BenchmarkIm2Col(b *testing.B) {
	g := tensor.ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	in := tensor.New(3, 32, 32)
	for i := range in.Data() {
		in.Data()[i] = float32(i%11) * 0.1
	}
	dst := tensor.Borrow(g.InC*g.KH*g.KW, g.OutH()*g.OutW())
	defer tensor.Release(dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tensor.Im2ColInto(dst, in, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvForward measures one inference pass of a quantized
// convolution with no known input grid, so on the float reference, where
// the EffectiveWeights cache and the pooled im2col scratch keep
// steady-state allocations to the output tensor alone. BenchmarkCNVLayer
// covers the bit-plane path.
func BenchmarkConvForward(b *testing.B) {
	q, err := quant.NewWeightQuantizer(2)
	if err != nil {
		b.Fatal(err)
	}
	conv, err := nn.NewConv2D(nn.ConvConfig{
		ID: "bench",
		Geom: tensor.ConvGeom{
			InC: 64, InH: 16, InW: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
		},
		OutC: 64, Bias: true, WQuant: q,
		InitRNG: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(64, 16, 16)
	for i := range x.Data() {
		x.Data()[i] = float32(i%9)*0.25 - 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conv.Forward(x, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCNVLayer times each convolution and dense layer of paper-scale
// CNVW2A2 on its real input (a synthetic CIFAR-10 image run through the
// layers before it), on the float reference and, where the layer's input
// lies on an activation grid, on the bit-plane integer path. These are the
// per-layer numbers behind the kernel choice in DESIGN.md, taken on one
// worker so they compare kernels rather than the host's spare cores.
func BenchmarkCNVLayer(b *testing.B) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	x, _ := dataset.SyntheticCIFAR10(1).TestSample(0)
	onGrid := false
	for _, nl := range m.Net.Layers {
		var id string
		var quantized bool
		switch l := nl.Layer.(type) {
		case *nn.Conv2D:
			id, quantized = l.ID, l.Quant != nil
		case *nn.Dense:
			id, quantized = l.ID, l.Quant != nil
		}
		if id != "" {
			paths := []string{"float"}
			if onGrid && quantized {
				paths = append(paths, "bitplane")
			}
			for _, path := range paths {
				b.Run(id+"/"+path, func(b *testing.B) {
					prev := nn.SetInt8GEMM(path == "bitplane")
					defer nn.SetInt8GEMM(prev)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := nl.Layer.Forward(x, false); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
		// Only pools and flattens keep a QuantAct's grid.
		switch nl.Layer.(type) {
		case *nn.QuantAct:
			onGrid = true
		case *nn.MaxPool2D, *nn.Flatten:
		default:
			onGrid = false
		}
		if x, err = nl.Layer.Forward(x, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTinyInference measures one quantized forward pass.
func BenchmarkTinyInference(b *testing.B) {
	m, err := model.TinyCNV("tiny", "tiny-syn", 2, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(3, 8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Net.Forward(x, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainEpoch measures one training epoch of the tiny model.
func BenchmarkTrainEpoch(b *testing.B) {
	ds := dataset.TinyDataset(1)
	m, err := model.TinyCNV("tiny", ds.Name, 2, ds.Classes, 1)
	if err != nil {
		b.Fatal(err)
	}
	opts := train.DefaultOptions()
	opts.Epochs = 1
	opts.Samples = 80
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := train.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tr.Fit(m, ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataflowPipelineSim measures the event-driven pipeline
// simulator on the paper-scale CNV.
func BenchmarkDataflowPipelineSim(b *testing.B) {
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	df, err := finn.Map(m, finn.DefaultFolding(m), finn.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := df.SimulatePipeline(100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLibraryGenerate measures the full design-time sweep (18 pruned
// versions, 18 fixed accelerators, one flexible) at paper scale, serial
// versus fanned over all cores. The calibrated evaluator reads channel
// counts only, so the sweep prunes shape-only skeletons and copies no
// weights; scripts/verify.sh gates the serial variant's allocations.
func BenchmarkLibraryGenerate(b *testing.B) {
	p := experiments.Pairs[0]
	m, err := model.CNVW2A2(p.Dataset, p.Classes, 1)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := newCalibrated(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", runtime.NumCPU()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := library.Generate(m, library.Config{Evaluator: ev, Workers: bc.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExploreTargetFPS measures one greedy folding search. The cold
// variant clears the evaluation cache every iteration (full incremental
// search from scratch); the warm variant re-runs the same search against a
// primed cache, isolating the memoization win.
func BenchmarkExploreTargetFPS(b *testing.B) {
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	const target = 1800
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			explore.ResetCache()
			if _, err := explore.TargetFPS(m, target, explore.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		explore.ResetCache()
		if _, err := explore.TargetFPS(m, target, explore.Options{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := explore.TargetFPS(m, target, explore.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func newCalibrated(p experiments.Pair) (Evaluator, error) {
	return NewCalibratedEvaluator(p.ModelName, p.Dataset)
}

// BenchmarkPrunePlan measures dataflow-aware plan construction on the
// paper-scale model.
func BenchmarkPrunePlan(b *testing.B) {
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	fold := finn.DefaultFolding(m)
	gs, err := fold.ChannelGranularity(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prune.PlanFilters(m, 0.45, gs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEdgeScenarioRun measures one full 25-second edge simulation.
func BenchmarkEdgeScenarioRun(b *testing.B) {
	p := experiments.Pairs[0]
	lib, err := experiments.Lib(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edge.Run(scenario(b, "paper2"), edge.NewStaticFINN(lib), edge.SimConfig{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunEdge measures the serving hot path — AdaFlow controller,
// Runtime Manager decisions, full 25 s scenario — with tracing off. The
// fluid variant is the historical disabled-tracer overhead guard:
// scripts/verify.sh compares it against the committed baseline, so
// instrumentation added to the serving loop must stay free when no tracer
// is attached. The batch=N variants run the event-level simulator (every
// frame is an event) under a deadline; batch=1 is per-frame dispatch and
// batch=8 serves up to eight frames per service event. Event handlers are
// bound once per run and the frame queue reuses its array, so neither
// variant allocates per frame: both stay near the fluid run's allocs/op,
// and the baseline gate keeps them there. The adapt
// variant runs the closed drift-recovery loop (detect → retrain → swap)
// under a sustained shift; the fluid variant doubles as the guard that
// the adaptation plumbing stays free when Adapt is disabled.
func BenchmarkRunEdge(b *testing.B) {
	p := experiments.Pairs[0]
	lib, err := experiments.Lib(p)
	if err != nil {
		b.Fatal(err)
	}
	newCtl := func(b *testing.B) Controller {
		mgr, err := NewRuntimeManager(lib, DefaultManagerConfig())
		if err != nil {
			b.Fatal(err)
		}
		return NewAdaFlowController(mgr)
	}
	b.Run("fluid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunEdge(scenario(b, "paper2"), newCtl(b), SimConfig{Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, batch := range []int{1, 8} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunEdgeEventLevel(scenario(b, "paper2"), newCtl(b), SimConfig{
					Seed: int64(i), AdmissionConfig: edge.AdmissionConfig{Deadline: 0.1}, BatchConfig: edge.BatchConfig{Size: batch},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("adapt", func(b *testing.B) {
		plan, err := ParseFaultPlan("drift-sustained:p=1,start=5,mag=-0.15")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunEdge(scenario(b, "paper2"), newCtl(b), SimConfig{
				Seed: int64(i), FaultConfig: edge.FaultConfig{Plan: plan, Seed: 1},
				Adapt: AdaptConfig{Enabled: true},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPoolRun measures the supervised multi-board pool over the full
// hybrid scenario. The healthy variant runs with no fault rules and is the
// supervision overhead guard: scripts/verify.sh compares it against the
// BENCH.json baseline via benchjson -check, so heartbeats and health
// bookkeeping must stay nearly free when no faults fire. The one-dead
// variant crashes a board mid-run and exercises detection, failover, and
// capacity redistribution.
func BenchmarkPoolRun(b *testing.B) {
	p := experiments.Pairs[0]
	lib, err := experiments.Lib(p)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, plan *FaultPlan) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool, err := NewSupervisedPool(lib, PoolConfig{Boards: 4, Manager: DefaultManagerConfig()})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := RunEdge(scenario(b, "paper12"), pool, SimConfig{
				Seed: int64(i), FaultConfig: edge.FaultConfig{Plan: plan, Seed: 1},
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("healthy", func(b *testing.B) { run(b, nil) })
	b.Run("one-dead", func(b *testing.B) {
		plan, err := ParseFaultPlan("board-crash:p=1,board=0,start=5,end=5.05,repair=60")
		if err != nil {
			b.Fatal(err)
		}
		run(b, plan)
	})
	// The batched variant puts an 8-frame dispatch queue in front of each
	// board (PoolConfig.Batch); the per-board analytic queues ride the
	// existing heartbeats, so this doubles as the batching overhead guard.
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pool, err := NewSupervisedPool(lib, PoolConfig{
				Boards: 4, Manager: DefaultManagerConfig(), Batch: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := RunEdge(scenario(b, "paper12"), pool, SimConfig{Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClusterRun measures the fleet scheduler end to end: 1000
// camera streams sharded across 8 supervised pools for the default 5
// epochs. The healthy variant is the cluster-control overhead guard —
// scripts/verify.sh compares it against the BENCH.json baseline via
// benchjson -check, so placement, rebalancing, and aggregation must stay
// cheap relative to the serving work they orchestrate. The one-pool-dead
// variant crashes all of pool 0's boards mid-run and exercises
// migration, blackout accounting, and repair.
func BenchmarkClusterRun(b *testing.B) {
	p := experiments.Pairs[0]
	lib, err := experiments.Lib(p)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, plan *FaultPlan, faultPools []int) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sch, err := NewClusterScheduler(lib, DefaultStreams(1000), ClusterConfig{
				Pools: 8, Seed: int64(i + 1),
				FaultPlan: plan, FaultPools: faultPools, FaultSeed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sch.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("healthy", func(b *testing.B) { run(b, nil, nil) })
	b.Run("one-pool-dead", func(b *testing.B) {
		plan, err := ParseFaultPlan("board-crash:p=1,start=6,end=6.3,repair=8")
		if err != nil {
			b.Fatal(err)
		}
		run(b, plan, []int{0})
	})
}

// BenchmarkFaultInjector measures the fault layer over one fluid run's
// worth of queries: NewInjector, then a sensor observation and the
// drift draws (DriftSpan, SustainedSpan) at every 10 ms step of a 25 s
// scenario. The none variant is the fault-free injector every pool epoch
// builds; it seeds no stream, so it allocates only the Injector. The
// chaos variant seeds the streams of its four rule kinds.
func BenchmarkFaultInjector(b *testing.B) {
	const step, steps = 0.01, 2500
	chaos, err := fault.ParsePlan("sensor-dropout:p=0.05;sensor-spike:p=0.2;accuracy-drift:p=0.1,start=5,end=15;drift-sustained:p=1,start=10,mag=-0.1,slope=0.02")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		plan *fault.Plan
	}{{"none", nil}, {"chaos", chaos}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in, err := fault.NewInjector(bc.plan, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				for j := 1; j <= steps; j++ {
					now := float64(j) * step
					in.Observe(now, 100)
					in.DriftSpan(now-step, now)
					in.SustainedSpan(now-step, now)
				}
			}
		})
	}
}

// BenchmarkDESKernel measures raw event throughput of the simulation
// kernel. The closure is hoisted out of the schedule loop so allocs/op
// reflects the engine (event storage, queue bookkeeping), not
// benchmark-side closure captures; with slab-allocated events and the
// calendar queue the steady state is a few allocs per thousand events
// instead of one per event.
func BenchmarkDESKernel(b *testing.B) {
	b.Run("calendar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := sim.NewEngine()
			n := 0
			fn := func() { n++ }
			for j := 0; j < 1000; j++ {
				if err := e.Schedule(float64(j), fn); err != nil {
					b.Fatal(err)
				}
			}
			e.Run(2000)
			if n != 1000 {
				b.Fatal("events lost")
			}
		}
	})
}
