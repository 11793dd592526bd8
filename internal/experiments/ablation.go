package experiments

import (
	"fmt"
	"io"

	"repro/internal/edge"
	"repro/internal/finn"
	"repro/internal/library"
	"repro/internal/manager"
	"repro/internal/prune"
)

// AblationCriteriaRow is one setting of the Fixed/Flexible selection rule.
type AblationCriteriaRow struct {
	Multiple     float64
	FrameLossPct float64
	AvgPowerW    float64
	PowerEff     float64
	Reconfigs    int
	Switches     int
}

// AblationCriteriaResult sweeps the accelerator-selection criteria
// multiple (the paper fine-tunes it to 10× the reconfiguration time) under
// the hybrid scenario, where both families matter.
type AblationCriteriaResult struct {
	Pair Pair
	Rows []AblationCriteriaRow
}

// AblationSwitchCriteria runs the sweep.
func AblationSwitchCriteria(multiples []float64, runs int, seed int64) (*AblationCriteriaResult, error) {
	if len(multiples) == 0 {
		multiples = []float64{1, 2, 5, 10, 20, 50, 100}
	}
	if runs <= 0 {
		return nil, fmt.Errorf("experiments: ablation needs a positive run count")
	}
	p := Pairs[0]
	lib, err := Lib(p)
	if err != nil {
		return nil, err
	}
	res := &AblationCriteriaResult{Pair: p}
	scn, err := edge.NamedScenario("paper12")
	if err != nil {
		return nil, err
	}
	for _, mult := range multiples {
		cfg := manager.DefaultConfig()
		cfg.CriteriaMultiple = mult
		mean, _, err := edge.RunRepeated(scn, func() (edge.Controller, error) {
			mgr, err := manager.New(lib, cfg)
			if err != nil {
				return nil, err
			}
			return edge.NewAdaFlow(mgr), nil
		}, runs, seed, edge.SimConfig{})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationCriteriaRow{
			Multiple:     mult,
			FrameLossPct: mean.FrameLossPct,
			AvgPowerW:    mean.AvgPowerW,
			PowerEff:     mean.PowerEff,
			Reconfigs:    mean.Reconfigs,
			Switches:     mean.Switches,
		})
	}
	return res, nil
}

// WriteText renders the sweep.
func (r *AblationCriteriaResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Ablation: Fixed/Flexible criteria multiple (paper uses 10x) — %s, scenario 1+2\n", r.Pair)
	fmt.Fprintf(w, "%-10s %-8s %-9s %-11s %-9s %-9s\n", "multiple", "loss%", "power W", "inf/J", "switches", "reconfigs")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10.0f %-8.2f %-9.3f %-11.1f %-9d %-9d\n",
			row.Multiple, row.FrameLossPct, row.AvgPowerW, row.PowerEff, row.Switches, row.Reconfigs)
	}
}

// AblationThresholdRow is one accuracy-threshold setting.
type AblationThresholdRow struct {
	Threshold    float64
	FrameLossPct float64
	QoEPct       float64
	AvgAccuracy  float64
	PowerEff     float64
}

// AblationThresholdResult sweeps the user accuracy threshold. The paper
// (§VI-B) predicts larger thresholds yield larger performance/efficiency
// gains at the price of accuracy.
type AblationThresholdResult struct {
	Pair Pair
	Rows []AblationThresholdRow
}

// AblationThreshold runs the sweep under the unpredictable scenario.
func AblationThreshold(thresholds []float64, runs int, seed int64) (*AblationThresholdResult, error) {
	if len(thresholds) == 0 {
		thresholds = []float64{0.02, 0.05, 0.10, 0.20, 0.30}
	}
	if runs <= 0 {
		return nil, fmt.Errorf("experiments: ablation needs a positive run count")
	}
	p := Pairs[0]
	lib, err := Lib(p)
	if err != nil {
		return nil, err
	}
	res := &AblationThresholdResult{Pair: p}
	scn, err := edge.NamedScenario("paper2")
	if err != nil {
		return nil, err
	}
	for _, th := range thresholds {
		cfg := manager.DefaultConfig()
		cfg.AccuracyThreshold = th
		mean, _, err := edge.RunRepeated(scn, func() (edge.Controller, error) {
			mgr, err := manager.New(lib, cfg)
			if err != nil {
				return nil, err
			}
			return edge.NewAdaFlow(mgr), nil
		}, runs, seed, edge.SimConfig{})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationThresholdRow{
			Threshold:    th,
			FrameLossPct: mean.FrameLossPct,
			QoEPct:       mean.QoEPct,
			AvgAccuracy:  mean.AvgAccuracy,
			PowerEff:     mean.PowerEff,
		})
	}
	return res, nil
}

// WriteText renders the sweep.
func (r *AblationThresholdResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Ablation: accuracy threshold (paper uses 10%%) — %s, scenario 2\n", r.Pair)
	fmt.Fprintf(w, "%-11s %-8s %-8s %-10s %-10s\n", "threshold%", "loss%", "QoE%", "accuracy%", "inf/J")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-11.0f %-8.2f %-8.2f %-10.2f %-10.1f\n",
			row.Threshold*100, row.FrameLossPct, row.QoEPct, row.AvgAccuracy*100, row.PowerEff)
	}
}

// AblationPolicyRow compares the manager's tie-breaking policies.
type AblationPolicyRow struct {
	Policy       string
	FrameLossPct float64
	QoEPct       float64
	AvgAccuracy  float64
	AvgPowerW    float64
	PowerEff     float64
}

// AblationPolicyResult contrasts the paper's accuracy-first selection with
// the energy-first variant (§IV-B2's "less energy or higher throughput").
type AblationPolicyResult struct {
	Pair Pair
	Rows []AblationPolicyRow
}

// AblationPolicy runs both policies under the stable scenario, where the
// server has slack to spend on either accuracy or energy.
func AblationPolicy(runs int, seed int64) (*AblationPolicyResult, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("experiments: ablation needs a positive run count")
	}
	p := Pairs[0]
	lib, err := Lib(p)
	if err != nil {
		return nil, err
	}
	scn, err := edge.NamedScenario("paper1")
	if err != nil {
		return nil, err
	}
	res := &AblationPolicyResult{Pair: p}
	for _, pol := range []manager.Policy{manager.PolicyThroughput, manager.PolicyEnergy} {
		cfg := manager.DefaultConfig()
		cfg.Policy = pol
		mean, _, err := edge.RunRepeated(scn, func() (edge.Controller, error) {
			mgr, err := manager.New(lib, cfg)
			if err != nil {
				return nil, err
			}
			return edge.NewAdaFlow(mgr), nil
		}, runs, seed, edge.SimConfig{})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationPolicyRow{
			Policy:       pol.String(),
			FrameLossPct: mean.FrameLossPct,
			QoEPct:       mean.QoEPct,
			AvgAccuracy:  mean.AvgAccuracy,
			AvgPowerW:    mean.AvgPowerW,
			PowerEff:     mean.PowerEff,
		})
	}
	return res, nil
}

// WriteText renders the policy comparison.
func (r *AblationPolicyResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Ablation: model-selection policy — %s, scenario 1\n", r.Pair)
	fmt.Fprintf(w, "%-12s %-8s %-8s %-10s %-9s %-10s\n", "policy", "loss%", "QoE%", "accuracy%", "power W", "inf/J")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %-8.2f %-8.2f %-10.2f %-9.3f %-10.1f\n",
			row.Policy, row.FrameLossPct, row.QoEPct, row.AvgAccuracy*100, row.AvgPowerW, row.PowerEff)
	}
}

// AblationQueueRow is one buffer-size setting.
type AblationQueueRow struct {
	QueueFrames  float64
	FINNLossPct  float64
	AdaLossPct   float64
	AdaLatencyMS float64
}

// AblationQueueResult sweeps the server's frame buffer — the one
// calibrated simulation knob of the edge model (DESIGN.md) — showing how
// buffering trades frame loss against queueing latency.
type AblationQueueResult struct {
	Pair Pair
	Rows []AblationQueueRow
}

// AblationQueue runs the sweep under the unpredictable scenario.
func AblationQueue(sizes []float64, runs int, seed int64) (*AblationQueueResult, error) {
	if len(sizes) == 0 {
		sizes = []float64{4, 16, 64, 256}
	}
	if runs <= 0 {
		return nil, fmt.Errorf("experiments: ablation needs a positive run count")
	}
	p := Pairs[0]
	lib, err := Lib(p)
	if err != nil {
		return nil, err
	}
	scn, err := edge.NamedScenario("paper2")
	if err != nil {
		return nil, err
	}
	res := &AblationQueueResult{Pair: p}
	for _, q := range sizes {
		cfg := edge.SimConfig{AdmissionConfig: edge.AdmissionConfig{QueueFrames: q}}
		fn, _, err := edge.RunRepeated(scn, func() (edge.Controller, error) {
			return edge.NewStaticFINN(lib), nil
		}, runs, seed, cfg)
		if err != nil {
			return nil, err
		}
		ada, _, err := edge.RunRepeated(scn, func() (edge.Controller, error) {
			mgr, err := manager.New(lib, manager.DefaultConfig())
			if err != nil {
				return nil, err
			}
			return edge.NewAdaFlow(mgr), nil
		}, runs, seed, cfg)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationQueueRow{
			QueueFrames:  q,
			FINNLossPct:  fn.FrameLossPct,
			AdaLossPct:   ada.FrameLossPct,
			AdaLatencyMS: ada.AvgLatencyMS,
		})
	}
	return res, nil
}

// WriteText renders the sweep.
func (r *AblationQueueResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Ablation: server frame buffer — %s, scenario 2 (default 16 frames)\n", r.Pair)
	fmt.Fprintf(w, "%-8s %-12s %-12s %-14s\n", "frames", "FINN loss%", "Ada loss%", "Ada latency ms")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8.0f %-12.2f %-12.2f %-14.2f\n",
			row.QueueFrames, row.FINNLossPct, row.AdaLossPct, row.AdaLatencyMS)
	}
	fmt.Fprintln(w, "(deeper buffers absorb bursts — lower loss, higher queueing delay)")
}

// AblationConstraintsResult quantifies what dataflow-aware pruning buys:
// how many freely-pruned model versions would violate the accelerator's
// folding constraints and therefore not load at all.
type AblationConstraintsResult struct {
	Pair          Pair
	Rates         []float64
	FreeViolates  int // freely pruned versions rejected by the flexible accelerator
	AwareViolates int // dataflow-aware versions rejected (must be 0)
	Total         int
}

// AblationConstraintRelax compares free pruning against dataflow-aware
// pruning over the paper sweep.
func AblationConstraintRelax() (*AblationConstraintsResult, error) {
	p := Pairs[0]
	m, err := p.build()
	if err != nil {
		return nil, err
	}
	fold := finn.DefaultFolding(m)
	gran, err := fold.ChannelGranularity(m)
	if err != nil {
		return nil, err
	}
	flexDF, err := finn.Map(m, fold, finn.Options{Flexible: true})
	if err != nil {
		return nil, err
	}
	res := &AblationConstraintsResult{Pair: p}
	free := prune.Ones(len(gran))
	for _, rate := range library.PaperRates() {
		if rate == 0 {
			continue
		}
		res.Rates = append(res.Rates, rate)
		res.Total++
		pf, _, err := prune.Shrink(m, rate, free)
		if err != nil {
			return nil, err
		}
		if err := flexDF.SetChannels(pf.ConvChannels()); err != nil {
			res.FreeViolates++
		} else if err := flexDF.SetChannels(flexDF.WorstChannels); err != nil {
			return nil, err
		}
		pa, _, err := prune.Shrink(m, rate, gran)
		if err != nil {
			return nil, err
		}
		if err := flexDF.SetChannels(pa.ConvChannels()); err != nil {
			res.AwareViolates++
		} else if err := flexDF.SetChannels(flexDF.WorstChannels); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// WriteText renders the comparison.
func (r *AblationConstraintsResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Ablation: dataflow-aware pruning constraints — %s\n", r.Pair)
	fmt.Fprintf(w, "freely pruned versions violating folding constraints: %d/%d\n", r.FreeViolates, r.Total)
	fmt.Fprintf(w, "dataflow-aware versions violating constraints:        %d/%d\n", r.AwareViolates, r.Total)
}
