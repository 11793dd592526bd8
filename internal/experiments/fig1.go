package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/edge"
	"repro/internal/parallel"
)

// Fig1aPoint is one pruning-rate sample of Figure 1(a): accuracy and FPS
// vs pruning rate for CNVW2A2 on CIFAR-10 over FINN.
type Fig1aPoint struct {
	NominalRate   float64
	EffectiveRate float64
	Accuracy      float64 // [0,1]
	FPS           float64 // fixed accelerator throughput
}

// Fig1aResult is the full sweep.
type Fig1aResult struct {
	Pair   Pair
	Points []Fig1aPoint
}

// Fig1a regenerates Figure 1(a).
func Fig1a() (*Fig1aResult, error) {
	p := Pairs[0] // CNVW2A2 / CIFAR-10
	lib, err := Lib(p)
	if err != nil {
		return nil, err
	}
	res := &Fig1aResult{Pair: p}
	for _, e := range lib.Entries {
		res.Points = append(res.Points, Fig1aPoint{
			NominalRate:   e.NominalRate,
			EffectiveRate: e.EffectiveRate,
			Accuracy:      e.Accuracy,
			FPS:           e.FixedFPS,
		})
	}
	return res, nil
}

// WriteText renders the sweep as a table.
func (r *Fig1aResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Figure 1(a): Accuracy and FPS vs. pruning rate — %s on FINN\n", r.Pair)
	fmt.Fprintf(w, "%-8s %-9s %-10s %-10s\n", "rate", "eff.rate", "accuracy%", "FPS")
	for _, pt := range r.Points {
		fmt.Fprintf(w, "%-8.2f %-9.3f %-10.2f %-10.1f\n",
			pt.NominalRate, pt.EffectiveRate, pt.Accuracy*100, pt.FPS)
	}
}

// Fig1bSeries is one server line of Figure 1(b).
type Fig1bSeries struct {
	Label        string
	ReconfigMS   float64 // -1 for the no-pruning baseline
	FrameLossPct float64
	Trace        []edge.TracePoint
}

// Fig1bResult is the reconfiguration-time study.
type Fig1bResult struct {
	Pair     Pair
	Scenario string
	Series   []Fig1bSeries
}

// Fig1bReconfigTimesMS are the figure's swept reconfiguration times; 145 ms
// is the measured CNVW2A2 FINN reconfiguration on a ZCU104 (the starred
// point), 0 the ideal switcher.
var Fig1bReconfigTimesMS = []float64{0, 72, 145, 290, 362}

// Fig1b regenerates Figure 1(b): workload and frame loss for a no-pruning
// server vs pruned-model switching via FPGA reconfigurations of varied
// times, under the unpredictable workload.
func Fig1b(runs int, seed int64) (*Fig1bResult, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("experiments: fig1b needs a positive run count")
	}
	p := Pairs[0]
	lib, err := Lib(p)
	if err != nil {
		return nil, err
	}
	scn, err := edge.NamedScenario("paper2") // high-variability workload exposes the trade-off
	if err != nil {
		return nil, err
	}
	res := &Fig1bResult{Pair: p, Scenario: scn.Name}

	// No-pruning baseline.
	mean, _, err := edge.RunRepeated(scn, func() (edge.Controller, error) {
		return edge.NewStaticFINN(lib), nil
	}, runs, seed, edge.SimConfig{})
	if err != nil {
		return nil, err
	}
	trace, err := edge.Run(scn, edge.NewStaticFINN(lib), edge.SimConfig{Seed: seed, RecordTrace: true})
	if err != nil {
		return nil, err
	}
	res.Series = append(res.Series, Fig1bSeries{
		Label: "No Pruning", ReconfigMS: -1,
		FrameLossPct: mean.FrameLossPct, Trace: trace.Trace,
	})

	// The swept reconfiguration times are independent series over the
	// read-only library; fan out into indexed slots, append in sweep order.
	series := make([]Fig1bSeries, len(Fig1bReconfigTimesMS))
	err = parallel.ForEachErr(len(Fig1bReconfigTimesMS), MaxWorkers(), func(i int) error {
		ms := Fig1bReconfigTimesMS[i]
		rt := time.Duration(ms * float64(time.Millisecond))
		mk := func() (edge.Controller, error) {
			return edge.NewPruningReconf(lib, 0.10, rt)
		}
		mean, _, err := edge.RunRepeated(scn, mk, runs, seed, edge.SimConfig{})
		if err != nil {
			return err
		}
		ctl, err := mk()
		if err != nil {
			return err
		}
		tr, err := edge.Run(scn, ctl, edge.SimConfig{Seed: seed, RecordTrace: true})
		if err != nil {
			return err
		}
		series[i] = Fig1bSeries{
			Label:        fmt.Sprintf("Pruning Reconf. %gms", ms),
			ReconfigMS:   ms,
			FrameLossPct: mean.FrameLossPct,
			Trace:        tr.Trace,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Series = append(res.Series, series...)
	return res, nil
}

// WriteText renders the frame-loss summary per series.
func (r *Fig1bResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Figure 1(b): frame loss vs. model-switch reconfiguration time — %s, %s\n", r.Pair, r.Scenario)
	fmt.Fprintf(w, "%-26s %-12s\n", "server", "frame loss %")
	for _, s := range r.Series {
		fmt.Fprintf(w, "%-26s %-12.2f\n", s.Label, s.FrameLossPct)
	}
	fmt.Fprintln(w, "(paper shape: loss shrinks as reconfiguration gets faster; slow reconfiguration loses more than never switching)")
}
