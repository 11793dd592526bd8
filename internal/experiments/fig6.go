package experiments

import (
	"fmt"
	"io"

	"repro/internal/edge"
	"repro/internal/manager"
	"repro/internal/parallel"
	"repro/internal/plot"
)

// Fig6Series is one curve of Figure 6: a scenario run's traces for AdaFlow
// or FINN, with AdaFlow's switch events annotated.
type Fig6Series struct {
	Label    string
	Scenario string
	Stats    edgeStats
	Trace    []edge.TracePoint
	Switches []edge.SwitchEvent
}

type edgeStats struct {
	FrameLossPct float64
	QoEPct       float64
	Switches     int
	Reconfigs    int
}

// Fig6Result carries the six curves (AdaFlow and FINN under Scenarios 1, 2
// and 1+2) of Figures 6(a) (frame loss) and 6(b) (QoE).
type Fig6Result struct {
	Pair   Pair
	Series []Fig6Series
}

// Fig6 regenerates the Figure 6 traces for CIFAR-10/CNVW2A2 from a single
// representative run per scenario (the paper plots the first of its 100
// runs).
func Fig6(seed int64) (*Fig6Result, error) {
	p := Pairs[0]
	lib, err := Lib(p)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{Pair: p}
	// The three scenarios are independent simulations over the read-only
	// library; run them concurrently into indexed slots and assemble the
	// series in scenario order, so output is identical to the serial loop.
	names := []string{"paper1", "paper2", "paper12"}
	type cell struct{ ada, finn Fig6Series }
	cells := make([]cell, len(names))
	err = parallel.ForEachErr(len(names), MaxWorkers(), func(i int) error {
		scn, err := edge.NamedScenario(names[i])
		if err != nil {
			return err
		}
		mgr, err := manager.New(lib, manager.DefaultConfig())
		if err != nil {
			return err
		}
		ada, err := edge.Run(scn, edge.NewAdaFlow(mgr), edge.SimConfig{Seed: seed, RecordTrace: true})
		if err != nil {
			return err
		}
		cells[i].ada = Fig6Series{
			Label: "AdaFlow", Scenario: scn.Name,
			Stats: edgeStats{
				FrameLossPct: ada.FrameLossPct, QoEPct: ada.QoEPct,
				Switches: ada.RunStats.Switches, Reconfigs: ada.RunStats.Reconfigs,
			},
			Trace: ada.Trace, Switches: ada.Switches,
		}
		fn, err := edge.Run(scn, edge.NewStaticFINN(lib), edge.SimConfig{Seed: seed, RecordTrace: true})
		if err != nil {
			return err
		}
		cells[i].finn = Fig6Series{
			Label: "Orig. FINN", Scenario: scn.Name,
			Stats: edgeStats{FrameLossPct: fn.FrameLossPct, QoEPct: fn.QoEPct},
			Trace: fn.Trace,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		res.Series = append(res.Series, c.ada, c.finn)
	}
	return res, nil
}

// WriteText renders run summaries and AdaFlow's switch timeline.
func (r *Fig6Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Figure 6: frame loss (a) and QoE (b) traces — %s\n", r.Pair)
	fmt.Fprintf(w, "%-12s %-12s %-10s %-8s %-9s %-9s\n", "series", "scenario", "loss%", "QoE%", "switches", "reconfigs")
	for _, s := range r.Series {
		fmt.Fprintf(w, "%-12s %-12s %-10.2f %-8.2f %-9d %-9d\n",
			s.Label, s.Scenario, s.Stats.FrameLossPct, s.Stats.QoEPct, s.Stats.Switches, s.Stats.Reconfigs)
	}
	// ASCII rendition of the Fig. 6(a) curves for scenario 1+2.
	var curves []plot.Series
	for _, s := range r.Series {
		if s.Scenario != "scenario1+2" {
			continue
		}
		ys := make([]float64, 0, len(s.Trace)/10)
		for i := 0; i < len(s.Trace); i += 10 {
			ys = append(ys, s.Trace[i].LossPct)
		}
		mark := '#'
		if s.Label == "AdaFlow" {
			mark = '*'
		}
		curves = append(curves, plot.Series{Name: s.Label, Y: ys, Rune: mark})
	}
	if len(curves) > 0 {
		if err := plot.Lines(w, plot.Config{
			Title: "Fig. 6(a) sketch — cumulative frame loss, scenario 1+2",
			Width: 64, Height: 10, YLabel: "loss %", XLabel: "time 0→25 s",
		}, curves); err != nil {
			fmt.Fprintf(w, "(plot error: %v)\n", err)
		}
	}
	for _, s := range r.Series {
		if s.Label != "AdaFlow" || s.Scenario != "scenario1+2" {
			continue
		}
		fmt.Fprintln(w, "AdaFlow scenario 1+2 switch timeline (paper: fixed switches early, change of dataflow at the 15 s phase shift, fast switches after):")
		for _, ev := range s.Switches {
			kind := "fast"
			if ev.Reconfigured {
				kind = "reconf"
			}
			fmt.Fprintf(w, "  t=%6.2fs  %-18s (%s)\n", ev.Time, ev.Label, kind)
		}
	}
}
