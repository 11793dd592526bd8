package experiments

import (
	"fmt"
	"io"

	"repro/internal/edge"
	"repro/internal/manager"
	"repro/internal/metrics"
)

// Table1Row is one dataset/model × scenario row of Table I.
type Table1Row struct {
	Pair     Pair
	Scenario string

	AdaFlow metrics.RunStats
	FINN    metrics.RunStats

	// PowerEffRatio is AdaFlow's power efficiency (inferences per joule)
	// relative to original FINN — the table's right-most column.
	PowerEffRatio float64

	// Paper reference values for side-by-side printing.
	PaperAdaLoss, PaperFINNLoss float64
	PaperAdaQoE, PaperFINNQoE   float64
	PaperEffRatio               float64
}

// Table1Result is the full table.
type Table1Result struct {
	Rows []Table1Row
	Runs int
}

// paperTable1 carries the published numbers (Table I).
var paperTable1 = map[string][5]float64{
	// key: pair/scenario → {adaLoss, finnLoss, adaQoE, finnQoE, effRatio}
	"cifar10/CNVW2A2/scenario1": {0, 23, 81.74, 68.32, 1.39},
	"cifar10/CNVW2A2/scenario2": {5.11, 30.99, 78.54, 61.23, 1.25},
	"gtsrb/CNVW2A2/scenario1":   {0, 23.53, 65.12, 53.55, 1.40},
	"gtsrb/CNVW2A2/scenario2":   {3.64, 29.91, 63.21, 49.08, 1.30},
	"cifar10/CNVW1A2/scenario1": {12.27, 23.68, 73.58, 66.63, 1.17},
	"cifar10/CNVW1A2/scenario2": {21.89, 31.73, 66.12, 60.47, 1.01},
	"gtsrb/CNVW1A2/scenario1":   {0, 22.57, 65.85, 69.86, 1.35},
	"gtsrb/CNVW1A2/scenario2":   {4.14, 31.36, 62.88, 47.95, 1.23},
}

// Table1 regenerates Table I: frame loss, QoE, power, and power efficiency
// for AdaFlow vs original FINN across all pairs and scenarios, averaged
// over the given number of runs (the paper uses 100).
func Table1(runs int, seed int64) (*Table1Result, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("experiments: table1 needs a positive run count")
	}
	// Build the four libraries concurrently before the (internally
	// parallel) simulation sweep; row order below stays deterministic.
	if err := WarmLibraries(Pairs); err != nil {
		return nil, err
	}
	res := &Table1Result{Runs: runs}
	for _, p := range Pairs {
		lib, err := Lib(p)
		if err != nil {
			return nil, err
		}
		for _, name := range []string{"paper1", "paper2"} {
			scn, err := edge.NamedScenario(name)
			if err != nil {
				return nil, err
			}
			ada, _, err := edge.RunRepeated(scn, func() (edge.Controller, error) {
				mgr, err := manager.New(lib, manager.DefaultConfig())
				if err != nil {
					return nil, err
				}
				return edge.NewAdaFlow(mgr), nil
			}, runs, seed, edge.SimConfig{})
			if err != nil {
				return nil, err
			}
			fn, _, err := edge.RunRepeated(scn, func() (edge.Controller, error) {
				return edge.NewStaticFINN(lib), nil
			}, runs, seed, edge.SimConfig{})
			if err != nil {
				return nil, err
			}
			row := Table1Row{Pair: p, Scenario: scn.Name, AdaFlow: ada, FINN: fn}
			if fn.PowerEff > 0 {
				row.PowerEffRatio = ada.PowerEff / fn.PowerEff
			}
			if ref, ok := paperTable1[p.Dataset+"/"+p.ModelName+"/"+scn.Name]; ok {
				row.PaperAdaLoss, row.PaperFINNLoss = ref[0], ref[1]
				row.PaperAdaQoE, row.PaperFINNQoE = ref[2], ref[3]
				row.PaperEffRatio = ref[4]
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// WriteText renders the table with paper values alongside.
func (r *Table1Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Table I: frame loss, QoE, power, power efficiency (avg of %d runs)\n", r.Runs)
	fmt.Fprintf(w, "%-18s %-10s | %-21s | %-21s | %-17s | %-10s\n",
		"dataset/model", "scenario", "loss%% ada/finn (paper)", "QoE ada/finn (paper)", "power ada/finn W", "eff (paper)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-18s %-10s | %5.2f/%5.2f (%5.2f/%5.2f) | %5.2f/%5.2f (%5.2f/%5.2f) | %5.2f/%5.2f       | %.2fx (%.2fx)\n",
			row.Pair, row.Scenario,
			row.AdaFlow.FrameLossPct, row.FINN.FrameLossPct, row.PaperAdaLoss, row.PaperFINNLoss,
			row.AdaFlow.QoEPct, row.FINN.QoEPct, row.PaperAdaQoE, row.PaperFINNQoE,
			row.AdaFlow.AvgPowerW, row.FINN.AvgPowerW,
			row.PowerEffRatio, row.PaperEffRatio)
	}
	var effSum, procRatio float64
	for _, row := range r.Rows {
		effSum += row.PowerEffRatio
		if row.FINN.Processed > 0 {
			procRatio += row.AdaFlow.Processed / row.FINN.Processed
		}
	}
	n := float64(len(r.Rows))
	fmt.Fprintf(w, "averages: AdaFlow processes %.2fx more inferences (paper 1.3x), power efficiency %.2fx (paper 1.27x)\n",
		procRatio/n, effSum/n)
}
