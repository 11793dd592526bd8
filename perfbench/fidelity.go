package main

import (
	"fmt"
	"io"
	"math"

	"repro/internal/experiments"
)

// fidelityRuns is how many simulation runs each Table I cell averages.
const fidelityRuns = 10

// printFidelity prints the simulator's mean absolute error against the
// paper's published Table I, in percentage points of frame loss and QoE,
// over both the AdaFlow and the FINN columns of every row.
func printFidelity(out io.Writer, seed int64) error {
	t, err := experiments.Table1(fidelityRuns, seed)
	if err != nil {
		return err
	}
	var loss, qoe float64
	for _, r := range t.Rows {
		loss += math.Abs(r.AdaFlow.FrameLossPct-r.PaperAdaLoss) + math.Abs(r.FINN.FrameLossPct-r.PaperFINNLoss)
		qoe += math.Abs(r.AdaFlow.QoEPct-r.PaperAdaQoE) + math.Abs(r.FINN.QoEPct-r.PaperFINNQoE)
	}
	n := float64(2 * len(t.Rows))
	fmt.Fprintf(out, "# fidelity: simulator vs paper Table I (%d cells, %d runs each): MAE loss %.2f pp, QoE %.2f pp."+
		" Nothing else in the model is validated against hardware.\n", int(n), fidelityRuns, loss/n, qoe/n)
	return nil
}
