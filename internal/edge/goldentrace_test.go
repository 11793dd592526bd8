package edge

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
)

// Regenerate the golden traces with:
//
//	go test ./internal/edge/ -run Golden -update
var update = flag.Bool("update", false, "rewrite golden trace files")

// renderGolden serializes a Result deterministically: final stats, the
// switch and fault timelines, and every 25th trace point, all at %.6g so
// the files stay stable across same-architecture runs and small enough to
// review.
func renderGolden(res *Result) string {
	var b strings.Builder
	g := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	s := res.RunStats
	g("# stats\n")
	g("arrived %.6g\nprocessed %.6g\ndropped %.6g\n", s.Arrived, s.Processed, s.Dropped)
	g("frameloss_pct %.6g\nqoe_pct %.6g\navg_accuracy %.6g\n", s.FrameLossPct, s.QoEPct, s.AvgAccuracy)
	g("avg_power_w %.6g\nenergy_j %.6g\n", s.AvgPowerW, s.EnergyJ)
	g("switches %d\nreconfigs %d\n", s.Switches, s.Reconfigs)
	g("# fault counts\n")
	g("reconfig_failures %d\nreconfig_stalls %d\nsensor_dropouts %d\n",
		s.Faults.ReconfigFailures, s.Faults.ReconfigStalls, s.Faults.SensorDropouts)
	g("sensor_spikes %d\naccuracy_drifts %d\ndegradations %d\n",
		s.Faults.SensorSpikes, s.Faults.AccuracyDrifts, s.Faults.Degradations)

	g("# switches\n")
	for _, sw := range res.Switches {
		g("%.6g %s reconf=%v\n", sw.Time, sw.Label, sw.Reconfigured)
	}
	g("# faults\n")
	for _, fe := range res.FaultEvents {
		g("%.6g %s %s\n", fe.Time, fe.Kind, fe.Detail)
	}
	g("# trace t in proc loss qoe acc power arr_cum proc_cum drop_cum\n")
	for i, tp := range res.Trace {
		if i%25 != 0 {
			continue
		}
		g("%.6g %.6g %.6g %.6g %.6g %.6g %.6g %.6g %.6g %.6g\n",
			tp.Time, tp.IncomingFPS, tp.ProcessedFPS, tp.LossPct, tp.QoEPct,
			tp.Accuracy, tp.PowerW, tp.ArrivedCum, tp.ProcessedCum, tp.DroppedCum)
	}
	return b.String()
}

// chaosPlan is the seeded fault plan of the golden chaos scenario (and the
// README example): a reconfiguration-failure window, mild stalls, and
// sensor/evaluator noise throughout.
func chaosPlan(t testing.TB) *fault.Plan {
	t.Helper()
	plan, err := fault.ParsePlan(
		"reconfig-fail:p=1,start=4,end=8;reconfig-stall:p=0.25;" +
			"sensor-dropout:p=0.1;sensor-spike:p=0.2,mag=0.4;accuracy-drift:p=0.05,mag=-0.03")
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestGoldenTraces locks the Fig. 6 scenario traces (fault-free, AdaFlow
// controller) and one seeded chaos run against golden files in testdata/.
// A diff means simulation semantics changed: inspect it, then refresh with
// -update if intentional.
func TestGoldenTraces(t *testing.T) {
	lib := paperLib(t)
	cases := []struct {
		file  string
		scn   Scenario
		plan  *fault.Plan
		fseed int64
	}{
		{file: "scenario1.golden", scn: scenario(t, "paper1")},
		{file: "scenario2.golden", scn: scenario(t, "paper2")},
		{file: "scenario12.golden", scn: scenario(t, "paper12")},
		{file: "scenario12_chaos.golden", scn: scenario(t, "paper12"), plan: chaosPlan(t), fseed: 7},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			res, err := Run(tc.scn, adaflow(t, lib), SimConfig{
				Seed:        1,
				RecordTrace: true,
				FaultConfig: FaultConfig{Plan: tc.plan, Seed: tc.fseed},
			})
			if err != nil {
				t.Fatal(err)
			}
			got := renderGolden(res)
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("golden mismatch for %s:\n%s", tc.file, diffLines(string(want), got))
			}
		})
	}
}

// diffLines reports the first few differing lines between two renderings.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var lw, lg string
		if i < len(w) {
			lw = w[i]
		}
		if i < len(g) {
			lg = g[i]
		}
		if lw != lg {
			fmt.Fprintf(&b, "line %d:\n  want: %s\n  got:  %s\n", i+1, lw, lg)
			if shown++; shown >= 5 {
				b.WriteString("  ...\n")
				break
			}
		}
	}
	return b.String()
}
