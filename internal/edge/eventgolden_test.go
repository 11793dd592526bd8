package edge

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adapt"
)

// renderEventGolden serializes an event-level Result at full precision:
// the complete RunStats (drop causes, batch, adapt and latency included),
// the switch timeline and the fault timeline.
func renderEventGolden(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# stats\n%+v\n# switches\n", res.RunStats)
	for _, sw := range res.Switches {
		fmt.Fprintf(&b, "%+v\n", sw)
	}
	b.WriteString("# faults\n")
	for _, fe := range res.FaultEvents {
		fmt.Fprintf(&b, "%+v\n", fe)
	}
	return b.String()
}

// TestGoldenEventLevel pins RunEventLevel against golden files in
// testdata/: a seeded chaos run, a deadline-bounded micro-batched run, a
// closed-loop drift-recovery run and Poisson arrivals. A diff means
// per-frame simulation semantics changed: inspect it, then refresh with
// -update if intentional.
func TestGoldenEventLevel(t *testing.T) {
	lib := paperLib(t)
	cases := []struct {
		file string
		scn  Scenario
		cfg  SimConfig
	}{
		{file: "event_scenario12_chaos.golden", scn: scenario(t, "paper12"), cfg: SimConfig{
			Seed:        1,
			BatchConfig: BatchConfig{Size: 1},
			FaultConfig: FaultConfig{Plan: chaosPlan(t), Seed: 7},
		}},
		{file: "event_scenario2_batch8.golden", scn: scenario(t, "paper2"), cfg: SimConfig{
			Seed:            1,
			AdmissionConfig: AdmissionConfig{Deadline: 0.1},
			BatchConfig:     BatchConfig{Size: 8},
		}},
		{file: "event_scenario12_adapt.golden", scn: scenario(t, "paper12"), cfg: SimConfig{
			Seed:        1,
			FaultConfig: FaultConfig{Plan: sustainedPlan(t), Seed: 1},
			Adapt:       adapt.Config{Enabled: true},
		}},
		{file: "event_scenario1_poisson.golden", scn: scenario(t, "paper1"), cfg: SimConfig{
			Seed:            1,
			PoissonArrivals: true,
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			res, err := RunEventLevel(tc.scn, adaflow(t, lib), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := renderEventGolden(res)
			path := filepath.Join("testdata", tc.file)
			if *update {
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
