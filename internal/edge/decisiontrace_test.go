package edge

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/manager"
	"repro/internal/obs"
)

// TestGoldenDecisionTraces pins the Runtime Manager's complete decision
// stream — every decide/commit/rollback event with its candidate set,
// threshold, and switch-interval verdict — for the three paper scenarios.
// A diff means decision semantics changed: inspect it, then refresh with
//
//	go test ./internal/edge/ -run Golden -update
func TestGoldenDecisionTraces(t *testing.T) {
	lib := paperLib(t)
	cases := []struct {
		file string
		scn  Scenario
	}{
		{file: "decisions_scenario1.golden", scn: scenario(t, "paper1")},
		{file: "decisions_scenario2.golden", scn: scenario(t, "paper2")},
		{file: "decisions_scenario12.golden", scn: scenario(t, "paper12")},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			var buf bytes.Buffer
			sink := obs.NewJSONL(&buf)
			// Decision events are never sampled, so the filter to the
			// manager category makes the trace sampling-independent.
			tr := obs.New(obs.Filter(sink, func(ev obs.Event) bool {
				return ev.Cat == obs.ManagerCat
			}))
			if _, err := Run(tc.scn, adaflow(t, lib), SimConfig{Seed: 1}, WithTracer(tr)); err != nil {
				t.Fatal(err)
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			got := buf.String()
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
				t.Errorf("decision trace mismatch for %s:\n%s", tc.file, diffLines(string(want), got))
			}
		})
	}
}

// TestGoldenDecisionTracesFamilies pins the decision stream for every
// new scenario family in the workload zoo under both accelerator-family
// rules. The interval-policy traces prove the grammar-built scenarios
// drive the paper's rule deterministically; the rate-policy traces pin
// the sustained-rate verdicts (policy/sustained/stable attributes).
// Refresh after an intentional semantic change with
//
//	go test ./internal/edge/ -run Golden -update
func TestGoldenDecisionTracesFamilies(t *testing.T) {
	lib := paperLib(t)
	for _, family := range []string{"diurnal", "flash", "heavytail", "multicam"} {
		for _, policy := range []manager.SwitchPolicy{manager.SwitchInterval, manager.SwitchRate} {
			family, policy := family, policy
			t.Run(family+"_"+policy.String(), func(t *testing.T) {
				scn, err := NamedScenario(family)
				if err != nil {
					t.Fatal(err)
				}
				cfg := manager.DefaultConfig()
				cfg.SwitchPolicy = policy
				mgr, err := manager.New(lib, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				sink := obs.NewJSONL(&buf)
				tr := obs.New(obs.Filter(sink, func(ev obs.Event) bool {
					return ev.Cat == obs.ManagerCat
				}))
				if _, err := Run(scn, NewAdaFlow(mgr), SimConfig{Seed: 1}, WithTracer(tr)); err != nil {
					t.Fatal(err)
				}
				if err := sink.Flush(); err != nil {
					t.Fatal(err)
				}
				got := buf.String()
				path := filepath.Join("testdata", "decisions_"+family+"_"+policy.String()+".golden")
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
					t.Errorf("decision trace mismatch for %s/%s:\n%s", family, policy, diffLines(string(want), got))
				}
			})
		}
	}
}

// TestTracingBitIdentical checks the tentpole's determinism contract at
// the edge-server level: full-fat tracing (unit sampling, all categories)
// must not change a single bit of the results, in either simulation mode.
func TestTracingBitIdentical(t *testing.T) {
	lib := paperLib(t)
	modes := []struct {
		name string
		run  func(ctl Controller, opts ...RunOption) (*Result, error)
	}{
		{"fluid", func(ctl Controller, opts ...RunOption) (*Result, error) {
			return Run(scenario(t, "paper12"), ctl, SimConfig{Seed: 3, FaultConfig: FaultConfig{Plan: chaosPlan(t), Seed: 7}}, opts...)
		}},
		{"event-level", func(ctl Controller, opts ...RunOption) (*Result, error) {
			return RunEventLevel(scenario(t, "paper12"), ctl, SimConfig{Seed: 3, FaultConfig: FaultConfig{Plan: chaosPlan(t), Seed: 7}}, opts...)
		}},
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			plain, err := mode.run(adaflow(t, lib))
			if err != nil {
				t.Fatal(err)
			}
			ring := obs.NewRing(128)
			traced, err := mode.run(adaflow(t, lib), WithTracer(obs.New(ring, obs.Sample(1))))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain.RunStats, traced.RunStats) {
				t.Errorf("tracing changed RunStats:\nplain  %+v\ntraced %+v", plain.RunStats, traced.RunStats)
			}
			if !reflect.DeepEqual(plain.Switches, traced.Switches) {
				t.Errorf("tracing changed the switch timeline")
			}
			if !reflect.DeepEqual(plain.FaultEvents, traced.FaultEvents) {
				t.Errorf("tracing changed the fault timeline")
			}
			if ring.Total() == 0 {
				t.Error("traced run emitted no events")
			}
		})
	}
}

// TestRunRepeatedTraced checks per-run tracer children: the aggregate
// snapshot sees every run exactly once, tagged run=i, and the mean is
// unchanged by tracing.
func TestRunRepeatedTraced(t *testing.T) {
	lib := paperLib(t)
	mk := func() (Controller, error) {
		ctl := adaflow(t, lib)
		return ctl, nil
	}
	const n = 4
	mean, _, err := RunRepeated(scenario(t, "paper1"), mk, n, 5, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	snap := obs.NewSnapshot()
	ring := obs.NewRing(4096)
	tr := obs.New(obs.Multi(snap, ring), obs.Sample(1000))
	meanTraced, _, err := RunRepeated(scenario(t, "paper1"), mk, n, 5, SimConfig{}, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mean, meanTraced) {
		t.Errorf("tracing changed the repeated-run mean:\nplain  %+v\ntraced %+v", mean, meanTraced)
	}
	if got := snap.Count(obs.EdgeCat, "run"); got != n {
		t.Errorf("edge/run summaries = %d, want %d", got, n)
	}
	seen := map[int]bool{}
	for _, ev := range ring.Events() {
		if ev.Cat != obs.EdgeCat || ev.Name != "run" {
			continue
		}
		a, ok := ev.Attr("run")
		if !ok {
			t.Fatalf("edge/run event missing run attribute: %+v", ev)
		}
		seen[int(a.Float())] = true
	}
	for i := 0; i < n; i++ {
		if !seen[i] {
			t.Errorf("no edge/run summary tagged run=%d", i)
		}
	}
}
