package multiedge

import (
	"strings"
	"testing"

	"repro/internal/accuracy"
	"repro/internal/edge"
	"repro/internal/fault"
	"repro/internal/library"
	"repro/internal/manager"
	"repro/internal/model"
)

// scenario parses a registered scenario name.
func scenario(t testing.TB, name string) edge.Scenario {
	t.Helper()
	s, err := edge.NamedScenario(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func paperLib(t testing.TB) *library.Library {
	t.Helper()
	m, err := model.CNVW2A2("cifar10", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := accuracy.NewCalibrated("CNVW2A2", "cifar10")
	if err != nil {
		t.Fatal(err)
	}
	lib, err := library.Generate(m, library.Config{Evaluator: ev})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// TestNewPoolValidation: the plain pool form, Config{Boards, Manager} with
// no standby, rejects an empty pool and builds exactly the boards asked for.
func TestNewPoolValidation(t *testing.T) {
	lib := paperLib(t)
	if _, err := NewSupervisedPool(lib, Config{Boards: 0, Manager: manager.DefaultConfig()}); err == nil {
		t.Fatal("zero boards accepted")
	}
	p, err := NewSupervisedPool(lib, Config{Boards: 3, Manager: manager.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if p.Boards() != 3 {
		t.Fatalf("boards = %d", p.Boards())
	}
}

// TestPoolCapacityScales: a 2-board pool under a doubled workload performs
// at least as well as a single board under the nominal workload.
func TestPoolCapacityScales(t *testing.T) {
	lib := paperLib(t)

	single, _, err := edge.RunRepeated(scenario(t, "paper2"), func() (edge.Controller, error) {
		return NewSupervisedPool(lib, Config{Boards: 1, Manager: manager.DefaultConfig()})
	}, 10, 1, edge.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}

	doubled := scenario(t, "paper2")
	doubled.Devices *= 2
	pool2, _, err := edge.RunRepeated(doubled, func() (edge.Controller, error) {
		return NewSupervisedPool(lib, Config{Boards: 2, Manager: manager.DefaultConfig()})
	}, 10, 1, edge.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if pool2.FrameLossPct > single.FrameLossPct+2 {
		t.Fatalf("2-board pool at 2x load lost %.1f%%, single board at 1x lost %.1f%%",
			pool2.FrameLossPct, single.FrameLossPct)
	}
	if pool2.Processed < 1.8*single.Processed {
		t.Fatalf("2-board pool processed %.0f, want ≈2x %.0f", pool2.Processed, single.Processed)
	}
}

// TestPoolBeatsSingleOnOverload: when one board is overloaded, adding
// boards recovers the lost frames.
func TestPoolBeatsSingleOnOverload(t *testing.T) {
	lib := paperLib(t)
	scn := scenario(t, "paper2")
	scn.Devices = 60 // 1800 FPS mean: beyond any single-board version

	single, _, err := edge.RunRepeated(scn, func() (edge.Controller, error) {
		mgr, err := manager.New(lib, manager.DefaultConfig())
		if err != nil {
			return nil, err
		}
		return edge.NewAdaFlow(mgr), nil
	}, 5, 1, edge.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pool, _, err := edge.RunRepeated(scn, func() (edge.Controller, error) {
		return NewSupervisedPool(lib, Config{Boards: 4, Manager: manager.DefaultConfig()})
	}, 5, 1, edge.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if pool.FrameLossPct >= single.FrameLossPct {
		t.Fatalf("pool loss %.1f%% ≥ single %.1f%%", pool.FrameLossPct, single.FrameLossPct)
	}
	// More hardware burns more power in absolute terms.
	if pool.AvgPowerW <= single.AvgPowerW {
		t.Fatalf("pool power %.2f ≤ single %.2f", pool.AvgPowerW, single.AvgPowerW)
	}
}

// TestPoolSingleBoardMatchesAdaFlowController: a 1-board pool behaves like
// the plain AdaFlow controller (same decisions, same library).
func TestPoolSingleBoardMatchesAdaFlowController(t *testing.T) {
	lib := paperLib(t)
	mk1 := func() (edge.Controller, error) {
		return NewSupervisedPool(lib, Config{Boards: 1, Manager: manager.DefaultConfig()})
	}
	mk2 := func() (edge.Controller, error) {
		mgr, err := manager.New(lib, manager.DefaultConfig())
		if err != nil {
			return nil, err
		}
		return edge.NewAdaFlow(mgr), nil
	}
	a, _, err := edge.RunRepeated(scenario(t, "paper1"), mk1, 5, 9, edge.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := edge.RunRepeated(scenario(t, "paper1"), mk2, 5, 9, edge.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d := a.FrameLossPct - b.FrameLossPct; d > 1 || d < -1 {
		t.Fatalf("1-board pool loss %.2f%% vs AdaFlow %.2f%%", a.FrameLossPct, b.FrameLossPct)
	}
	if d := a.QoEPct - b.QoEPct; d > 1.5 || d < -1.5 {
		t.Fatalf("1-board pool QoE %.2f vs AdaFlow %.2f", a.QoEPct, b.QoEPct)
	}
}

func TestPoolCounters(t *testing.T) {
	lib := paperLib(t)
	pool, err := NewSupervisedPool(lib, Config{Boards: 2, Manager: manager.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := edge.Run(scenario(t, "paper2"), pool, edge.SimConfig{Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if pool.Switches() == 0 {
		t.Fatal("no switches recorded")
	}
	if pool.Reconfigs() > pool.Switches() {
		t.Fatal("more reconfigs than switches")
	}
}

// TestChaosPoolInvariants: no fault plan may drive the pool's accounting
// out of its physical envelope. Over a matrix of workload/fault seeds we
// assert: loss and QoE stay in [0,100], nothing goes negative, the
// cumulative trace counters are monotone, and frame conservation holds.
func TestChaosPoolInvariants(t *testing.T) {
	lib := paperLib(t)
	plan, err := fault.ParsePlan(
		"reconfig-fail:p=0.5;reconfig-stall:p=0.3;sensor-dropout:p=0.2;" +
			"sensor-spike:p=0.3,mag=0.5;accuracy-drift:p=0.1,mag=-0.05")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		seed := seed
		p, err := NewSupervisedPool(lib, Config{Boards: 3, Manager: manager.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		res, err := edge.Run(scenario(t, "paper2"), p, edge.SimConfig{
			Seed:        seed,
			RecordTrace: true,
			FaultConfig: edge.FaultConfig{Plan: plan, Seed: seed * 101},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.FrameLossPct < 0 || res.FrameLossPct > 100 {
			t.Fatalf("seed %d: loss %.3f%% out of [0,100]", seed, res.FrameLossPct)
		}
		if res.QoEPct < 0 || res.QoEPct > 100 {
			t.Fatalf("seed %d: QoE %.3f%% out of [0,100]", seed, res.QoEPct)
		}
		if res.Arrived < 0 || res.Processed < 0 || res.Dropped < 0 || res.EnergyJ < 0 {
			t.Fatalf("seed %d: negative totals: %+v", seed, res.RunStats)
		}
		if res.Processed+res.Dropped > res.Arrived+1e-6 {
			t.Fatalf("seed %d: conservation violated: processed %.3f + dropped %.3f > arrived %.3f",
				seed, res.Processed, res.Dropped, res.Arrived)
		}
		var prev edge.TracePoint
		for i, tp := range res.Trace {
			if tp.ArrivedCum < prev.ArrivedCum || tp.ProcessedCum < prev.ProcessedCum || tp.DroppedCum < prev.DroppedCum {
				t.Fatalf("seed %d: cumulative counter decreased at trace[%d]", seed, i)
			}
			if tp.LossPct < 0 || tp.LossPct > 100 || tp.QoEPct < 0 || tp.QoEPct > 100 {
				t.Fatalf("seed %d: trace[%d] loss/QoE out of range: %+v", seed, i, tp)
			}
			if tp.Accuracy < 0 || tp.Accuracy > 1 {
				t.Fatalf("seed %d: trace[%d] accuracy %.4f out of [0,1]", seed, i, tp.Accuracy)
			}
			prev = tp
		}
		if p.ReconfigFailures() < 0 || p.Degradations() < 0 {
			t.Fatalf("seed %d: negative pool fault counters", seed)
		}
		if res.Faults.ReconfigFailures > 0 && p.ReconfigFailures() == 0 {
			t.Fatalf("seed %d: injector reports %d reconfig failures but no board rolled back",
				seed, res.Faults.ReconfigFailures)
		}
	}
}

// A one-board pool draws exactly the power AdaFlowController reports for
// the same decision, on the fixed and on the flexible accelerator alike:
// a flexible board is charged the flexible accelerator's idle power and
// per-inference energy, clamped at its own capacity.
func TestOneBoardPoolPowerMatchesAdaFlow(t *testing.T) {
	lib := paperLib(t)
	pool, err := NewSupervisedPool(lib, Config{Boards: 1, Manager: manager.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := manager.New(lib, manager.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ada := edge.NewAdaFlow(mgr)

	low := 0.5 * lib.BaselineFPS()
	high := 0.9 * lib.Entries[len(lib.Entries)-1].FixedFPS
	seen := map[bool]bool{}
	for i, load := range []float64{low, high, low, high, low} {
		now := float64(i) // switches every second: inside the criteria, so flexible
		want, _, _, _ := ada.React(now, load)
		got, _, _, _ := pool.React(now, load)
		flex := strings.HasPrefix(want.Label, "flex")
		seen[flex] = true
		if got.FPS != want.FPS || got.IdlePower != want.IdlePower {
			t.Fatalf("t=%v %s: pool FPS/idle %v/%v, controller %v/%v",
				now, want.Label, got.FPS, got.IdlePower, want.FPS, want.IdlePower)
		}
		for _, fps := range []float64{0, 0.5 * want.FPS, want.FPS, 2 * want.FPS} {
			if g, w := got.PowerAt(fps), want.PowerAt(fps); g != w {
				t.Fatalf("t=%v %s at %v fps: pool %v W, controller %v W", now, want.Label, fps, g, w)
			}
		}
	}
	if !seen[false] || !seen[true] {
		t.Fatalf("decisions covered fixed=%v flexible=%v; want both", seen[false], seen[true])
	}
}
