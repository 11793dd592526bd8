package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/accuracy"
	"repro/internal/adapt"
	"repro/internal/edge"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/library"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/obs"
)

const (
	serveScenario = "paper12" // 20 cameras x 30 FPS, 25 s simulated
	serveFaults   = "drift-sustained:p=1,start=5,mag=-0.15"
	serveDeadline = 0.1 // seconds
)

// serveRunner runs one event-level simulation of paper12 per op with a
// fresh AdaFlow controller, sustained drift and drift recovery enabled.
type serveRunner struct {
	seed int64
	lib  *library.Library
	scn  edge.Scenario
	plan *fault.Plan
}

// pairLibrary builds the CNVW2A2/cifar10 library from a seeded model, the
// design-time artifact both serving workloads start from.
func pairLibrary(seed int64) (*library.Library, error) {
	p := experiments.Pairs[0]
	m, err := buildPairModel(p, seed)
	if err != nil {
		return nil, err
	}
	ev, err := accuracy.NewCalibrated(p.ModelName, p.Dataset)
	if err != nil {
		return nil, err
	}
	lib, err := library.Generate(m, library.Config{Evaluator: ev})
	if err != nil {
		return nil, err
	}
	return lib, lib.Validate()
}

func setupServe(seed int64) (runner, error) {
	lib, err := pairLibrary(seed)
	if err != nil {
		return nil, err
	}
	scn, err := edge.NamedScenario(serveScenario)
	if err != nil {
		return nil, err
	}
	plan, err := fault.ParsePlan(serveFaults)
	if err != nil {
		return nil, err
	}
	return &serveRunner{seed: seed, lib: lib, scn: scn, plan: plan}, nil
}

// opSeed derives op i's seed from the workload seed (splitmix64 step), so
// ops see different but reproducible workloads.
func opSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

func (r *serveRunner) config(i int) edge.SimConfig {
	s := opSeed(r.seed, i)
	return edge.SimConfig{
		AdmissionConfig: edge.AdmissionConfig{Deadline: serveDeadline},
		BatchConfig:     edge.BatchConfig{Size: 1},
		FaultConfig:     edge.FaultConfig{Plan: r.plan, Seed: s},
		Adapt:           adapt.Config{Enabled: true},
		Seed:            s,
	}
}

func (r *serveRunner) op(i int) (outcome, error) {
	mgr, err := manager.New(r.lib, manager.DefaultConfig())
	if err != nil {
		return outcome{}, err
	}
	res, err := edge.RunEventLevel(r.scn, edge.NewAdaFlow(mgr), r.config(i))
	if err != nil {
		return outcome{}, err
	}
	if err := checkServe(res); err != nil {
		return outcome{}, err
	}
	return outcome{frames: res.Arrived, qoe: res.QoEPct, loss: res.FrameLossPct, ident: res}, nil
}

// serveInFlight bounds the frames an event-level run may end with neither
// processed nor dropped: a full default queue (16) plus the one in service.
const serveInFlight = 16 + 1

func checkServe(res *edge.Result) error {
	return checkFrames(res.Arrived, res.Processed, res.Dropped, res.Drops.Total(), serveInFlight)
}

// checkFrames checks frame conservation (arrived = processed + dropped +
// frames still queued or in service at the end, at most inFlight) and one
// cause per drop (the per-cause drops sum to dropped).
func checkFrames(arrived, processed, dropped, dropsTotal, inFlight float64) error {
	tol := 1e-9 * math.Max(1, arrived)
	if left := arrived - processed - dropped; left < -tol || left > inFlight+tol {
		return fmt.Errorf("frames not conserved: arrived %v, processed %v, dropped %v", arrived, processed, dropped)
	}
	if math.Abs(dropsTotal-dropped) > tol {
		return fmt.Errorf("drop causes sum to %v, dropped %v", dropsTotal, dropped)
	}
	return nil
}

func (r *serveRunner) traced(i int, l *layers) (outcome, error) {
	t0 := time.Now()
	mgr, err := manager.New(r.lib, manager.DefaultConfig())
	if err != nil {
		return outcome{}, err
	}
	ctl := &timedController{inner: edge.NewAdaFlow(mgr)}
	rt := &timedRetrainer{inner: adapt.SimRetrainer{Fraction: 0.85}}
	cfg := r.config(i)
	cfg.Adapt.Retrainer = rt
	cnt := newCounter()
	res, err := edge.RunEventLevel(r.scn, ctl, cfg, edge.WithTracer(obs.New(cnt)))
	opMS := msSince(t0)
	if err != nil {
		return outcome{}, err
	}
	if err := checkServe(res); err != nil {
		return outcome{}, err
	}
	reactMS := float64(ctl.busy.Nanoseconds()) / 1e6
	retrainMS := float64(rt.busy.Nanoseconds()) / 1e6
	l.add("manager.react_calls", "count", float64(ctl.calls))
	l.addNote("manager.react_us", "us", 1e3*reactMS/math.Max(1, float64(ctl.calls)), "per call")
	l.add("manager.switches", "count", float64(res.RunStats.Switches))
	l.add("manager.reconfigs", "count", float64(res.Reconfigs))
	l.addNote("sim.events", "count", float64(cnt.dispatched), "dispatched, from the sim run summary")
	l.addNote("edge.useful_pct", "%", 100*res.Processed/res.Arrived, "processed over arrived")
	l.add("edge.queue_ms_avg", "ms", res.AvgLatencyMS)
	addDrops(l, "edge.drop.", res.Drops)
	l.add("fault.injections", "count", float64(cnt.count(obs.FaultCat, "inject")))
	l.add("adapt.detections", "count", float64(res.Adapt.Detections))
	l.add("adapt.swaps", "count", float64(res.Adapt.Swaps))
	l.addNote("adapt.retrain_ms", "ms", retrainMS/math.Max(1, float64(rt.calls)), "per call")
	l.addNote("edge.self_ms", "ms", opMS-reactMS-retrainMS, "op time minus wrapped calls")
	return outcome{frames: res.Arrived, qoe: res.QoEPct, loss: res.FrameLossPct, ident: res, ms: opMS}, nil
}

// addDrops adds one metric per metrics.DropStats field.
func addDrops(l *layers, prefix string, d metrics.DropStats) {
	l.add(prefix+metrics.DropQueueFull.String(), "frames", d.QueueFull)
	l.add(prefix+metrics.DropDeadlineExceeded.String(), "frames", d.DeadlineExceeded)
	l.add(prefix+metrics.DropNoHealthyBoard.String(), "frames", d.NoHealthyBoard)
	l.add(prefix+metrics.DropReconfigStall.String(), "frames", d.ReconfigStall)
}
