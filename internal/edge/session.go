package edge

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/adapt"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// session is one serving run: the state and decisions the fluid Run and the
// per-frame RunEventLevel share. It owns the workload, engine, fault
// injector, tracer and adaptation loop, reacts to load changes with the
// fault-aware reconfiguration policy, schedules threshold changes, redraws
// and heartbeats, perturbs measured accuracy, and summarizes the run. The
// two drivers add only their clock: accounting steps (Run) or frame
// arrivals and service completions (RunEventLevel).
//
// Every event handler is a session method bound once per run, so
// dispatching an event allocates nothing; per-frame state lives in
// session fields rather than in per-event closures.
type session struct {
	scn     Scenario
	cfg     SimConfig
	ctl     Controller
	tr      *obs.Trace
	traced  bool
	meter   *moduleMeter
	wl      *Workload
	eng     *sim.Engine
	inj     *fault.Injector
	ra      ReconfigAware   // nil: reconfigurations are served fault-free
	sup     BoardSupervisor // nil: no heartbeats
	al      *adapt.Loop     // nil unless cfg.Adapt is enabled
	swapper LibrarySwapper

	acc        metrics.Accumulator
	res        *Result
	serving    Serving
	stallUntil float64
	retry      sim.Handle
	haveRetry  bool
	beat       int
	beatEvery  float64

	// event marks a per-frame run. The modes differ in exactly three
	// places: an event run integrates idle power before each reaction,
	// wakes its service loop when a stall is extended, and kicks service
	// after a heartbeat that changed the topology.
	event bool

	// Fluid-mode state.
	backlog    float64 // queued frames
	batchCarry float64
	ctlBatches bool // the controller accounts its own batches

	// Event-mode state.
	frames     frameQueue
	busy       bool
	inService  []float64 // arrival times of the frames being served
	cur        Serving   // configuration serving them
	cause      metrics.FlushCause
	lastPowerT float64 // integration cursor for idle power
	latencySum float64
	latencyN   float64
	arrivals   *rand.Rand

	// Handlers bound once per run.
	redrawFn, beatFn, retryFn, retrainFn      func()
	arriveFn, rearmFn, serviceFn, stallWakeFn func()
}

// newSession sets a run up: config defaults, workload, engine, injector
// and tracer wiring, the adaptation loop, the free initial load, and the
// threshold, redraw and heartbeat schedules.
func newSession(scn Scenario, ctl Controller, cfg SimConfig, opts []RunOption, event bool) (*session, error) {
	cfg.defaults()
	if ctl == nil {
		return nil, fmt.Errorf("edge: nil controller")
	}
	o := applyRunOptions(opts)
	s := &session{scn: scn, cfg: cfg, ctl: ctl, tr: o.tracer, traced: o.tracer.Enabled(),
		eng: sim.NewEngine(), res: &Result{}, event: event}
	if s.traced {
		s.meter = &moduleMeter{}
	}
	var err error
	if s.wl, err = NewWorkload(scn, o.rng(cfg.Seed, "workload/"+scn.Name)); err != nil {
		return nil, err
	}
	if event {
		// Frame arrivals: deterministic spacing at the current rate, or
		// exponential gaps when PoissonArrivals is set.
		s.arrivals = o.rng(cfg.Seed, "arrivals/"+scn.Name)
	}
	if s.inj, err = fault.NewInjector(cfg.FaultConfig.Plan, cfg.FaultConfig.Seed); err != nil {
		return nil, err
	}
	if s.tr != nil {
		s.eng.SetTracer(s.tr)
		s.inj.SetTracer(s.tr)
		if ta, ok := ctl.(TracerAware); ok {
			ta.SetTracer(s.tr)
		}
	}
	s.ra, _ = ctl.(ReconfigAware)

	// Closed adaptation loop: detector + retrain/swap state machine. All
	// of its transitions happen inside the engine's serial event loop, so
	// adaptive runs replay bit-identically at any worker count.
	if cfg.Adapt.Enabled {
		sw, ok := ctl.(LibrarySwapper)
		if !ok {
			return nil, fmt.Errorf("edge: Adapt requires a controller with a swappable library, got %T", ctl)
		}
		s.swapper = sw
		if s.al, err = adapt.NewLoop(cfg.Adapt, sw.ServingLibrary(), s.tr); err != nil {
			return nil, err
		}
	}

	s.serving, _, _, _ = ctl.React(0, s.wl.Rate()) // initial load is free for every controller
	if s.serving.PowerAt == nil {
		return nil, fmt.Errorf("edge: controller returned no power model")
	}
	if s.al != nil && s.ra != nil {
		// The initial load is assumed to succeed (it is free and cannot
		// fail), but the managers still hold its rollback snapshot — and a
		// manager refuses a library swap while a reconfiguration outcome is
		// outstanding. Commit the initial load so a swap on a controller
		// that never reconfigures again (a lightly-loaded pool) is not
		// refused forever. Only done on adaptive runs to keep the disabled
		// path's traces byte-identical.
		s.ra.ReconfigSucceeded(0)
	}

	s.redrawFn, s.beatFn, s.retryFn, s.retrainFn = s.onRedraw, s.onBeat, s.onRetry, s.onRetrainDone
	if err := s.scheduleThresholds(); err != nil {
		return nil, err
	}
	s.scheduleRedraw(0)
	if sup, ok := ctl.(BoardSupervisor); ok {
		s.sup = sup
		if s.beatEvery = sup.HeartbeatInterval(); s.beatEvery <= 0 {
			s.beatEvery = 0.1
		}
		s.scheduleBeat()
	}
	return s, nil
}

// schedule enqueues fn at t. The serving loop only ever schedules forward
// in time, so a failure is a bug.
func (s *session) schedule(t float64, fn func()) {
	if err := s.eng.Schedule(t, fn); err != nil {
		panic(err)
	}
}

// react observes the load through the fault injector and applies the
// controller's decision: a failed reconfiguration keeps the old
// configuration and schedules a retry; a switch pays its stall.
func (s *session) react(now float64) {
	if s.event {
		s.integrate(now)
	}
	// A fresh reaction supersedes any pending reconfiguration retry.
	if s.haveRetry {
		s.eng.Cancel(s.retry)
		s.haveRetry = false
	}
	rate, ok := s.inj.Observe(now, s.wl.Rate())
	if !ok {
		return // sensor dropout: pin the last-known-good configuration
	}
	sv, stall, switched, reconf := s.ctl.React(now, rate)
	if reconf && s.ra != nil {
		out := s.inj.Reconfig(now)
		if out.Failed {
			// The stall is paid but the bitstream never loads: the
			// controller rolls back, the old configuration keeps serving,
			// and we retry after a bounded backoff.
			retry, degraded := s.ra.ReconfigFailed(now)
			s.extendStall(now, stall)
			s.res.FaultEvents = append(s.res.FaultEvents, FaultEvent{Time: now, Kind: "reconfig-fail", Detail: sv.Label})
			if degraded {
				s.acc.Faults.Degradations++
				s.res.FaultEvents = append(s.res.FaultEvents, FaultEvent{Time: now, Kind: "degraded", Detail: "retry budget exhausted; fixed banned"})
			}
			if at := now + stall.Seconds() + retry.Seconds(); at < s.scn.Duration {
				if h, err := s.eng.ScheduleCancelable(at, s.retryFn); err == nil {
					s.retry, s.haveRetry = h, true
				}
			}
			return
		}
		if out.StallFactor > 1 {
			stall = time.Duration(float64(stall) * out.StallFactor)
			s.res.FaultEvents = append(s.res.FaultEvents, FaultEvent{Time: now, Kind: "reconfig-stall", Detail: sv.Label})
		}
		s.ra.ReconfigSucceeded(now)
	}
	if switched || reconf {
		s.extendStall(now, stall)
		s.res.Switches = append(s.res.Switches, SwitchEvent{Time: now, Label: sv.Label, Reconfigured: reconf})
		if switched {
			s.acc.Switches++
		}
		if reconf {
			s.acc.Reconfigs++
		}
		if s.traced {
			s.tr.Emit(now, obs.EdgeCat, "switch",
				obs.S("label", sv.Label),
				obs.B("reconf", reconf),
				obs.F("stall_s", stall.Seconds()))
		}
	}
	s.serving = sv
}

func (s *session) extendStall(now float64, stall time.Duration) {
	if until := now + stall.Seconds(); stall > 0 && until > s.stallUntil {
		s.stallUntil = until
		if s.event {
			s.schedule(until, s.stallWakeFn)
		}
	}
}

func (s *session) onRetry() {
	s.meter.hit(modRetry)
	s.react(s.eng.Now())
}

// scheduleThresholds validates and schedules the user accuracy-threshold
// changes (the paper: the manager acts on threshold changes too).
func (s *session) scheduleThresholds() error {
	for _, tc := range s.cfg.ThresholdChanges {
		if tc.Time <= 0 || tc.Time >= s.scn.Duration {
			return fmt.Errorf("edge: threshold change at %v outside run", tc.Time)
		}
		ts, ok := s.ctl.(ThresholdSetter)
		if !ok {
			return fmt.Errorf("edge: controller %T cannot change thresholds", s.ctl)
		}
		s.schedule(tc.Time, func() {
			s.meter.hit(modThreshold)
			if err := ts.SetAccuracyThreshold(tc.Threshold); err == nil {
				s.react(s.eng.Now())
			}
		})
	}
	return nil
}

func (s *session) scheduleRedraw(t float64) {
	if next := s.wl.NextBoundary(t); next < s.scn.Duration {
		s.schedule(next, s.redrawFn)
	}
}

func (s *session) onRedraw() {
	s.meter.hit(modWorkload)
	now := s.eng.Now()
	s.wl.Redraw(now)
	s.react(now)
	s.scheduleRedraw(now)
}

// scheduleBeat schedules the next board-supervision heartbeat. Beats land
// on exact multiples of the interval (no float accumulation), so narrow
// fault windows behave predictably.
func (s *session) scheduleBeat() {
	s.beat++
	if next := float64(s.beat) * s.beatEvery; next < s.scn.Duration {
		s.schedule(next, s.beatFn)
	}
}

// onBeat lets the supervising controller draw board faults from the seeded
// streams; a topology change triggers a fresh reaction.
func (s *session) onBeat() {
	s.meter.hit(modHeartbeat)
	now := s.eng.Now()
	if s.sup.Heartbeat(now, s.inj) {
		s.react(now)
		if s.event {
			// The change may also have unblocked the queue.
			s.startService()
		}
	}
	s.scheduleBeat()
}

// measure perturbs the nominal accuracy of frames served at time at by the
// evaluator drift d and the sustained shift sd (less any active
// compensation) — the true serving accuracy is not changed — and, when
// adapting, feeds the detector, schedules the background retrain on a
// detection, and re-offers any validated candidate.
func (s *session) measure(at, nominal, d, sd, frames float64) float64 {
	if s.al != nil {
		sd = s.al.Compensate(sd)
	}
	measured := nominal
	if d+sd != 0 {
		measured += d + sd
		if measured < 0 {
			measured = 0
		} else if measured > 1 {
			measured = 1
		}
	}
	if s.al != nil {
		s.al.Account(frames)
		if s.al.Observe(at, measured, nominal) {
			s.schedule(at+s.al.RetrainTime(), s.retrainFn)
		}
		if p := s.al.PendingSwap(); p != nil && s.swapper.SwapLibrary(at, p) {
			s.al.Committed(at)
		}
	}
	return measured
}

func (s *session) onRetrainDone() { s.al.FinishRetrain(s.eng.Now()) }

// finish runs the engine to end and summarizes the run.
func (s *session) finish(end float64) *Result {
	s.eng.Run(end)
	if s.event {
		s.integrate(s.scn.Duration)
		s.acc.Seconds = s.scn.Duration
	}
	copyFaultCounts(&s.acc, s.inj)
	if s.al != nil {
		s.acc.Adapt = s.al.Stats()
	}
	if rep, ok := s.ctl.(PoolStatsReporter); ok {
		s.acc.Pool = rep.PoolStats()
	}
	if rep, ok := s.ctl.(BatchStatsReporter); ok {
		s.acc.Batch.Merge(rep.DrainBatchStats())
	}
	res := s.res
	res.RunStats = s.acc.Finalize()
	if s.latencyN > 0 {
		res.AvgLatencyMS = s.latencySum / s.latencyN * 1e3
	}
	if s.traced {
		s.meter.emit(s.tr, s.scn.Duration)
		attrs := []obs.Attr{obs.F("arrived", res.Arrived), obs.F("processed", res.Processed),
			obs.F("dropped", res.Dropped), obs.F("qoe_pct", res.QoEPct)}
		if s.event {
			attrs = append(attrs, obs.F("avg_latency_ms", res.AvgLatencyMS))
		}
		s.tr.Emit(s.scn.Duration, obs.EdgeCat, "run", append(attrs,
			obs.I("switches", res.RunStats.Switches), obs.I("reconfigs", res.RunStats.Reconfigs))...)
	}
	return res
}

// copyFaultCounts moves the injector's per-kind fire counts into the
// accumulator (Degradations is counted by the run loop itself).
func copyFaultCounts(acc *metrics.Accumulator, inj *fault.Injector) {
	c := inj.Counts()
	acc.Faults.ReconfigFailures = c.ReconfigFailures
	acc.Faults.ReconfigStalls = c.ReconfigStalls
	acc.Faults.SensorDropouts = c.SensorDropouts
	acc.Faults.SensorSpikes = c.SensorSpikes
	acc.Faults.AccuracyDrifts = c.AccuracyDrifts
	acc.Faults.SustainedDrifts = c.SustainedDrifts
	acc.Faults.BoardCrashes = c.BoardCrashes
	acc.Faults.BoardHangs = c.BoardHangs
	acc.Faults.FrameCorruptions = c.FrameCorruptions
	acc.Faults.BoardBrownouts = c.BoardBrownouts
}
