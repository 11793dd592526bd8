package edge

import (
	"repro/internal/metrics"
	"repro/internal/obs"
)

// RunEventLevel simulates a scenario at per-frame granularity: one arrival
// event per frame, one completion event per service, exact queueing
// delays. It is an order of magnitude slower than Run's fluid accounting
// (≈30 k events per 25 s run) and exists to validate it — the test suite
// checks that both modes agree on frame loss and QoE — and to measure
// true per-frame latency rather than Little's-law estimates.
func RunEventLevel(scn Scenario, ctl Controller, cfg SimConfig, opts ...RunOption) (*Result, error) {
	s, err := newSession(scn, ctl, cfg, opts, true)
	if err != nil {
		return nil, err
	}
	s.arriveFn, s.rearmFn, s.serviceFn, s.stallWakeFn = s.onArrival, s.onRearm, s.onServiceDone, s.onStallWake
	s.scheduleArrival(0)
	return s.finish(scn.Duration), nil
}

// integrate accrues idle power up to now.
func (s *session) integrate(now float64) {
	if now > s.lastPowerT {
		s.acc.EnergyJ += s.serving.IdlePower * (now - s.lastPowerT)
		s.lastPowerT = now
	}
}

func (s *session) scheduleArrival(t float64) {
	rate := s.wl.Rate()
	if rate <= 0 {
		// Re-check at the next workload boundary.
		if nb := s.wl.NextBoundary(t); nb < s.scn.Duration {
			s.schedule(nb+1e-9, s.rearmFn)
		}
		return
	}
	gap := 1 / rate
	if s.cfg.PoissonArrivals {
		gap = s.arrivals.ExpFloat64() / rate
	}
	if next := t + gap; next < s.scn.Duration {
		s.schedule(next, s.arriveFn)
	}
}

func (s *session) onRearm() { s.scheduleArrival(s.eng.Now()) }

func (s *session) onStallWake() {
	s.meter.hit(modStallWake)
	s.startService()
}

// onArrival admits one frame, or drops it with its cause when the queue is
// full.
func (s *session) onArrival() {
	s.meter.hit(modArrival)
	now := s.eng.Now()
	s.integrate(now)
	if float64(s.frames.len()) >= s.cfg.AdmissionConfig.QueueFrames {
		s.acc.Add(1, 0, 1, 0, 0, 0)
		cause := metrics.DropQueueFull
		if s.serving.FPS <= 0 {
			cause = metrics.DropNoHealthyBoard
		} else if now < s.stallUntil {
			cause = metrics.DropReconfigStall
		}
		s.acc.Drops.Add(cause, 1)
		if s.traced {
			s.tr.Hot(now, obs.EdgeCat, "drop",
				obs.F("frames", 1), obs.S("cause", cause.String()))
		}
	} else {
		s.acc.Add(1, 0, 0, 0, 0, 0)
		s.frames.push(now)
		s.startService()
	}
	s.scheduleArrival(now)
}

// startService dispatches the next service when the server is idle, not
// stalled, and has frames: one frame, or with BatchConfig.Size > 1 up to
// Size frames. A batch is cut short when the oldest frame's deadline slack
// would run out — batching never causes a miss that single-frame serving
// would not, because a size-k batch finishes at now + k/FPS, which the
// slack bound keeps inside the oldest frame's deadline (later frames have
// later deadlines).
func (s *session) startService() {
	now := s.eng.Now()
	if s.busy || s.frames.len() == 0 || now < s.stallUntil || s.serving.FPS <= 0 {
		return
	}
	deadline := s.cfg.AdmissionConfig.Deadline
	if deadline > 0 {
		// Shed frames already past the deadline instead of serving them
		// stale.
		for s.frames.len() > 0 && now-s.frames.front() > deadline {
			s.frames.pop(1)
			s.acc.Add(0, 0, 1, 0, 0, 0)
			s.acc.Drops.Add(metrics.DropDeadlineExceeded, 1)
			if s.traced {
				s.tr.Hot(now, obs.EdgeCat, "drop",
					obs.F("frames", 1),
					obs.S("cause", metrics.DropDeadlineExceeded.String()))
			}
		}
		if s.frames.len() == 0 {
			return
		}
	}
	k := 1
	if size := s.cfg.BatchConfig.Size; size > 1 {
		k, s.cause = size, metrics.FlushBatchFull
		if n := s.frames.len(); n < k {
			k, s.cause = n, metrics.FlushIdle
		}
		if deadline > 0 {
			slack := s.cfg.BatchConfig.FlushSlack
			if slack <= 0 {
				slack = 1 / s.serving.FPS
			}
			if kMax := int((s.frames.front() + deadline - slack - now) * s.serving.FPS); kMax < k {
				k, s.cause = kMax, metrics.FlushDeadlineSlack
			}
		}
		if k < 1 {
			// A single frame is exactly what unbatched serving would
			// dispatch here; it misses only if that would too.
			k, s.cause = 1, metrics.FlushDeadlineSlack
		}
	}
	s.busy = true
	s.inService = append(s.inService[:0], s.frames.pop(k)...)
	s.cur = s.serving
	s.schedule(now+float64(k)/s.cur.FPS, s.serviceFn)
}

// onServiceDone completes the in-flight service: the measured accuracy,
// energy and latency of every frame in it, then the next dispatch.
func (s *session) onServiceDone() {
	s.meter.hit(modService)
	s.busy = false
	done := s.eng.Now()
	s.integrate(done)
	n := float64(len(s.inService))
	measured := s.measure(done, s.cur.Accuracy, s.inj.Drift(done), s.inj.Sustained(done), n)
	e := s.cur.PowerAt(1) - s.cur.IdlePower // per-inference energy
	for _, at := range s.inService {
		s.acc.Add(0, 1, 0, measured, e, 0)
		s.latencySum += done - at
		s.latencyN++
	}
	if s.cfg.BatchConfig.Size > 1 {
		s.acc.Batch.Add(n, s.cause)
		if s.traced {
			s.tr.Hot(done, obs.EdgeCat, "batch",
				obs.I("size", len(s.inService)),
				obs.S("cause", s.cause.String()),
				obs.F("oldest_latency_ms", (done-s.inService[0])*1e3),
				obs.I("queue", s.frames.len()))
		}
	} else if s.traced {
		s.tr.Hot(done, obs.EdgeCat, "frame",
			obs.F("latency_ms", (done-s.inService[0])*1e3),
			obs.I("queue", s.frames.len()))
	}
	s.startService()
}

// frameQueue is a FIFO of frame arrival times over one reused backing
// array: pops advance a head index, and pushes reclaim the consumed prefix
// once the array is full, so a bounded queue stops allocating after
// warm-up.
type frameQueue struct {
	buf  []float64
	head int
}

func (q *frameQueue) len() int { return len(q.buf) - q.head }

func (q *frameQueue) front() float64 { return q.buf[q.head] }

func (q *frameQueue) push(t float64) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	q.buf = append(q.buf, t)
}

// pop removes the k oldest frames and returns them; the slice is valid
// until the next push.
func (q *frameQueue) pop(k int) []float64 {
	out := q.buf[q.head : q.head+k]
	q.head += k
	return out
}
