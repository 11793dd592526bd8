package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/accuracy"
	"repro/internal/adapt"
	"repro/internal/edge"
	"repro/internal/library"
	"repro/internal/model"
	"repro/internal/obs"
)

// timedController wraps the AdaFlow controller and times React, the
// manager's decision path. It implements exactly the optional interfaces
// edge.AdaFlowController implements (ReconfigAware, LibrarySwapper,
// ThresholdSetter, TracerAware) and forwards each unchanged, so the run
// takes the same code paths with or without the wrapper.
type timedController struct {
	inner *edge.AdaFlowController
	calls int
	busy  time.Duration
}

func (c *timedController) React(now, incomingFPS float64) (edge.Serving, time.Duration, bool, bool) {
	t0 := time.Now()
	s, stall, switched, reconf := c.inner.React(now, incomingFPS)
	c.busy += time.Since(t0)
	c.calls++
	return s, stall, switched, reconf
}

func (c *timedController) ReconfigFailed(now float64) (time.Duration, bool) {
	return c.inner.ReconfigFailed(now)
}

func (c *timedController) ReconfigSucceeded(now float64) { c.inner.ReconfigSucceeded(now) }

func (c *timedController) SwapLibrary(now float64, lib *library.Library) bool {
	return c.inner.SwapLibrary(now, lib)
}

func (c *timedController) ServingLibrary() *library.Library { return c.inner.ServingLibrary() }

func (c *timedController) SetAccuracyThreshold(threshold float64) error {
	return c.inner.SetAccuracyThreshold(threshold)
}

func (c *timedController) SetTracer(tr *obs.Trace) { c.inner.SetTracer(tr) }

// timedEvaluator counts and times accuracy evaluations. Generate may call
// it from several workers, so its counters are atomic.
type timedEvaluator struct {
	inner accuracy.Evaluator
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds
}

func (e *timedEvaluator) Accuracy(m *model.Model) (float64, error) {
	t0 := time.Now()
	acc, err := e.inner.Accuracy(m)
	e.busy.Add(int64(time.Since(t0)))
	e.calls.Add(1)
	return acc, err
}

// timedRetrainer counts and times retrains.
type timedRetrainer struct {
	inner adapt.Retrainer
	calls int
	busy  time.Duration
}

func (r *timedRetrainer) Retrain(lib *library.Library, deficit float64) (*library.Library, float64, error) {
	t0 := time.Now()
	cand, rec, err := r.inner.Retrain(lib, deficit)
	r.busy += time.Since(t0)
	r.calls++
	return cand, rec, err
}

// counter is an obs sink that counts events by category and name and sums
// the engine's dispatched-event attribute from sim run summaries.
type counter struct {
	mu         sync.Mutex
	counts     map[eventKey]int
	dispatched int
}

type eventKey struct {
	cat  obs.Category
	name string
}

func newCounter() *counter { return &counter{counts: map[eventKey]int{}} }

func (c *counter) Emit(ev obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[eventKey{ev.Cat, ev.Name}]++
	if ev.Cat == obs.SimCat && ev.Name == "run" {
		if a, ok := ev.Attr("dispatched"); ok {
			c.dispatched += int(a.Float())
		}
	}
}

func (c *counter) count(cat obs.Category, name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[eventKey{cat, name}]
}
