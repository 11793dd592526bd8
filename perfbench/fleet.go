package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/library"
	"repro/internal/metrics"
	"repro/internal/obs"
)

const (
	fleetStreams = 1000
	fleetPools   = 8
	fleetFaults  = "board-crash:p=1,start=6,end=6.3,repair=8" // on pool 0
)

// fleetRunner schedules 1000 camera streams over 8 supervised pools for
// the default 5 epochs per op, with pool 0's boards crashing mid-run.
type fleetRunner struct {
	seed    int64
	lib     *library.Library
	streams []cluster.StreamSpec
	plan    *fault.Plan
}

func setupFleet(seed int64) (runner, error) {
	lib, err := pairLibrary(seed)
	if err != nil {
		return nil, err
	}
	plan, err := fault.ParsePlan(fleetFaults)
	if err != nil {
		return nil, err
	}
	return &fleetRunner{seed: seed, lib: lib, streams: cluster.DefaultStreams(fleetStreams), plan: plan}, nil
}

func (r *fleetRunner) config(i int) cluster.Config {
	s := opSeed(r.seed, i)
	return cluster.Config{Pools: fleetPools, Seed: s, FaultPlan: r.plan, FaultPools: []int{0}, FaultSeed: s}
}

// checkCluster checks conservation and one cause per drop cluster-wide.
// Each pool epoch is its own fluid run, which may end with up to a full
// default queue (16 frames) neither processed nor dropped.
func checkCluster(res *cluster.Result) error {
	inFlight := float64(16 * res.Pools * res.Epochs)
	return checkFrames(res.Arrived, res.Processed, res.Dropped, res.Drops.Total(), inFlight)
}

func (r *fleetRunner) op(i int) (outcome, error) {
	sch, err := cluster.New(r.lib, r.streams, r.config(i))
	if err != nil {
		return outcome{}, err
	}
	res, err := sch.Run()
	if err != nil {
		return outcome{}, err
	}
	if err := checkCluster(res); err != nil {
		return outcome{}, err
	}
	return outcome{frames: res.Arrived, loss: res.FrameLossPct, ident: res}, nil
}

func (r *fleetRunner) traced(i int, l *layers) (outcome, error) {
	t0 := time.Now()
	sch, err := cluster.New(r.lib, r.streams, r.config(i))
	newMS := msSince(t0)
	if err != nil {
		return outcome{}, err
	}
	cnt := newCounter()
	sch.SetTracer(obs.New(cnt))
	t1 := time.Now()
	res, err := sch.Run()
	runMS := msSince(t1)
	if err != nil {
		return outcome{}, err
	}
	if err := checkCluster(res); err != nil {
		return outcome{}, err
	}
	if n := cnt.count(obs.ClusterCat, "epoch"); n != res.Epochs {
		return outcome{}, fmt.Errorf("tracer saw %d epochs, result has %d", n, res.Epochs)
	}
	// Pool runs: one fluid edge.Run per pool that holds streams in an
	// epoch (idle pools only advance supervision).
	runs := 0
	for _, rep := range res.Reports {
		busy := map[int]bool{}
		for _, p := range rep.Placed {
			busy[p] = true
		}
		runs += len(busy)
	}
	l.add("cluster.new_ms", "ms", newMS)
	l.add("cluster.run_ms", "ms", runMS)
	l.add("cluster.migrations", "count", float64(res.Migrations))
	l.add("cluster.throttled", "count", float64(res.Throttled))
	l.add("cluster.unplaced", "count", float64(res.Unplaced))
	l.addNote("cluster.place_events", "count", float64(cnt.count(obs.ClusterCat, "place")), "placement decisions, from the tracer")
	addDrops(l, "cluster.drop.", res.Drops.Pool)
	l.add("cluster.drop."+metrics.ClusterNoPoolCapacity.String(), "frames", res.Drops.NoPoolCapacity)
	l.add("cluster.drop."+metrics.ClusterTenantThrottled.String(), "frames", res.Drops.TenantThrottled)
	l.add("cluster.drop."+metrics.ClusterMigrating.String(), "frames", res.Drops.Migrating)
	l.add("multiedge.failovers", "count", float64(res.Pool.Failovers))
	l.add("multiedge.promotions", "count", float64(res.Pool.StandbyPromotions))
	l.addNote("edge.epoch_runs", "count", float64(runs), "pool epochs served, from the epoch reports")
	return outcome{frames: res.Arrived, loss: res.FrameLossPct, ident: res, ms: newMS + runMS}, nil
}
