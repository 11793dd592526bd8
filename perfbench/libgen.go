package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/accuracy"
	"repro/internal/experiments"
	"repro/internal/finn"
	"repro/internal/library"
	"repro/internal/model"
	"repro/internal/prune"
	"repro/internal/synth"
)

// libgenRunner generates the library of one of the four paper pairs per
// op, in rotation, and checks each table against the one set-up built for
// that pair.
type libgenRunner struct {
	pairs []libgenPair
}

type libgenPair struct {
	pair  experiments.Pair
	model *model.Model
	eval  *accuracy.Calibrated
	ref   []tableRow // the pair's table, generated in set-up
}

// tableRow is the part of a library entry that must not change between
// ops on the same pair and seed (GenStats carries wall time, so the
// library itself is not compared).
type tableRow struct {
	NominalRate, EffectiveRate float64
	Channels                   []int
	Accuracy                   float64
	FixedFPS, FlexFPS          float64
	FlexEnergyPerInfJ          float64
	FixedRes                   synth.Resources
}

func setupLibgen(seed int64) (runner, error) {
	r := &libgenRunner{}
	for _, p := range experiments.Pairs {
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
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		r.pairs = append(r.pairs, libgenPair{pair: p, model: m, eval: ev, ref: tableOf(lib)})
	}
	return r, nil
}

// buildPairModel builds a pair's initial model with weights drawn from seed.
func buildPairModel(p experiments.Pair, seed int64) (*model.Model, error) {
	switch p.ModelName {
	case "CNVW2A2":
		return model.CNVW2A2(p.Dataset, p.Classes, seed)
	case "CNVW1A2":
		return model.CNVW1A2(p.Dataset, p.Classes, seed)
	}
	return nil, fmt.Errorf("unknown model %q", p.ModelName)
}

func tableOf(lib *library.Library) []tableRow {
	rows := make([]tableRow, len(lib.Entries))
	for i, e := range lib.Entries {
		rows[i] = tableRow{
			NominalRate: e.NominalRate, EffectiveRate: e.EffectiveRate,
			Channels: e.Channels, Accuracy: e.Accuracy,
			FixedFPS: e.FixedFPS, FlexFPS: e.FlexFPS,
			FlexEnergyPerInfJ: e.FlexEnergyPerInfJ, FixedRes: e.Fixed.Res,
		}
	}
	return rows
}

// check validates a generated library and compares its table with the
// reference, returning the table.
func (p *libgenPair) check(lib *library.Library) ([]tableRow, error) {
	if err := lib.Validate(); err != nil {
		return nil, err
	}
	t := tableOf(lib)
	if !reflect.DeepEqual(t, p.ref) {
		return nil, fmt.Errorf("%s: table differs from the reference table", p.pair)
	}
	return t, nil
}

func (r *libgenRunner) op(i int) (outcome, error) {
	p := &r.pairs[i%len(r.pairs)]
	lib, err := library.Generate(p.model, library.Config{Evaluator: p.eval})
	if err != nil {
		return outcome{}, err
	}
	t, err := p.check(lib)
	if err != nil {
		return outcome{}, err
	}
	return outcome{ident: t}, nil
}

// traced runs the real Generate with a timed evaluator, then replays
// Generate's stages through the same public calls to time each layer.
func (r *libgenRunner) traced(i int, l *layers) (outcome, error) {
	p := &r.pairs[i%len(r.pairs)]
	ev := &timedEvaluator{inner: p.eval}
	t0 := time.Now()
	lib, err := library.Generate(p.model, library.Config{Evaluator: ev})
	opMS := msSince(t0)
	if err != nil {
		return outcome{}, err
	}
	t, err := p.check(lib)
	if err != nil {
		return outcome{}, err
	}
	st, err := replayGenerate(p.model, lib)
	if err != nil {
		return outcome{}, err
	}
	evalMS := float64(ev.busy.Load()) / 1e6
	rates := len(lib.Entries)
	l.add("model.clone_ms", "ms", st.cloneMS)
	l.add("model.clone_mb", "MB", st.cloneMB)
	l.addNote("prune.shrink_ms", "ms", st.shrinkMS, "PlanFilters+Apply on the clone")
	l.add("prune.shrink_mb", "MB", st.shrinkMB)
	l.add("finn.map_ms", "ms", st.mapMS)
	l.add("finn.map_calls", "count", float64(st.mapCalls))
	l.add("synth.synthesize_ms", "ms", st.synthMS)
	l.addNote("finn.flex_measure_ms", "ms", st.flexMS, "SetChannels+FPS+restore")
	l.add("accuracy.eval_calls", "count", float64(ev.calls.Load()))
	l.add("accuracy.eval_ms", "ms", evalMS)
	l.add("library.synth_reuse_pct", "%", 100*float64(lib.Stats.SynthReused)/float64(rates))
	l.addNote("library.self_ms", "ms", opMS-st.total()-evalMS, "Generate time minus the stage times")
	return outcome{ident: t, ms: opMS}, nil
}

// stageTimes are one replay's per-layer totals.
type stageTimes struct {
	cloneMS, cloneMB   float64
	shrinkMS, shrinkMB float64
	mapMS, synthMS     float64
	flexMS             float64
	mapCalls           int
}

func (s stageTimes) total() float64 {
	return s.cloneMS + s.shrinkMS + s.mapMS + s.synthMS + s.flexMS
}

// replayGenerate repeats library.Generate's stages serially with the same
// calls (flexible map and synthesis; per rate clone, plan and prune; per
// distinct channel set fixed map, synthesis and flexible measurement) and
// checks that the replay reproduces lib's throughputs.
func replayGenerate(m *model.Model, lib *library.Library) (stageTimes, error) {
	var st stageTimes
	var ms runtime.MemStats
	allocMB := func() float64 {
		runtime.ReadMemStats(&ms)
		return float64(ms.TotalAlloc) / 1e6
	}
	fold := finn.DefaultFolding(m)
	gran, err := fold.ChannelGranularity(m)
	if err != nil {
		return st, err
	}
	t := time.Now()
	flexDF, err := finn.Map(m, fold, finn.Options{Flexible: true})
	st.mapMS += msSince(t)
	st.mapCalls++
	if err != nil {
		return st, err
	}
	t = time.Now()
	flexAcc, err := synth.Synthesize(flexDF, synth.ZCU104)
	st.synthMS += msSince(t)
	if err != nil {
		return st, err
	}
	seen := map[string]bool{}
	for _, e := range lib.Entries {
		a0 := allocMB()
		t = time.Now()
		c, err := m.Clone()
		st.cloneMS += msSince(t)
		a1 := allocMB()
		st.cloneMB += a1 - a0
		if err != nil {
			return st, err
		}
		t = time.Now()
		plan, err := prune.PlanFilters(m, e.NominalRate, gran)
		if err == nil {
			err = prune.Apply(c, plan)
		}
		st.shrinkMS += msSince(t)
		st.shrinkMB += allocMB() - a1
		if err != nil {
			return st, err
		}
		key := fmt.Sprint(plan.Channels)
		if seen[key] {
			continue
		}
		seen[key] = true
		t = time.Now()
		fixedDF, err := finn.Map(c, finn.DefaultFolding(c), finn.Options{})
		st.mapMS += msSince(t)
		st.mapCalls++
		if err != nil {
			return st, err
		}
		t = time.Now()
		_, err = synth.Synthesize(fixedDF, synth.ZCU104)
		st.synthMS += msSince(t)
		if err != nil {
			return st, err
		}
		t = time.Now()
		err = flexDF.SetChannels(plan.Channels)
		flexFPS := flexDF.FPS()
		flexE := flexAcc.EnergyPerInference()
		if err == nil {
			err = flexDF.SetChannels(flexDF.WorstChannels)
		}
		st.flexMS += msSince(t)
		if err != nil {
			return st, err
		}
		if fixedDF.FPS() != e.FixedFPS || flexFPS != e.FlexFPS || flexE != e.FlexEnergyPerInfJ ||
			!reflect.DeepEqual(plan.Channels, e.Channels) {
			return st, fmt.Errorf("replay of rate %v does not reproduce the library entry", e.NominalRate)
		}
	}
	return st, nil
}
