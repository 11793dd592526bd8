package fault

import (
	"reflect"
	"testing"
)

// A fault-free injector seeds no stream: NewInjector(nil, seed) costs the
// Injector itself and nothing else.
func TestNilPlanSeedsNoStream(t *testing.T) {
	in, err := NewInjector(nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	for k, s := range in.streams {
		if s != nil {
			t.Fatalf("nil plan seeded the %s stream", Kind(k))
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := NewInjector(nil, 7); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("NewInjector(nil) = %v allocs, want <= 1 (no rand.Source)", allocs)
	}
}

// A plan seeds exactly the streams of the kinds it has rules for.
func TestPlanSeedsOnlyPlannedKinds(t *testing.T) {
	p := &Plan{Rules: []Rule{
		{Kind: SensorSpike, Prob: 0.5},
		{Kind: BoardCrash, Prob: 0.1, Board: AnyBoard},
		{Kind: SensorSpike, Prob: 0.2, Start: 3},
	}}
	in, err := NewInjector(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	for k, s := range in.streams {
		want := Kind(k) == SensorSpike || Kind(k) == BoardCrash
		if (s != nil) != want {
			t.Fatalf("%s stream seeded = %v, want %v", Kind(k), s != nil, want)
		}
	}
}

// drawAll queries every draw site once per step and records, per kind,
// what that kind's rules decided at each query.
func drawAll(in *Injector, steps int) [numKinds][]float64 {
	var rec [numKinds][]float64
	add := func(k Kind, vs ...float64) { rec[k] = append(rec[k], vs...) }
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	for i := 0; i < steps; i++ {
		now := float64(i) * 0.1
		obs, ok := in.Observe(now, 100)
		add(SensorDropout, b2f(!ok))
		if ok {
			add(SensorSpike, obs)
		}
		add(AccuracyDrift, in.Drift(now), in.DriftSpan(now, now+0.1))
		add(DriftSustained, in.Sustained(now), in.SustainedSpan(now, now+0.1))
		r := in.Reconfig(now)
		add(ReconfigFail, b2f(r.Failed))
		if !r.Failed {
			add(ReconfigStall, r.StallFactor)
		}
		for b := 0; b < 3; b++ {
			o := in.Board(now, b)
			add(BoardCrash, b2f(o.Crash), o.CrashRepair)
			add(BoardHang, b2f(o.Hang), o.HangFor)
			add(FrameCorrupt, b2f(o.Corrupt), o.CorruptFrac, o.CorruptFor)
			add(BoardBrownout, b2f(o.Brownout), o.BrownoutFactor, o.BrownoutFor)
		}
	}
	return rec
}

// ruleOf returns an always-active rule of kind k that fires often enough
// to move its record.
func ruleOf(k Kind, prob float64) Rule {
	r := Rule{Kind: k, Prob: prob}
	if boardLevel(k) {
		r.Board = AnyBoard
	}
	if k == DriftSustained {
		r.Start, r.End, r.Slope, r.Mag = 1, 20, 0.05, -0.1
	}
	return r
}

// Streams are seeded per kind name, so a kind's draws cannot depend on
// which other kinds the plan holds. For each kind, a one-rule plan and the
// same rule among rules of every other kind (before and after it in plan
// order) must decide identically at every query. A rule that preempts
// the kind's query is kept but never fires (p=0): a dropout skips the
// spike draw and a failed reconfiguration skips the stall draw, which is
// "the first fault wins", not stream coupling.
func TestKindDrawsIndependentOfOtherKinds(t *testing.T) {
	const steps, seed = 300, 11
	for k := Kind(0); k < numKinds; k++ {
		prob := 0.5
		if k == DriftSustained {
			prob = 1
		}
		alone, err := NewInjector(&Plan{Rules: []Rule{ruleOf(k, prob)}}, seed)
		if err != nil {
			t.Fatal(err)
		}
		var rules []Rule
		for o := Kind(0); o < numKinds; o++ {
			if o == k {
				rules = append(rules, ruleOf(k, prob))
				continue
			}
			p := 0.5
			if (k == SensorSpike && o == SensorDropout) || (k == ReconfigStall && o == ReconfigFail) {
				p = 0
			}
			rules = append(rules, ruleOf(o, p))
		}
		mixed, err := NewInjector(&Plan{Rules: rules}, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, got := drawAll(alone, steps)[k], drawAll(mixed, steps)[k]
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: draws changed when rules of every other kind were added", k)
		}
		moved := false
		for _, v := range want {
			moved = moved || v != want[0]
		}
		if !moved {
			t.Fatalf("%s: record never changed; the rule does not exercise its draws", k)
		}
	}
}
