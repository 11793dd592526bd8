package edge

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestRateTraceJSONLRoundTrip: write → read is lossless (float64 values
// survive the JSONL encoding exactly).
func TestRateTraceJSONLRoundTrip(t *testing.T) {
	tr, err := CaptureRateTrace(scenario(t, "paper12"), 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatalf("JSONL round trip changed the trace:\n  %+v\n  %+v", tr, back)
	}
}

// TestReplayRoundTrip is the tentpole's replay contract: record a run's
// rate trace to JSONL, replay it through the grammar's replay:file=
// primitive, and the replayed run is bit-identical — same RunStats, same
// per-step curves and switch timeline, same decision trace — in both
// simulation modes.
func TestReplayRoundTrip(t *testing.T) {
	lib := paperLib(t)
	const seed = 9
	scn := scenario(t, "paper12")

	tr, err := CaptureRateTrace(scn, seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, err := ParseScenario(fmt.Sprintf("replay:file=%s", path))
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Name != scn.Name {
		t.Fatalf("replay renamed the scenario %q -> %q (RNG stream labels would change)", scn.Name, replayed.Name)
	}

	modes := []struct {
		name string
		run  func(s Scenario, ctl Controller, opts ...RunOption) (*Result, error)
	}{
		{"fluid", func(s Scenario, ctl Controller, opts ...RunOption) (*Result, error) {
			return Run(s, ctl, SimConfig{Seed: seed, RecordTrace: true}, opts...)
		}},
		{"event-level", func(s Scenario, ctl Controller, opts ...RunOption) (*Result, error) {
			return RunEventLevel(s, ctl, SimConfig{Seed: seed, RecordTrace: true}, opts...)
		}},
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			run := func(s Scenario) (*Result, string) {
				var buf bytes.Buffer
				sink := obs.NewJSONL(&buf)
				trc := obs.New(obs.Filter(sink, func(ev obs.Event) bool {
					return ev.Cat == obs.ManagerCat
				}))
				res, err := mode.run(s, adaflow(t, lib), WithTracer(trc))
				if err != nil {
					t.Fatal(err)
				}
				if err := sink.Flush(); err != nil {
					t.Fatal(err)
				}
				return res, buf.String()
			}
			orig, origDec := run(scn)
			rep, repDec := run(replayed)
			if !reflect.DeepEqual(orig.RunStats, rep.RunStats) {
				t.Errorf("replay changed RunStats:\norig   %+v\nreplay %+v", orig.RunStats, rep.RunStats)
			}
			if !reflect.DeepEqual(orig.Trace, rep.Trace) {
				t.Errorf("replay changed the per-step trace")
			}
			if !reflect.DeepEqual(orig.Switches, rep.Switches) {
				t.Errorf("replay changed the switch timeline")
			}
			if origDec != repDec {
				t.Errorf("replay changed the decision trace:\n%s", diffLines(origDec, repDec))
			}
		})
	}
}
