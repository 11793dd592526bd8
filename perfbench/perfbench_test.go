package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/edge"
)

var _ edge.Controller = (*timedController)(nil)

// TestControllerWrapperInterfaces: the timing wrapper implements an
// optional serving interface exactly when the wrapped controller does, so
// the run takes the same code paths traced and untraced.
func TestControllerWrapperInterfaces(t *testing.T) {
	inner := reflect.TypeOf(&edge.AdaFlowController{})
	wrapper := reflect.TypeOf(&timedController{})
	for _, it := range []reflect.Type{
		reflect.TypeOf((*edge.ReconfigAware)(nil)).Elem(),
		reflect.TypeOf((*edge.LibrarySwapper)(nil)).Elem(),
		reflect.TypeOf((*edge.ThresholdSetter)(nil)).Elem(),
		reflect.TypeOf((*edge.TracerAware)(nil)).Elem(),
		reflect.TypeOf((*edge.BoardSupervisor)(nil)).Elem(),
		reflect.TypeOf((*edge.PoolStatsReporter)(nil)).Elem(),
		reflect.TypeOf((*edge.BatchStatsReporter)(nil)).Elem(),
	} {
		if got, want := wrapper.Implements(it), inner.Implements(it); got != want {
			t.Errorf("%v: wrapper implements %v, wrapped controller %v", it, got, want)
		}
	}
}

// benchmarkSpec reads the metric names and units BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func units(rep *report) map[string]string {
	out := map[string]string{}
	for name, m := range rep.Metrics {
		out[name] = m.Unit
	}
	return out
}

// TestTracedRunMatchesUntraced runs the traced pass of every workload: the
// traced ops must pass their output checks and give the same run stats,
// cluster results, library tables and labels as the untraced ops, and the
// pass must report exactly the per-layer metrics BENCHMARK.json declares.
func TestTracedRunMatchesUntraced(t *testing.T) {
	_, perLayer := benchmarkSpec(t)
	var out bytes.Buffer
	rep, err := runTraced(&out, DefaultSeed, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || !rep.Correct {
		t.Fatalf("%d of %d traced ops failed:\n%s", rep.Failed, rep.Attempted, out.String())
	}
	if got := units(rep); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("traced metrics %v\nBENCHMARK.json per_layer %v", got, perLayer)
	}
}

// TestEndToEndMetrics: one short end-to-end run passes its output checks
// and reports exactly the end-to-end metrics BENCHMARK.json declares.
func TestEndToEndMetrics(t *testing.T) {
	endToEnd, _ := benchmarkSpec(t)
	w, _ := workloadByName("serve-event")
	rep, err := runEndToEnd(io.Discard, w, DefaultSeed, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("attempted %d, failed %d", rep.Attempted, rep.Failed)
	}
	if got := units(rep); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("metrics %v\nBENCHMARK.json end_to_end %v", got, endToEnd)
	}
}

// TestCalibKernel: the calibration kernel runs between timed ops, so it
// must allocate nothing (or it would move the alloc and GC metrics) and
// must report a positive CPU time.
func TestCalibKernel(t *testing.T) {
	k := newCalibKernel()
	if ms := k.run(); ms <= 0 {
		t.Errorf("calibration kernel took %v ms of CPU", ms)
	}
	if allocs := testing.AllocsPerRun(10, func() { k.run() }); allocs != 0 {
		t.Errorf("calibration kernel allocates %v objects per run", allocs)
	}
}

func TestCheckFrames(t *testing.T) {
	for _, c := range []struct {
		name                                    string
		arrived, processed, dropped, dropsTotal float64
		ok                                      bool
	}{
		{"conserved", 100, 90, 10, 10, true},
		{"frames in flight", 100, 85, 10, 10, true},
		{"more in flight than queued", 100, 80, 10, 10, false},
		{"frames from nowhere", 100, 95, 10, 10, false},
		{"drop without a cause", 100, 90, 10, 9, false},
	} {
		if err := checkFrames(c.arrived, c.processed, c.dropped, c.dropsTotal, 5); (err == nil) != c.ok {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
}

// TestBadArguments: argument errors exit non-zero without a result line.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "infer", "--seconds", "0"},
		{"--workload", "infer", "--trace", "2"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
