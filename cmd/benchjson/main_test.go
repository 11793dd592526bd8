package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
BenchmarkLibraryGenerate/serial-4         	       7	 163348358 ns/op	    1200 B/op	      30 allocs/op
BenchmarkLibraryGenerate/parallel-4       	      25	  47051234 ns/op	    1300 B/op	      31 allocs/op
BenchmarkAblationFoldingExplorer-4        	      50	  21054321 ns/op	   45056 LUT-at-460fps	   92160 LUT-at-1800fps
PASS
ok  	repro	12.345s
`

func TestParse(t *testing.T) {
	got, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(got))
	}
	serial, ok := got["BenchmarkLibraryGenerate/serial"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped from name")
	}
	if serial.Iterations != 7 || serial.Metrics["ns/op"] != 163348358 {
		t.Fatalf("serial = %+v", serial)
	}
	abl := got["BenchmarkAblationFoldingExplorer"]
	if abl.Metrics["LUT-at-460fps"] != 45056 || abl.Metrics["LUT-at-1800fps"] != 92160 {
		t.Fatalf("custom ReportMetric units lost: %+v", abl.Metrics)
	}
	if abl.Metrics["allocs/op"] != 0 {
		t.Fatal("unexpected allocs metric on -benchmem-less line")
	}
}

// With -count>1 the same benchmark appears repeatedly; the parser keeps
// the fastest run.
func TestParseKeepsFastestOfRepeats(t *testing.T) {
	in := `BenchmarkGemm-8   10   200 ns/op
BenchmarkGemm-8   12   150 ns/op
BenchmarkGemm-8   11   180 ns/op
`
	got, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	r := got["BenchmarkGemm"]
	if r.Metrics["ns/op"] != 150 || r.Iterations != 12 {
		t.Fatalf("kept %+v, want the 150 ns/op run", r)
	}
}

func TestParseRejectsMalformedMetrics(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkX-4  5  123 ns/op trailing\n")); err == nil {
		t.Fatal("odd field count accepted")
	}
}

func TestCheck(t *testing.T) {
	base := map[string]Result{
		"BenchmarkA": {Metrics: map[string]float64{"ns/op": 100}},
		"BenchmarkB": {Metrics: map[string]float64{"ns/op": 100}},
		"BenchmarkC": {Metrics: map[string]float64{"ns/op": 100}},
	}
	got := map[string]Result{
		"BenchmarkA": {Metrics: map[string]float64{"ns/op": 110}}, // +10%: within tol
		"BenchmarkB": {Metrics: map[string]float64{"ns/op": 150}}, // +50%: regression
		"BenchmarkD": {Metrics: map[string]float64{"ns/op": 999}}, // not in baseline: skipped
	}
	report, failed := Check(got, base, 0.25)
	if !failed {
		t.Fatal("+50% regression passed a 25% tolerance")
	}
	if !strings.Contains(report, "FAIL") || !strings.Contains(report, "BenchmarkB") {
		t.Fatalf("report does not flag BenchmarkB:\n%s", report)
	}
	if strings.Contains(report, "BenchmarkD") {
		t.Fatalf("non-overlapping benchmark compared:\n%s", report)
	}

	got["BenchmarkB"] = Result{Metrics: map[string]float64{"ns/op": 50}} // speedup
	if _, failed := Check(got, base, 0.25); failed {
		t.Fatal("a speedup was reported as a regression")
	}
}

// allocs/op and B/op are gated at 5% whatever the ns/op tolerance: a
// benchmark that keeps its speed but allocates more fails, one that
// allocates less or within 5% passes.
func TestCheckGatesAllocations(t *testing.T) {
	base := map[string]Result{
		"BenchmarkA": {Metrics: map[string]float64{"ns/op": 100, "allocs/op": 100, "B/op": 1000}},
		"BenchmarkZ": {Metrics: map[string]float64{"ns/op": 100, "allocs/op": 0, "B/op": 0}},
	}
	cases := []struct {
		name     string
		metrics  map[string]float64
		fail     bool
		inReport string
	}{
		{"same", map[string]float64{"ns/op": 100, "allocs/op": 100, "B/op": 1000}, false, "ok"},
		{"within 5%", map[string]float64{"ns/op": 100, "allocs/op": 105, "B/op": 1050}, false, "ok"},
		{"fewer allocs", map[string]float64{"ns/op": 100, "allocs/op": 1, "B/op": 10}, false, "ok"},
		{"allocs +6%", map[string]float64{"ns/op": 100, "allocs/op": 106, "B/op": 1000}, true, "allocs/op 106 vs 100"},
		{"bytes +6%", map[string]float64{"ns/op": 90, "allocs/op": 100, "B/op": 1060}, true, "B/op 1060 vs 1000"},
		{"ns/op within loose tol", map[string]float64{"ns/op": 120, "allocs/op": 100, "B/op": 1000}, false, "ok"},
		{"no alloc columns", map[string]float64{"ns/op": 100}, false, "ok"},
	}
	for _, tc := range cases {
		report, failed := Check(map[string]Result{"BenchmarkA": {Metrics: tc.metrics}}, base, 0.25)
		if failed != tc.fail {
			t.Fatalf("%s: failed = %v, want %v:\n%s", tc.name, failed, tc.fail, report)
		}
		if !strings.Contains(report, tc.inReport) {
			t.Fatalf("%s: report lacks %q:\n%s", tc.name, tc.inReport, report)
		}
	}
	// A zero-alloc baseline admits no allocation at all.
	report, failed := Check(map[string]Result{"BenchmarkZ": {Metrics: map[string]float64{"ns/op": 100, "allocs/op": 1, "B/op": 8}}}, base, 0.25)
	if !failed || !strings.Contains(report, "allocs/op 1 vs 0") {
		t.Fatalf("allocation over a zero baseline passed:\n%s", report)
	}
}

// Baselines may carry "_"-prefixed annotation keys (e.g. the "_note"
// string -note embeds); the decoder must skip them and still reject
// malformed benchmark entries.
func TestDecodeBaselineSkipsAnnotations(t *testing.T) {
	in := `{
	  "_note": "1-core container; ns/op noisy",
	  "BenchmarkA": {"iterations": 5, "metrics": {"ns/op": 100}}
	}`
	base, err := decodeBaseline(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 1 || base["BenchmarkA"].Metrics["ns/op"] != 100 {
		t.Fatalf("decoded %+v", base)
	}
	if _, err := decodeBaseline(strings.NewReader(`{"BenchmarkA": "oops"}`)); err == nil {
		t.Fatal("malformed benchmark entry accepted")
	}
}

func TestCheckNoOverlap(t *testing.T) {
	report, failed := Check(
		map[string]Result{"BenchmarkX": {Metrics: map[string]float64{"ns/op": 1}}},
		map[string]Result{"BenchmarkY": {Metrics: map[string]float64{"ns/op": 1}}}, 0.1)
	if failed {
		t.Fatal("no-overlap compare failed")
	}
	if !strings.Contains(report, "no overlapping") {
		t.Fatalf("missing no-overlap notice:\n%s", report)
	}
}
