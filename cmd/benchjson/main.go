// Command benchjson converts `go test -bench` text output into a stable
// JSON map of benchmark name -> metrics, so benchmark baselines can be
// committed and diffed (scripts/bench.sh uses it to write BENCH_PR3.json).
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson [-o out.json]
//	benchjson [-o out.json] bench-output.txt
//	benchjson -check -baseline BENCH_PR3.json [-tol 0.25] bench-output.txt
//	benchjson -compare BENCH_PR7.json BENCH_PR8.json
//
// Standard columns (ns/op, B/op, allocs/op) and custom b.ReportMetric
// units are all captured; the trailing -N GOMAXPROCS suffix is stripped
// from names so baselines compare across machines.
//
// With -check, instead of writing JSON the input is compared against a
// baseline file: each benchmark present in both must not regress its
// ns/op by more than the -tol fraction, nor its allocs/op or B/op by more
// than 5%, or the command exits nonzero. ns/op is noisy on shared hosts,
// so -tol is loose; allocation counts are the stable signal, so their
// bound is fixed and tight. scripts/verify.sh uses this to guard the
// serving hot path and library generation.
//
// With -compare, the two positional arguments are committed baseline
// JSON files (old then new) and the output is a per-benchmark delta
// table over every metric the two have in common — how PR-over-PR
// baselines are read side by side without re-running anything.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches e.g.
//
//	BenchmarkLibraryGenerate/serial-4   7   163348358 ns/op   12 B/op   3 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// procSuffix is the -N GOMAXPROCS tail Go appends to benchmark names.
var procSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("o", "", "write JSON here instead of stdout")
	check := flag.Bool("check", false, "compare input against -baseline instead of emitting JSON")
	baseline := flag.String("baseline", "", "baseline JSON file (required with -check)")
	tol := flag.Float64("tol", 0.25, "allowed fractional ns/op regression with -check (allocs/op and B/op always allow 5%)")
	note := flag.String("note", "", "embed this string as a _note key in the output JSON")
	compare := flag.Bool("compare", false, "diff two committed baseline JSON files: benchjson -compare OLD NEW")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("-compare takes exactly two baseline files: OLD NEW")
		}
		old, err := loadBaseline(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		cur, err := loadBaseline(flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(CompareBaselines(old, cur))
		return
	}

	var in io.Reader = os.Stdin
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	} else if flag.NArg() > 1 {
		log.Fatal("at most one input file")
	}

	results, err := Parse(in)
	if err != nil {
		log.Fatal(err)
	}
	if len(results) == 0 {
		log.Fatal("no benchmark lines found in input")
	}

	if *check {
		if *baseline == "" {
			log.Fatal("-check requires -baseline")
		}
		f, err := os.Open(*baseline)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		base, err := decodeBaseline(f)
		if err != nil {
			log.Fatalf("bad baseline %s: %v", *baseline, err)
		}
		report, failed := Check(results, base, *tol)
		fmt.Print(report)
		if failed {
			log.Fatalf("benchmark regression: ns/op beyond %.0f%% or allocs/op, B/op beyond %.0f%%", *tol*100, memTol*100)
		}
		return
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	var doc any = results
	if *note != "" {
		annotated := make(map[string]any, len(results)+1)
		for name, r := range results {
			annotated[name] = r
		}
		annotated["_note"] = *note
		doc = annotated
	}
	if err := enc.Encode(doc); err != nil {
		log.Fatal(err)
	}
}

// loadBaseline opens and decodes one committed baseline file.
func loadBaseline(path string) (map[string]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base, err := decodeBaseline(f)
	if err != nil {
		return nil, fmt.Errorf("bad baseline %s: %v", path, err)
	}
	return base, nil
}

// decodeBaseline reads a baseline JSON map, skipping annotation keys that
// start with "_" (e.g. the "_note" string -note embeds) so they don't trip
// the Result decoder.
func decodeBaseline(r io.Reader) (map[string]Result, error) {
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, err
	}
	base := make(map[string]Result, len(raw))
	for name, msg := range raw {
		if strings.HasPrefix(name, "_") {
			continue
		}
		var res Result
		if err := json.Unmarshal(msg, &res); err != nil {
			return nil, fmt.Errorf("entry %q: %v", name, err)
		}
		base[name] = res
	}
	return base, nil
}

// Result holds one benchmark's metrics: the iteration count plus every
// "value unit" pair on its output line, keyed by unit.
type Result struct {
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Parse reads `go test -bench` output and returns name -> Result. A
// benchmark that appears multiple times (e.g. -count>1) keeps the run
// with the lowest ns/op, the conventional best-of reading.
func Parse(r io.Reader) (map[string]Result, error) {
	results := make(map[string]Result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := procSuffix.ReplaceAllString(m[1], "")
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad iteration count in %q: %v", sc.Text(), err)
		}
		metrics, err := parseMetrics(m[3])
		if err != nil {
			return nil, fmt.Errorf("line %q: %v", sc.Text(), err)
		}
		if prev, ok := results[name]; ok && prev.Metrics["ns/op"] <= metrics["ns/op"] {
			continue
		}
		results[name] = Result{Iterations: iters, Metrics: metrics}
	}
	return results, sc.Err()
}

// memTol is the fractional allocs/op and B/op growth Check allows.
// Allocation counts barely move between runs or machines, unlike ns/op,
// so they are gated tightly whatever the ns/op tolerance.
const memTol = 0.05

// Check compares measured results against a baseline. Benchmarks in only
// one of the two sets are skipped (the baseline may be broader or narrower
// than the run). A benchmark fails when its ns/op exceeds the baseline by
// more than tol (a fraction, e.g. 0.25 = +25%), or its allocs/op or B/op
// by more than memTol; improvements always pass. The returned report has
// one line per compared benchmark, sorted by name.
func Check(got, base map[string]Result, tol float64) (report string, failed bool) {
	names := make([]string, 0, len(got))
	for name := range got {
		if _, ok := base[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		cur, ref := got[name].Metrics, base[name].Metrics
		line := "(no ns/op to compare)"
		var over []string
		if c, r := cur["ns/op"], ref["ns/op"]; c > 0 && r > 0 {
			line = fmt.Sprintf("%12.0f ns/op vs %12.0f baseline (%+.1f%%)", c, r, (c/r-1)*100)
			if c/r > 1+tol {
				over = append(over, fmt.Sprintf("ns/op over %.0f%%", tol*100))
			}
		}
		for _, unit := range []string{"allocs/op", "B/op"} {
			c, okC := cur[unit]
			r, okR := ref[unit]
			if okC && okR && c > r*(1+memTol) {
				over = append(over, fmt.Sprintf("%s %.0f vs %.0f baseline, over %.0f%%", unit, c, r, memTol*100))
			}
		}
		verdict := "ok  "
		if len(over) > 0 {
			verdict = "FAIL"
			failed = true
			line += "; " + strings.Join(over, "; ")
		}
		fmt.Fprintf(&b, "%s  %-40s %s\n", verdict, name, line)
	}
	if len(names) == 0 {
		b.WriteString("no overlapping benchmarks to compare\n")
	}
	return b.String(), failed
}

// CompareBaselines renders a per-benchmark delta table between two
// committed baselines. Benchmarks present in both are diffed metric by
// metric (ns/op, B/op, allocs/op and any custom units they share);
// benchmarks present in only one side are listed so added or retired
// entries don't disappear silently from the comparison.
func CompareBaselines(old, cur map[string]Result) string {
	var b strings.Builder
	names := make([]string, 0, len(cur))
	for name := range cur {
		if _, ok := old[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%s\n", name)
		om, cm := old[name].Metrics, cur[name].Metrics
		units := make([]string, 0, len(cm))
		for unit := range cm {
			if _, ok := om[unit]; ok {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			ov, cv := om[unit], cm[unit]
			switch {
			case ov == cv:
				fmt.Fprintf(&b, "  %-14s %14.4g (unchanged)\n", unit, cv)
			case ov == 0:
				fmt.Fprintf(&b, "  %-14s %14.4g -> %14.4g\n", unit, ov, cv)
			default:
				fmt.Fprintf(&b, "  %-14s %14.4g -> %14.4g (%+.1f%%)\n", unit, ov, cv, (cv/ov-1)*100)
			}
		}
	}
	only := func(label string, a, ref map[string]Result) {
		var missing []string
		for name := range a {
			if _, ok := ref[name]; !ok {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
		for _, name := range missing {
			fmt.Fprintf(&b, "%s %s\n", label, name)
		}
	}
	only("only in old:", old, cur)
	only("only in new:", cur, old)
	if len(names) == 0 {
		b.WriteString("no overlapping benchmarks to compare\n")
	}
	return b.String()
}

// parseMetrics splits the tail of a benchmark line into unit -> value.
// Fields come in pairs: "163348358 ns/op 12 B/op 3 allocs/op".
func parseMetrics(tail string) (map[string]float64, error) {
	fields := strings.Fields(tail)
	if len(fields)%2 != 0 {
		return nil, fmt.Errorf("odd metric field count in %q", tail)
	}
	metrics := make(map[string]float64, len(fields)/2)
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, fmt.Errorf("bad metric value %q: %v", fields[i], err)
		}
		metrics[fields[i+1]] = v
	}
	return metrics, nil
}
