package main

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one set of generated inputs and the op the benchmark times
// on them.
type workload struct {
	name string
	// sim marks workloads whose op is a simulation run: they report
	// simulated frames per host second and frame loss; qoe adds the
	// simulated QoE.
	sim, qoe bool
	setup    func(seed int64) (runner, error)
}

// runner holds one workload's set-up state.
type runner interface {
	// op runs op number i untraced and checks its output; a failed check
	// is returned as an error.
	op(i int) (outcome, error)
	// traced runs op i through the instrumented path, adds its layer
	// metrics to l, and returns an outcome whose ident must equal the
	// untraced op's.
	traced(i int, l *layers) (outcome, error)
}

// outcome is what one op produced.
type outcome struct {
	// frames, qoe and loss are the simulated frames arrived, QoE and
	// frame loss of a simulation op.
	frames, qoe, loss float64
	// ident is the op's output that traced and untraced runs must agree
	// on: run stats, cluster result, library table or label.
	ident any
	// ms is the host time of the instrumented call itself in a traced op,
	// excluding any stage replay done after it.
	ms float64
}

// labelMatcher is implemented by the infer runner: the share of labels on
// the default path equal to the float reference path, from set-up.
type labelMatcher interface {
	labelMatch() (match, total int)
}

var workloads = []workload{
	{name: "libgen", setup: setupLibgen},
	{name: "serve-event", sim: true, qoe: true, setup: setupServe},
	{name: "fleet", sim: true, setup: setupFleet},
	{name: "infer", setup: setupInfer},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// maxFailurePrints bounds how many failed ops a run describes.
const maxFailurePrints = 5

// runEndToEnd sets the workload up setupRuns times, then issues ops in a
// closed loop for the budget (at least one op), running the calibration
// kernel after each op, and reports the end-to-end metrics.
func runEndToEnd(out io.Writer, w workload, seed int64, budget time.Duration) (*report, error) {
	cal := newCalibKernel()
	cal.run() // warm up its buffers and code
	setups := make([]float64, 0, setupRuns)
	setupWall := make([]float64, 0, setupRuns)
	setupCals := make([]float64, 0, setupRuns*setupCalRuns)
	var r runner
	for k := 0; k < setupRuns; k++ {
		r = nil // let the previous set-up's state go before timing the next
		runtime.GC()
		c0, t0 := cpuTime(clockProcessCPU), time.Now()
		rr, err := w.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, (cpuTime(clockProcessCPU) - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
		r = rr
		for j := 0; j < setupCalRuns; j++ {
			setupCals = append(setupCals, cal.run())
		}
	}
	runtime.GC()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lat := make([]float64, 0, 4096)
	cpu := make([]float64, 0, 4096)
	cals := make([]float64, 0, 4096)
	var frames, qoe, loss float64
	var opTime time.Duration
	failed := 0
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		c0, t0 := cpuTime(clockProcessCPU), time.Now()
		o, err := r.op(i)
		d, c := time.Since(t0), cpuTime(clockProcessCPU)-c0
		opTime += d
		lat = append(lat, float64(d.Nanoseconds())/1e6)
		cpu = append(cpu, float64(c.Nanoseconds())/1e6)
		cals = append(cals, cal.run())
		if err != nil {
			if failed < maxFailurePrints {
				fmt.Fprintf(out, "# op %d failed: %v\n", i, err)
			}
			failed++
			continue
		}
		frames += o.frames
		qoe += o.qoe
		loss += o.loss
	}
	runtime.ReadMemStats(&after)
	wall := opTime.Seconds()

	n := len(lat)
	done := n - failed
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	rep := &report{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: map[string]metric{}}
	say := func(name, unit string, v float64, note string) {
		fmt.Fprintf(out, "%-18s %14.6g %-8s %s\n", name, v, unit, note)
	}
	put := func(name, unit string, v float64, note string) {
		rep.Metrics[name] = metric{Value: v, Unit: unit}
		say(name, unit, v, note)
	}
	p50, p90 := quantile(sorted, 0.5), quantile(sorted, 0.9)
	p90note := fmt.Sprintf("n=%d ops, %d beyond p90", n, n-int(math.Ceil(0.9*float64(n))))
	if n < 100 {
		p90note += " (fewer than 10 beyond it: under-sampled)"
	}
	sort.Float64s(cpu)
	cpu50, cpu90 := quantile(cpu, 0.5), quantile(cpu, 0.9)
	calMS := median(cals)
	setupCPU, setupCalMS := median(setups), median(setupCals)
	put("setup_s", "s", setupCPU*calRefMS/setupCalMS, fmt.Sprintf("setup_cpu_s scaled to a %g ms calibration kernel", calRefMS))
	put("op_cal_p50", "cal", cpu50/calMS, fmt.Sprintf("op_cpu_ms_p50 over cal_ms, n=%d ops", n))
	put("op_cal_p90", "cal", cpu90/calMS, "op_cpu_ms_p90 over cal_ms, "+p90note)
	put("alloc_mb_per_op", "MB", float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(n), "runtime.MemStats delta over the timed loop")
	put("allocs_per_op", "count", float64(after.Mallocs-before.Mallocs)/float64(n), "runtime.MemStats delta over the timed loop")
	put("max_rss_mb", "MB", maxRSSMB(), "peak RSS of this process, set-up included")
	// The metrics below are printed, not gated. The host times swing with
	// the load of other tenants on a shared machine; the op_cal_* ratios
	// above carry them steadily. The others apply to some workloads only,
	// and fail_pct is 0 by design; the JSON line carries it as
	// failed/attempted.
	say("setup_cpu_s", "s", setupCPU, fmt.Sprintf("process CPU time, median of %d set-ups; calibration kernel %.4g ms over them", setupRuns, setupCalMS))
	say("setup_wall_s", "s", median(setupWall), fmt.Sprintf("host time, median of %d set-ups", setupRuns))
	say("cal_ms", "ms", calMS, fmt.Sprintf("median CPU time of the calibration kernel, run after each of %d ops", n))
	say("op_cpu_ms_p50", "ms", cpu50, "process CPU time per op, all threads")
	say("op_cpu_ms_p90", "ms", cpu90, "process CPU time per op, all threads")
	say("ops_per_s", "ops/s", float64(done)/wall, fmt.Sprintf("%d ops in %.2f s of op time", done, wall))
	say("op_ms_p50", "ms", p50, fmt.Sprintf("n=%d ops", n))
	say("op_ms_p90", "ms", p90, p90note)
	say("fail_pct", "%", 100*float64(failed)/float64(n), fmt.Sprintf("%d of %d ops failed an output check", failed, n))
	if done > 0 && w.sim {
		say("sim_frames_per_s", "frames/s", frames/wall, "simulated frames arrived per host second of op time")
		if w.qoe {
			say("sim_qoe_pct", "%", qoe/float64(done), fmt.Sprintf("mean over %d ops", done))
		}
		say("sim_loss_pct", "%", loss/float64(done), fmt.Sprintf("mean over %d ops", done))
	}
	if lm, ok := r.(labelMatcher); ok {
		m, t := lm.labelMatch()
		say("label_match_pct", "%", 100*float64(m)/float64(t), fmt.Sprintf("%d of %d labels equal the float reference path (reported, not gated)", m, t))
	}
	return rep, nil
}

// runTraced runs every workload's traced pass for an equal share of the
// budget, because the per-layer metric set spans all four workloads. Each
// iteration runs the same op untraced and traced, in alternating order,
// and counts any difference in their outputs as a failure.
func runTraced(out io.Writer, seed int64, budget time.Duration) (*report, error) {
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	share := budget / time.Duration(len(workloads))
	for _, w := range workloads {
		r, err := w.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		runtime.GC()
		l := newLayers()
		var plain, traced []float64
		failed := 0
		start := time.Now()
		for i := 0; i < 2 || time.Since(start) < share; i++ {
			var a, b outcome
			var errA, errB error
			runPlain := func() {
				t0 := time.Now()
				a, errA = r.op(i)
				plain = append(plain, msSince(t0))
			}
			if i%2 == 0 {
				runPlain()
			}
			b, errB = r.traced(i, l)
			traced = append(traced, b.ms)
			if i%2 == 1 {
				runPlain()
			}
			switch {
			case errA != nil || errB != nil:
				err = fmt.Errorf("untraced: %v; traced: %v", errA, errB)
			case !reflect.DeepEqual(a.ident, b.ident):
				err = fmt.Errorf("traced output differs from untraced output")
			default:
				err = nil
			}
			if err != nil {
				if failed < maxFailurePrints {
					fmt.Fprintf(out, "# %s op %d failed: %v\n", w.name, i, err)
				}
				failed++
			}
		}
		rep.Attempted += len(traced)
		rep.Failed += failed
		fmt.Fprintf(out, "# %s: %d traced ops, %d failed; layer values are means per traced op\n", w.name, len(traced), failed)
		l.report(out, rep.Metrics, len(traced))
		sort.Float64s(plain)
		sort.Float64s(traced)
		name := "trace." + w.name + ".overhead_ms"
		v := quantile(traced, 0.5) - quantile(plain, 0.5)
		rep.Metrics[name] = metric{Value: v, Unit: "ms"}
		fmt.Fprintf(out, "%-34s %14.6g %-6s traced minus untraced op_ms_p50\n", name, v, "ms")
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// layers accumulates per-layer metrics over traced ops.
type layers struct {
	order []string
	vals  map[string]*layerVal
}

type layerVal struct {
	sum  float64
	unit string
	note string
}

func newLayers() *layers { return &layers{vals: map[string]*layerVal{}} }

// add adds one traced op's value of a metric.
func (l *layers) add(name, unit string, v float64) { l.addNote(name, unit, v, "") }

// addNote is add with a note printed beside the metric.
func (l *layers) addNote(name, unit string, v float64, note string) {
	lv := l.vals[name]
	if lv == nil {
		lv = &layerVal{unit: unit, note: note}
		l.vals[name] = lv
		l.order = append(l.order, name)
	}
	lv.sum += v
}

// report prints each metric's mean over ops and stores it in m.
func (l *layers) report(out io.Writer, m map[string]metric, ops int) {
	for _, name := range l.order {
		lv := l.vals[name]
		v := lv.sum / float64(ops)
		m[name] = metric{Value: v, Unit: lv.unit}
		fmt.Fprintf(out, "%-34s %14.6g %-6s %s\n", name, v, lv.unit, lv.note)
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
