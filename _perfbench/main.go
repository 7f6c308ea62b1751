// Command perfbench is the simulator's end-to-end and per-layer benchmark.
//
// One invocation runs one workload. It builds the workload's world, checks
// that the runs it is about to time reproduce a cold reference run, runs
// campaigns back to back (closed loop: the next campaign starts when the
// previous one has finished) for --seconds of host time, checks every
// campaign's output, and prints every metric by name and unit. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
//
//	bash _perfbench/run.sh --workload testbed-msd87 --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// reports per-layer metrics from a separate traced run, which wraps the
// scheduler in a pass-through decorator and times calls into each layer
// from outside; nothing inside the simulator is instrumented. All times
// are host time; simulated quantities carry a sim unit. README.md lists
// every metric, every workload and why it was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported by an
// untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_ms.p50", "ms"},
	{"run_ms.p90", "ms"},
	{"tasks_per_s", "1/s"},
	{"alloc_bytes_per_run", "B"},
	{"allocs_per_run", "count"},
	{"peak_rss_mb", "MB"},
}

// hookNames are the scheduler hooks the traced run counts and times, in
// hook order.
var hookNames = [numHooks]string{"assign_map", "assign_reduce", "control_tick", "task_complete", "slot_change"}

// perLayer are the metrics of single layers, reported by a traced run
// (--trace 1).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"mapreduce.offers_per_run", "count"},
		{"mapreduce.offers_per_task", "ratio"},
		{"mapreduce.offer_hit_ratio.map", "ratio"},
		{"mapreduce.offer_hit_ratio.reduce", "ratio"},
		{"mapreduce.self_ms", "ms"},
		{"mapreduce.build_ms", "ms"},
		{"mapreduce.reset_ms", "ms"},
		{"setup.cluster_ms", "ms"},
		{"setup.jobs_ms", "ms"},
		{"setup.world_ms", "ms"},
	}
	for _, h := range hookNames {
		defs = append(defs,
			metricDef{"sched." + h + ".calls", "count"},
			metricDef{"sched." + h + ".ns_per_call", "ns"})
	}
	return append(defs,
		metricDef{"sched.hook_share", "ratio"},
		metricDef{"sim.events_per_run", "count"},
		metricDef{"sim.events_per_task", "ratio"},
		metricDef{"sim.hours_per_run", "sim_h"},
		metricDef{"parallel.busy_ratio", "ratio"},
		metricDef{"parallel.cell_ms.max", "ms"},
		metricDef{"gc.cycles_per_run", "count"},
		metricDef{"gc.pause_ms_per_run", "ms"},
		metricDef{"mapreduce.local_map_ratio", "ratio"},
		metricDef{"fault.crashes", "count"},
		metricDef{"fault.task_failures", "count"},
		metricDef{"fault.map_outputs_lost", "count"},
		metricDef{"power.sleeps", "count"},
		metricDef{"power.wakes", "count"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}()

// options configure one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the repository root; the fig8 golden is read below it.
	root string
	// setups is how many times the world is set up; setup_s and the
	// setup.* metrics are medians over them.
	setups int
	// minRuns is the fewest campaigns a measured window holds, however
	// short --seconds is.
	minRuns int
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict: the last line of its output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// samples is the number of campaigns the run_ms percentiles come
	// from; it is printed on a # line only.
	samples int
}

// tally counts correctness checks: every measured campaign, traced
// campaign and set-up gate is one attempt.
type tally struct{ attempted, failed int }

func (t *tally) check(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// manifest identifies what produced a benchmark output.
type manifest struct {
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NProc       int     `json:"nproc"`
	VCSRevision string  `json:"vcs_revision"`
	VCSModified string  `json:"vcs_modified"`
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	SpecHash    string  `json:"spec_hash"`
	Trace       bool    `json:"trace"`
	Seconds     float64 `json:"seconds"`
}

func newManifest(o options, specHash string) manifest {
	m := manifest{
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		VCSRevision: "unknown",
		VCSModified: "unknown",
		Workload:    o.workload,
		Seed:        o.seed,
		SpecHash:    specHash,
		Trace:       o.trace,
		Seconds:     o.seconds,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.VCSRevision = s.Value
			case "vcs.modified":
				m.VCSModified = s.Value
			}
		}
	}
	return m
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs the benchmark and writes its output. It
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	o := options{setups: 21, minRuns: 3}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.String("seed", "", "workload seed (default: the workload's default seed)")
	fs.Float64Var(&o.seconds, "seconds", 25, "host seconds to measure")
	traceFlag := fs.Int("trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	fs.StringVar(&o.root, "root", ".", "repository root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(names, ", "))
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	o.trace = *traceFlag == 1
	o.seed = w.defaultSeed
	if *seed != "" {
		n, err := strconv.ParseInt(*seed, 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: bad --seed: %v\n", err)
			return 2
		}
		o.seed = n
	}
	if o.seconds <= 0 || math.IsNaN(o.seconds) || math.IsInf(o.seconds, 0) {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %v\n", o.seconds)
		return 2
	}

	res, man, err := bench(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := report(stdout, res, man); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// report writes the manifest line, one human-readable line per metric,
// and the JSON result as the last line.
func report(w io.Writer, res result, man manifest) error {
	line, err := json.Marshal(map[string]manifest{"manifest": man})
	if err != nil {
		return err
	}
	var b strings.Builder
	b.Write(line)
	b.WriteByte('\n')
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(&b, "# %-36s %18.6f %s\n", name, m.Value, m.Unit)
	}
	if res.samples > 0 {
		fmt.Fprintf(&b, "# %-36s %18d %s\n", "run_ms.samples", res.samples, "count")
	}
	fmt.Fprintf(&b, "# %-36s %18.6f %s\n", "fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	b.Write(last)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// bench sets the workload up, measures it and returns its metrics.
func bench(w workloadDef, o options) (result, manifest, error) {
	t := &tally{}
	c, st, err := w.prepare(o.seed)
	if err != nil {
		return result{}, manifest{}, fmt.Errorf("set-up: %w", err)
	}
	setups := []setupTimes{st}
	// The other set-ups are spread over the (first) measured window, so
	// that their median spans the host's slow and fast spells instead of
	// sampling a single half second of them.
	var setupErr error
	setup := func() {
		_, st, err := w.prepare(o.seed)
		if err != nil && setupErr == nil {
			setupErr = err
		}
		setups = append(setups, st)
	}
	man := newManifest(o, c.specHash())
	if err := c.gate(o, t); err != nil {
		return result{}, man, fmt.Errorf("reference run: %w", err)
	}
	metrics := make(map[string]metricValue)
	samples := 0
	put := func(defs []metricDef, name string, v float64) {
		for _, d := range defs {
			if d.name == name {
				metrics[name] = metricValue{Value: v, Unit: d.unit}
				return
			}
		}
		panic("perfbench: unregistered metric " + name)
	}

	if !o.trace {
		win := measure(o.seconds, o.minRuns, t, c.run, o.setups-1, setup)
		if setupErr != nil {
			return result{}, man, fmt.Errorf("set-up: %w", setupErr)
		}
		ms := win.runMs()
		var totals []float64
		for _, s := range setups {
			totals = append(totals, s.total.Seconds())
		}
		n := float64(len(win.runs))
		put(endToEnd, "setup_s", median(totals))
		put(endToEnd, "run_ms.p50", percentile(ms, 0.50))
		put(endToEnd, "run_ms.p90", percentile(ms, 0.90))
		put(endToEnd, "tasks_per_s", float64(win.tasks)/win.wall.Seconds())
		put(endToEnd, "alloc_bytes_per_run", float64(win.allocBytes)/n)
		put(endToEnd, "allocs_per_run", float64(win.allocs)/n)
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, man, err
		}
		put(endToEnd, "peak_rss_mb", rss)
		samples = len(win.runs)
	} else {
		plain := measure(o.seconds/3, o.minRuns, t, c.run, o.setups-1, setup)
		if setupErr != nil {
			return result{}, man, fmt.Errorf("set-up: %w", setupErr)
		}
		acc := &layers{}
		if err := c.prepareTrace(o.setups, acc, t); err != nil {
			return result{}, man, fmt.Errorf("traced world: %w", err)
		}
		traced := measure(2*o.seconds/3, o.minRuns, t, func() (int, bool, error) { return c.traced(acc) }, 0, nil)
		layerMetrics(acc, setups, plain, traced, func(name string, v float64) { put(perLayer, name, v) })
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics, samples: samples}, man, nil
}

// window is one measured stretch of back-to-back campaigns.
type window struct {
	runs       []time.Duration
	tasks      int
	wall       time.Duration
	allocBytes uint64
	allocs     uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func (w window) runMs() []float64 {
	ms := make([]float64, len(w.runs))
	for i, d := range w.runs {
		ms[i] = msOf(d)
	}
	return ms
}

// add accumulates the runtime statistics between two snapshots.
func (w *window) add(from, to *runtime.MemStats) {
	w.allocBytes += to.TotalAlloc - from.TotalAlloc
	w.allocs += to.Mallocs - from.Mallocs
	w.gcCycles += to.NumGC - from.NumGC
	w.gcPause += time.Duration(to.PauseTotalNs - from.PauseTotalNs)
}

// measure runs campaigns back to back until seconds have passed and at
// least minRuns have finished. Every campaign counts as one correctness
// attempt; one that errors or fails its check counts as failed.
//
// Between campaigns it calls setup setups times, evenly over the window.
// The window's wall time and runtime statistics leave out those calls and
// the collection of the garbage they leave.
func measure(seconds float64, minRuns int, t *tally, once func() (tasks int, ok bool, err error), setups int, setup func()) window {
	var w window
	var from, to runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&from)
	limit := time.Duration(seconds * float64(time.Second))
	every := limit / time.Duration(setups+1)
	start := time.Now()
	var paused time.Duration
	done := 0
	for len(w.runs) < minRuns || time.Since(start)-paused < limit {
		t0 := time.Now()
		tasks, ok, err := once()
		w.runs = append(w.runs, time.Since(t0))
		t.check(ok && err == nil)
		w.tasks += tasks
		if done < setups && time.Since(start)-paused >= every*time.Duration(done+1) {
			p0 := time.Now()
			runtime.ReadMemStats(&to)
			w.add(&from, &to)
			setup()
			runtime.GC()
			runtime.ReadMemStats(&from)
			paused += time.Since(p0)
			done++
		}
	}
	w.wall = time.Since(start) - paused
	runtime.ReadMemStats(&to)
	w.add(&from, &to)
	for ; done < setups; done++ {
		setup()
	}
	return w
}

// percentile returns the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
