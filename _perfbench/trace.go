package main

import (
	"sort"
	"time"

	"eant/internal/cluster"
	"eant/internal/mapreduce"
)

// hook indexes the scheduler hooks the traced run observes.
type hook int

const (
	hookAssignMap hook = iota
	hookAssignReduce
	hookControlTick
	hookTaskComplete
	hookSlotChange
	numHooks
)

// stride is the 1-in-N sampling rate of hook timing. Every call is
// counted, but only every stride-th call of a hook reads the clock: a
// clock read costs tens of nanoseconds, and timing each of the ~780k
// offers of a fleet1024-sparse run would inflate it several times over
// and bury the layer shares the trace exists to show.
const stride = 64

// epoch anchors clock: time.Since on a time carrying a monotonic
// reading reads only the monotonic clock, half the cost of time.Now.
var epoch = time.Now()

// clock is the host's monotonic time in nanoseconds since epoch.
func clock() int64 { return int64(time.Since(epoch)) }

// clockCost is the median duration of an empty timed section, the
// overhead every timed hook sample carries and has subtracted.
var clockCost = func() int64 {
	const n = 4096
	d := make([]int64, n)
	for i := range d {
		t0 := clock()
		d[i] = clock() - t0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[n/2]
}()

// hookStat is one hook's tally.
type hookStat struct {
	calls uint64 // every call
	timed uint64 // calls whose duration was measured
	ns    int64  // total duration of the timed calls, clock cost removed
}

// estNs scales the timed calls' duration up to all calls.
func (h hookStat) estNs() float64 {
	if h.timed == 0 || h.ns <= 0 {
		return 0
	}
	return float64(h.ns) * float64(h.calls) / float64(h.timed)
}

// tracer is a pass-through mapreduce.Scheduler decorator: it forwards
// every hook to the wrapped policy unchanged and counts (and, on a
// stride, times) each call. It draws no randomness and touches no
// simulator state, so a traced run's statistics equal an untraced run's;
// the benchmark checks that on every traced campaign.
type tracer struct {
	inner mapreduce.Scheduler
	hooks [numHooks]hookStat
	// seq numbers each hook's calls for the stride. Unlike hooks, it
	// survives the reset between campaigns, so that a hook called fewer
	// than stride times per campaign is still sampled.
	seq        [numHooks]uint64
	mapHits    uint64 // AssignMap calls that returned a task
	reduceHits uint64 // AssignReduce calls that returned a task
}

// observingTracer is the tracer for a policy that is also a
// mapreduce.SlotObserver. The driver looks for that interface on the
// scheduler it is given, so the decorator implements it exactly when the
// wrapped policy does.
type observingTracer struct {
	*tracer
	obs mapreduce.SlotObserver
}

// newTracer wraps s. It returns the tracer, for reading its counts, and
// the scheduler to hand the driver.
func newTracer(s mapreduce.Scheduler) (*tracer, mapreduce.Scheduler) {
	t := &tracer{inner: s}
	if obs, ok := s.(mapreduce.SlotObserver); ok {
		return t, observingTracer{tracer: t, obs: obs}
	}
	return t, t
}

// begin reports whether this call of h is a timed one and, if so, reads
// the clock. It only loads: the tracer's counters are written after the
// wrapped call returns, in end. With the counters written before the
// call, a CPU profile of a fleet1024-sparse traced run charged a fifth of
// its time to E-Ant's first field load in AssignMap.
func (t *tracer) begin(h hook) (start int64, timed bool) {
	if (t.seq[h]+1)%stride != 0 {
		return 0, false
	}
	return clock(), true
}

// end counts the call of h and adds a timed call's duration.
func (t *tracer) end(h hook, start int64, timed bool) {
	s := &t.hooks[h]
	if timed {
		s.ns += clock() - start - clockCost
		s.timed++
	}
	s.calls++
	t.seq[h]++
}

func (t *tracer) Name() string { return t.inner.Name() }

func (t *tracer) AssignMap(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	start, timed := t.begin(hookAssignMap)
	task := t.inner.AssignMap(ctx, m)
	t.end(hookAssignMap, start, timed)
	if task != nil {
		t.mapHits++
	}
	return task
}

func (t *tracer) AssignReduce(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	start, timed := t.begin(hookAssignReduce)
	task := t.inner.AssignReduce(ctx, m)
	t.end(hookAssignReduce, start, timed)
	if task != nil {
		t.reduceHits++
	}
	return task
}

func (t *tracer) OnTaskComplete(ctx *mapreduce.Context, task *mapreduce.Task) {
	start, timed := t.begin(hookTaskComplete)
	t.inner.OnTaskComplete(ctx, task)
	t.end(hookTaskComplete, start, timed)
}

func (t *tracer) OnControlTick(ctx *mapreduce.Context) {
	start, timed := t.begin(hookControlTick)
	t.inner.OnControlTick(ctx)
	t.end(hookControlTick, start, timed)
}

func (o observingTracer) OnSlotFreeChange(ctx *mapreduce.Context, m cluster.Machine, kind mapreduce.TaskKind, delta int) {
	start, timed := o.begin(hookSlotChange)
	o.obs.OnSlotFreeChange(ctx, m, kind, delta)
	o.end(hookSlotChange, start, timed)
}

// layers accumulates a traced window's per-layer counts and times.
type layers struct {
	campaigns int
	workers   int
	tasks     int

	hooks      [numHooks]hookStat
	mapHits    uint64
	reduceHits uint64

	runNs      int64 // time inside Driver.Run
	cellNs     int64 // time inside cells (a warm campaign is one cell)
	campaignNs int64 // wall time of whole campaigns
	cellMaxMs  []float64
	buildMs    []float64 // NewDriver
	resetMs    []float64 // Driver.Reset
	events     uint64

	simTime    time.Duration // simulated makespan, summed
	localMaps  int
	totalMaps  int
	crashes    int
	failures   int
	outputLost int
	sleeps     int
	wakes      int
}

// addRun folds one finished driver run into the tally: its tracer's
// counts (which it then clears), its statistics and its engine's event
// count. It reports whether the tracer's offer counts equal the offers
// the driver itself recorded, which is part of the traced run's check
// that the decorator is a pure observer.
func (l *layers) addRun(t *tracer, s *mapreduce.Stats, events uint64, run time.Duration) bool {
	agree := t.hooks[hookAssignMap].calls == uint64(s.MapOffers) &&
		t.hooks[hookAssignReduce].calls == uint64(s.ReduceOffers)
	for h := range l.hooks {
		l.hooks[h].calls += t.hooks[h].calls
		l.hooks[h].timed += t.hooks[h].timed
		l.hooks[h].ns += t.hooks[h].ns
	}
	l.mapHits += t.mapHits
	l.reduceHits += t.reduceHits
	*t = tracer{inner: t.inner, seq: t.seq}

	l.tasks += s.TasksDone()
	l.runNs += int64(run)
	l.events += events
	l.simTime += s.Horizon
	l.localMaps += s.LocalMaps
	l.totalMaps += s.TotalMaps
	l.crashes += s.Crashes
	l.failures += s.TaskFailures
	l.outputLost += s.MapOutputsLost
	l.sleeps += s.Sleeps
	l.wakes += s.Wakes
	return agree
}

// layerMetrics derives the per-layer metrics from a traced window (acc,
// traced), the untraced window measured just before it (plain) and the
// set-up repetitions.
func layerMetrics(acc *layers, setups []setupTimes, plain, traced window, put func(string, float64)) {
	runs := float64(acc.campaigns)
	tasks := float64(acc.tasks)
	mapOffers := float64(acc.hooks[hookAssignMap].calls)
	reduceOffers := float64(acc.hooks[hookAssignReduce].calls)
	put("mapreduce.offers_per_run", ratio(mapOffers+reduceOffers, runs))
	put("mapreduce.offers_per_task", ratio(mapOffers+reduceOffers, tasks))
	put("mapreduce.offer_hit_ratio.map", ratio(float64(acc.mapHits), mapOffers))
	put("mapreduce.offer_hit_ratio.reduce", ratio(float64(acc.reduceHits), reduceOffers))

	var hookNs float64
	for h, s := range acc.hooks {
		est := s.estNs()
		hookNs += est
		put("sched."+hookNames[h]+".calls", ratio(float64(s.calls), runs))
		put("sched."+hookNames[h]+".ns_per_call", ratio(est, float64(s.calls)))
	}
	put("mapreduce.self_ms", ratio(float64(acc.runNs)-hookNs, runs)/1e6)
	put("sched.hook_share", ratio(hookNs, float64(acc.runNs)))
	put("mapreduce.build_ms", median(acc.buildMs))
	put("mapreduce.reset_ms", median(acc.resetMs))

	var cl, jobs, world []float64
	for _, s := range setups {
		cl = append(cl, msOf(s.cluster))
		jobs = append(jobs, msOf(s.jobs))
		world = append(world, msOf(s.world))
	}
	put("setup.cluster_ms", median(cl))
	put("setup.jobs_ms", median(jobs))
	put("setup.world_ms", median(world))

	put("sim.events_per_run", ratio(float64(acc.events), runs))
	put("sim.events_per_task", ratio(float64(acc.events), tasks))
	// Every campaign has the same makespan, so the integer division is
	// exact and the value repeats bit for bit between runs.
	var hours float64
	if acc.campaigns > 0 {
		hours = (acc.simTime / time.Duration(acc.campaigns)).Hours()
	}
	put("sim.hours_per_run", hours)

	put("parallel.busy_ratio", ratio(float64(acc.cellNs), float64(acc.workers)*float64(acc.campaignNs)))
	put("parallel.cell_ms.max", median(acc.cellMaxMs))

	plainRuns := float64(len(plain.runs))
	put("gc.cycles_per_run", ratio(float64(plain.gcCycles), plainRuns))
	put("gc.pause_ms_per_run", ratio(msOf(plain.gcPause), plainRuns))

	put("mapreduce.local_map_ratio", ratio(float64(acc.localMaps), float64(acc.totalMaps)))
	put("fault.crashes", ratio(float64(acc.crashes), runs))
	put("fault.task_failures", ratio(float64(acc.failures), runs))
	put("fault.map_outputs_lost", ratio(float64(acc.outputLost), runs))
	put("power.sleeps", ratio(float64(acc.sleeps), runs))
	put("power.wakes", ratio(float64(acc.wakes), runs))

	put("trace.overhead_ratio", ratio(median(traced.runMs()), median(plain.runMs())))
}

// msOf converts a duration to fractional milliseconds.
func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
