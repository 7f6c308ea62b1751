package mapreduce

import (
	"time"

	"eant/internal/cluster"
	"eant/internal/hdfs"
	"eant/internal/probe"
	"eant/internal/sim"
	"eant/internal/workload"
)

// Scheduler is the task-assignment policy plugged into the JobTracker.
// AssignMap/AssignReduce are called once per free slot per heartbeat, and
// only while work of that kind exists: AssignMap while
// Context.PendingTasks(MapTask) > 0, AssignReduce while
// Context.ReadyReduceTasks() > 0. A scheduler hands back a task popped from
// some job's pending queue, or nil to leave the slot idle until the next
// heartbeat (how E-Ant starves energy-inefficient machines). OnTaskComplete
// delivers the task-level energy feedback each TaskTracker reports;
// OnControlTick fires every control interval for policy refresh.
type Scheduler interface {
	// Name identifies the policy in reports ("Fair", "Tarazu", "E-Ant"...).
	Name() string
	// AssignMap selects a pending map task to run on m, or nil. It is
	// called only while some active job has a pending map.
	AssignMap(ctx *Context, m cluster.Machine) *Task
	// AssignReduce selects a ready reduce task to run on m, or nil. It is
	// called only while some active job's reduces are ready.
	AssignReduce(ctx *Context, m cluster.Machine) *Task
	// OnTaskComplete observes a finished task with its energy estimate.
	OnTaskComplete(ctx *Context, t *Task)
	// OnControlTick fires at every control-interval boundary.
	OnControlTick(ctx *Context)
}

// SlotObserver is an optional Scheduler extension: the driver notifies it
// whenever a machine's free-slot count of one kind changes (task start,
// completion, kill). No registered policy implements it; it stays because
// the benchmark harness's tracing decorator names it.
type SlotObserver interface {
	OnSlotFreeChange(ctx *Context, m cluster.Machine, kind TaskKind, delta int)
}

// Speculator is an optional Scheduler extension for speculative
// execution. The driver calls Speculate on a free slot of the given kind
// whenever the scheduler placed no task there: AssignMap/AssignReduce
// returned nil, or was not called because no work of that kind exists.
// Speculate returns a clone made by Context.CloneForSpeculation, or nil to
// leave the slot idle. Installing one keeps every heartbeat sweeping the
// fleet, since a clone may be wanted while nothing is pending.
type Speculator interface {
	Speculate(ctx *Context, m cluster.Machine, kind TaskKind) *Task
}

// mapEstKey keys the driver's memo of map-service estimates: workload
// profiles, block size, and machine specs are all static, so the estimate
// is a pure function of (app, spec).
type mapEstKey struct {
	app  workload.App
	spec *cluster.TypeSpec
}

// Context is the JobTracker state a scheduler may consult.
type Context struct {
	Cluster *cluster.Cluster
	HDFS    *hdfs.Namespace
	// Rng is the scheduler's dedicated random stream.
	Rng *sim.RNG

	driver *Driver
}

// Now returns the current virtual time.
func (c *Context) Now() time.Duration { return c.driver.engine.Now() }

// Probe returns the run's observability probe, or nil when disabled.
// Schedulers recording decision events must treat it as a pure sink:
// record-only, guarded by a nil check on the hot path.
func (c *Context) Probe() *probe.Probe { return c.driver.probe }

// ActiveJobs returns submitted, unfinished jobs in submission order. The
// slice is shared; callers must not mutate it.
func (c *Context) ActiveJobs() []*Job { return c.driver.active }

// ControlInterval returns the configured policy-refresh period.
func (c *Context) ControlInterval() time.Duration { return c.driver.cfg.ControlInterval }

// ReduceReady reports whether j's reduces may be scheduled yet: the job's
// map progress has passed the slowstart threshold and reduces remain. The
// gate reads the cached reduceGateOpen flag, which syncReduceGate
// re-derives whenever mapsDone changes (checkAggregates verifies the two
// never diverge), so the call is two integer reads per offer instead of a
// floating-point progress ratio.
func (c *Context) ReduceReady(j *Job) bool {
	return j.reduceGateOpen && j.PendingReduces() != 0
}

// ReadyReduceTasks returns the cluster-wide count of pending reduces on
// jobs whose slowstart gate is open — zero exactly when no job satisfies
// ReduceReady, and the driver then makes no AssignReduce call.
func (c *Context) ReadyReduceTasks() int {
	return c.driver.agg.readyPendingReduces
}

// TotalSlots returns S_pool, the fleet-wide slot count (Eq. 7).
func (c *Context) TotalSlots() int { return c.driver.totalSlots }

// FairShare returns S_min for job j: an equal split of the slot pool among
// active jobs, as the Hadoop Fair Scheduler's single-pool default.
func (c *Context) FairShare(j *Job) float64 {
	n := len(c.driver.active)
	if n == 0 {
		return 0
	}
	return float64(c.driver.totalSlots) / float64(n)
}

// HasLocalMap reports whether job j still has a pending map task whose
// input block has a replica on machine m.
func (c *Context) HasLocalMap(j *Job, m cluster.Machine) bool {
	return j.peekPendingLocalMap(m.ID())
}

// PopMapPreferLocal removes and returns a pending map of j, choosing a
// block-local task for m when one exists. The pending aggregate is updated
// by the operation's observed delta: a local pop leaves its FIFO entry
// behind (delta 0), exactly reproducing the lazy-queue count.
func (c *Context) PopMapPreferLocal(j *Job, m cluster.Machine) *Task {
	before := j.PendingMaps()
	t := j.popLocalMap(m.ID())
	if t == nil {
		t = j.popAnyMap()
	}
	c.driver.notePending(j, MapTask, j.PendingMaps()-before)
	return t
}

// PopMapAny removes and returns the oldest pending map of j, ignoring
// locality.
func (c *Context) PopMapAny(j *Job) *Task {
	before := j.PendingMaps()
	t := j.popAnyMap()
	c.driver.notePending(j, MapTask, j.PendingMaps()-before)
	return t
}

// PopReduce removes and returns the next pending reduce of j.
func (c *Context) PopReduce(j *Job) *Task {
	before := j.PendingReduces()
	t := j.popReduce()
	c.driver.notePending(j, ReduceTask, j.PendingReduces()-before)
	return t
}

// CloneForSpeculation creates a speculative copy of a straggling running
// attempt, to be returned from Speculator.Speculate (or AssignMap/
// AssignReduce) like a pending task. The first of the pair to finish
// wins; the driver kills the other. It returns nil when the attempt
// cannot be speculated: not running, already part of a race, or a reduce
// whose job's map barrier has not passed (its shuffle data is not fully
// available to re-pull).
func (c *Context) CloneForSpeculation(orig *Task) *Task {
	if orig == nil || orig.State != TaskRunning || orig.clone != nil || orig.original != nil {
		return nil
	}
	if orig.Kind == ReduceTask && !orig.Job.MapsDone() {
		return nil
	}
	clone := &Task{
		Job:      orig.Job,
		Index:    orig.Index,
		Kind:     orig.Kind,
		InputMB:  orig.InputMB,
		State:    TaskPending,
		original: orig,
	}
	orig.clone = clone
	c.driver.stats.SpeculativeStarted++
	return clone
}

// EstimateMapSeconds predicts the noise-free service time of one of j's
// map tasks on machine spec, assuming data-local execution. Schedulers
// like Tarazu use it as the task-duration profile a real implementation
// would learn from completed waves. Every input is static, so the value
// is memoized per (app, spec) on the driver.
func (c *Context) EstimateMapSeconds(j *Job, spec *cluster.TypeSpec) float64 {
	key := mapEstKey{j.Spec.App, spec}
	if v, ok := c.driver.mapEst[key]; ok {
		return v
	}
	prof := workload.ProfileOf(j.Spec.App)
	_, total := mapService(prof, workload.BlockMB, spec, true)
	if c.driver.mapEst == nil {
		c.driver.mapEst = make(map[mapEstKey]float64, 32) //eant:alloc-ok lazy memo table, amortized across the run
	}
	c.driver.mapEst[key] = total
	return total
}

// EstimateReduceSeconds predicts the noise-free compute time of one of j's
// reduce tasks on machine spec (shuffle excluded). Shuffle volume is fixed
// at submission, so the value is memoized per spec on the job.
func (c *Context) EstimateReduceSeconds(j *Job, spec *cluster.TypeSpec) float64 {
	if v, ok := j.reduceEst[spec]; ok {
		return v
	}
	prof := workload.ProfileOf(j.Spec.App)
	_, _, compute := reduceService(prof, j.Spec.ShuffleMBPerReduce(), spec)
	if j.reduceEst == nil {
		j.reduceEst = make(map[*cluster.TypeSpec]float64, 8) //eant:alloc-ok lazy memo table, amortized per job
	}
	j.reduceEst[spec] = compute
	return compute
}

// PendingTasks returns the cluster-wide count of unassigned tasks of the
// given kind across active jobs, with the same lazy-queue semantics as a
// per-job PendingMaps/PendingReduces scan.
func (c *Context) PendingTasks(kind TaskKind) int {
	if kind == MapTask {
		return c.driver.agg.pendingMaps
	}
	return c.driver.agg.pendingReduces
}

// TypeSpecs returns one representative spec per machine type in sorted
// type-name order. The slice is shared; callers must not mutate it.
func (c *Context) TypeSpecs() []*cluster.TypeSpec { return c.driver.typeReps }
