package mapreduce

import (
	"fmt"

	"eant/internal/sim"
)

// This file is the single initializer of every piece of per-run state.
// NewDriver and newJob only allocate (the engine, cluster reference, meter,
// namespace, type table, Job/Task arrays) and then call Reset, resetForRun
// and resetAggregates below, so a cold run is a warm run on zeroed memory:
// there is no second copy of the initial state to drift. A warm Reset
// reuses every long-lived allocation — the engine's calendar queue and
// event pool, the cluster and meter arrays, the HDFS namespace (retired
// files recycled by job ID) and (via Run's warm gate) the Job/Task
// structures — and must still leave the driver in exactly the state a cold
// one starts from; TestWarmEqualsCold and the committed goldens check that
// from outside.

// Reset configures the driver for a run with the given scheduler and
// configuration; NewDriver calls it on a freshly allocated driver. The
// cluster is kept (machines reset in place); the job list is kept too and
// reused by the next Run when its specs match. The scheduler must itself
// be reset (or fresh) — the driver cannot see policy state. On error the
// driver is left partially reset and must not be run.
func (d *Driver) Reset(sched Scheduler, cfg Config) error {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if sched == nil {
		return fmt.Errorf("mapreduce: nil scheduler")
	}
	d.cfg = cfg

	// Every random stream is seeded with ForkSeed(seed, label): the seed
	// NewRNG(seed).Fork(label) produces, independent of fork order.
	d.engine.Reset()
	// Calendar buckets sized to the dominant event period: heartbeats,
	// completions and shuffle transitions land in the O(1) ring; control
	// ticks and far-future submissions take the overflow band.
	d.engine.SetBucketWidth(heartbeat)
	d.cluster.Reset()
	d.meter.Reset()
	if err := d.noise.Reset(cfg.Noise, sim.ForkSeed(cfg.Seed, "noise")); err != nil {
		return err
	}
	if err := d.faults.Reset(cfg.Fault, sim.ForkSeed(cfg.Seed, "fault")); err != nil {
		return err
	}
	d.ns.Reset(sim.ForkSeed(cfg.Seed, "hdfs"), cfg.Replication)
	d.local.Reseed(sim.ForkSeed(cfg.Seed, "locality"))
	d.ctx.Rng.Reseed(sim.ForkSeed(cfg.Seed, "sched"))

	d.sched = sched
	d.probe = cfg.Probe
	d.slotObs, _ = sched.(SlotObserver)
	d.speculator, _ = sched.(Speculator)
	d.totalSlots = d.cluster.TotalSlots()
	d.stats = newStats(sched.Name())
	clear(d.intervalAssign)
	d.unsubmit = 0
	d.tickOffset = 0
	clear(d.active)
	d.active = d.active[:0]

	n := d.cluster.Size()
	if d.faults.Enabled() {
		d.blacklistUntil = zeroed(d.blacklistUntil, n)
		d.failCount = zeroed(d.failCount, n)
	} else {
		d.blacklistUntil, d.failCount = nil, nil
	}

	// ns.Reset dropped the placement constraints; derive them (exclusions,
	// then the covering subset) before Run places any input.
	for _, typeName := range cfg.ComputeOnlyTypes {
		for _, m := range d.cluster.ByType(typeName) {
			d.ns.ExcludeFromPlacement(m.ID())
		}
	}
	if cfg.Power.Enabled {
		d.covering = zeroed(d.covering, n)
		d.lastBusy = zeroed(d.lastBusy, n)
		var coveringIDs []int
		for _, name := range d.cluster.TypeNames() {
			machines := d.cluster.ByType(name)
			for _, m := range machines[:min(cfg.Power.CoveringPerType, len(machines))] {
				d.covering[m.ID()] = true
				coveringIDs = append(coveringIDs, m.ID())
			}
		}
		d.ns.PreferFirstReplicaOn(coveringIDs)
	} else {
		d.covering, d.lastBusy = nil, nil
	}

	d.resetAggregates()
	return nil
}

// zeroed returns s cleared, or a new length-n slice when s is nil.
func zeroed[T any](s []T, n int) []T {
	if s == nil {
		return make([]T, n)
	}
	clear(s)
	return s
}

// resetAggregates zeroes the pending counters: no job is active yet.
func (d *Driver) resetAggregates() {
	d.agg.pendingMaps = 0
	d.agg.pendingReduces = 0
	d.agg.readyPendingReduces = 0
}

// resetForRun initializes j's run state for a run of its spec; newJob
// calls it on fresh arrays, and Run's warm gate on a retained job. Every
// Task is overwritten with its initial value (stale pendingEvent handles
// are inert — the engine reset bumped their generation), the pending FIFOs
// and locality index are rebuilt by overwrite in task order, and
// speculative clones (separate allocations) are dropped with the cleared
// runningSet. replicasOf supplies the placed block locations. The reduce
// estimate memo stays: Run reuses a job only for an identical spec.
func (j *Job) resetForRun(replicasOf func(block int) []int) {
	j.Submitted, j.FirstStart, j.MapsDoneAt, j.LastShuffleEnd, j.Finished = 0, 0, 0, 0, 0
	j.mapsDone, j.reducesDone = 0, 0
	j.started, j.done, j.failed = false, false, false
	j.reduceGateOpen = false
	j.running = 0
	clear(j.runningByMachine)
	clear(j.runningSet)
	// Truncate each locality queue in place. failJob replaces the whole map
	// and popLocalMap nils drained entries; q[:0] of nil is nil, and the
	// append below re-allocates only those queues.
	//eant:unordered-ok each entry is truncated independently; nothing observes the key order
	for id, q := range j.localPending {
		j.localPending[id] = q[:0]
	}
	j.pendingMaps = j.pendingMaps[:0]
	j.pendingHead = 0
	for i, t := range j.Maps {
		*t = Task{
			Job:     j,
			Index:   i,
			Kind:    MapTask,
			InputMB: j.Spec.MapInputMB(i),
			State:   TaskPending,
		}
		j.pendingMaps = append(j.pendingMaps, i)
		j.mapReplicas[i] = replicasOf(i)
		for _, machineID := range j.mapReplicas[i] {
			j.localPending[machineID] = append(j.localPending[machineID], i)
		}
	}
	j.pendingReduces = j.pendingReduces[:0]
	j.reduceHead = 0
	for i, t := range j.Reduces {
		*t = Task{
			Job:     j,
			Index:   i,
			Kind:    ReduceTask,
			InputMB: j.Spec.ShuffleMBPerReduce(),
			State:   TaskPending,
		}
		j.pendingReduces = append(j.pendingReduces, i)
	}
}
