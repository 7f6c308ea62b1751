package mapreduce

import (
	"fmt"

	"eant/internal/cluster"
)

// This file is the driver's incremental-statistics layer: three pending
// counters, updated at the O(1) events that change them (queue pops and
// requeues, job arrival and departure, map completion and loss). The
// work-proportional heartbeat sweep gates on them — a machine's free map
// slots are offered only while pendingMaps > 0, its free reduce slots only
// while readyPendingReduces > 0 — and Context.PendingTasks and
// ReadyReduceTasks serve them to schedulers, so neither the sweep nor a
// policy rescans the active jobs per offer. Facts about machines (free
// slots, availability, sleep) are read from the cluster directly.
//
// Invariants (checkAggregates verifies them after every mutating event):
//
//   - pendingMaps    == Σ over active jobs of Job.PendingMaps()
//   - pendingReduces == Σ over active jobs of Job.PendingReduces()
//   - readyPendingReduces restricts pendingReduces to jobs whose map
//     progress has passed the slowstart gate (Job.reduceGateOpen caches
//     the gate; it is re-derived whenever mapsDone changes, including the
//     decrease in reexecuteLostMaps).
//
// Note the pending counters deliberately reproduce the lazy-queue
// semantics of Job.PendingMaps(): popping a map through the locality
// index leaves its FIFO entry behind, so the count overcounts until
// popAnyMap skips the stale entries. The aggregates track the same
// quantity by applying before/after deltas around each queue operation,
// keeping every consumer bit-identical to the scan it replaced.

// aggregates is the driver's incremental-statistics state.
type aggregates struct {
	pendingMaps         int
	pendingReduces      int
	readyPendingReduces int
}

// noteSlotChange forwards a ±1 change in m's free slots of one kind to
// the scheduler's slot observer, if any.
func (d *Driver) noteSlotChange(m cluster.Machine, kind TaskKind, delta int) {
	if d.slotObs != nil {
		d.slotObs.OnSlotFreeChange(d.ctx, m, kind, delta)
	}
}

// notePending applies a delta to the pending-task aggregates for one of
// job j's kinds. Callers compute delta as after-minus-before around the
// queue operation, which reproduces the lazy-queue overcounting exactly.
func (d *Driver) notePending(j *Job, kind TaskKind, delta int) {
	if delta == 0 {
		return
	}
	a := &d.agg
	if kind == MapTask {
		a.pendingMaps += delta
	} else {
		a.pendingReduces += delta
		if j.reduceGateOpen {
			a.readyPendingReduces += delta
		}
	}
}

// syncReduceGate re-derives j's slowstart gate after mapsDone changed,
// moving its pending reduces in or out of the ready aggregate on a flip.
// The gate can close again: reexecuteLostMaps decrements mapsDone when a
// crash loses completed map output.
func (d *Driver) syncReduceGate(j *Job) {
	open := j.MapProgress() >= reduceSlowstart
	if open == j.reduceGateOpen {
		return
	}
	j.reduceGateOpen = open
	if open {
		d.agg.readyPendingReduces += j.PendingReduces()
	} else {
		d.agg.readyPendingReduces -= j.PendingReduces()
	}
}

// dropJobAggregates removes a departing job's remaining pending
// contributions (including stale queue entries). Call before the job
// leaves the active list or its queues are drained.
func (d *Driver) dropJobAggregates(j *Job) {
	d.notePending(j, MapTask, -j.PendingMaps())
	d.notePending(j, ReduceTask, -j.PendingReduces())
}

// requeuePending returns a reset task to its job's pending pools after an
// attempt failure or lost map output, keeping the aggregates in step
// (requeueRetry always appends exactly one live entry).
func (d *Driver) requeuePending(t *Task) {
	t.Job.requeueRetry(t)
	d.notePending(t.Job, t.Kind, 1)
}

// mutated runs the test-only invariant hook, if installed.
func (d *Driver) mutated(where string) {
	if d.onMutation != nil {
		d.onMutation(where)
	}
}

// EnableInvariantChecks installs a self-check that recomputes every
// aggregate from scratch after each mutating event and reports the first
// divergence through fail. Test-only: the recompute is O(jobs) per event
// and would defeat the incremental layer in real runs.
func (d *Driver) EnableInvariantChecks(fail func(error)) {
	d.onMutation = func(where string) {
		if err := d.checkAggregates(); err != nil {
			fail(fmt.Errorf("after %s: %w", where, err))
		}
	}
}

// checkAggregates recomputes the aggregate state from first principles
// and returns the first divergence from the incremental counters.
func (d *Driver) checkAggregates() error {
	a := &d.agg
	pm, pr, rpr := 0, 0, 0
	for _, j := range d.active {
		pm += j.PendingMaps()
		pr += j.PendingReduces()
		open := j.MapProgress() >= reduceSlowstart
		if open != j.reduceGateOpen {
			return fmt.Errorf("job %d reduce gate cached %v, derived %v", j.Spec.ID, j.reduceGateOpen, open)
		}
		if open {
			rpr += j.PendingReduces()
		}
	}
	if pm != a.pendingMaps {
		return fmt.Errorf("pendingMaps %d, recomputed %d", a.pendingMaps, pm)
	}
	if pr != a.pendingReduces {
		return fmt.Errorf("pendingReduces %d, recomputed %d", a.pendingReduces, pr)
	}
	if rpr != a.readyPendingReduces {
		return fmt.Errorf("readyPendingReduces %d, recomputed %d", a.readyPendingReduces, rpr)
	}
	return nil
}
