package core_test

import (
	"testing"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/fault"
	"eant/internal/mapreduce"
	"eant/internal/workload"
)

// offerCheck is called before E-Ant sees a slot offer and returns the
// check to apply to E-Ant's answer. It recomputes the expected verdict
// from the machines themselves, before the assignment changes them.
type offerCheck func(ctx *mapreduce.Context, m cluster.Machine, kind mapreduce.TaskKind) func(*mapreduce.Task)

// checkedEAnt is E-Ant with every slot offer passed through an offerCheck.
type checkedEAnt struct {
	*core.EAnt
	check offerCheck
}

func (c *checkedEAnt) AssignMap(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	after := c.check(ctx, m, mapreduce.MapTask)
	t := c.EAnt.AssignMap(ctx, m)
	after(t)
	return t
}

func (c *checkedEAnt) AssignReduce(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	after := c.check(ctx, m, mapreduce.ReduceTask)
	t := c.EAnt.AssignReduce(ctx, m)
	after(t)
	return t
}

func runChecked(t *testing.T, c *cluster.Cluster, p core.Params, cfg mapreduce.Config, jobs []workload.JobSpec, check offerCheck) *mapreduce.Stats {
	t.Helper()
	d, err := mapreduce.NewDriver(c, &checkedEAnt{EAnt: core.MustNewEAnt(p), check: check}, cfg)
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	stats, err := d.Run(jobs, 24*time.Hour)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(stats.Jobs) != len(jobs) {
		t.Fatalf("finished %d of %d jobs", len(stats.Jobs), len(jobs))
	}
	return stats
}

// slowSpec is a user-defined type whose reduce compute estimate is far
// beyond twice the fleet mean: no catalog type comes close (the largest,
// against the testbed's mean, is below 1.5×).
var slowSpec = &cluster.TypeSpec{
	Name:        "Sluggish",
	Cores:       4,
	SpeedFactor: 0.05,
	MemoryGB:    8,
	DiskMBps:    4,
	NetMBps:     117,
	IdleWatts:   10,
	AlphaWatts:  12,
	MapSlots:    2,
	ReduceSlots: 1,
}

// TestReduceStragglerVeto drives E-Ant's reduce-straggler veto (the §I
// Atom anecdote): a reduce offered to a machine whose estimate exceeds
// twice the fleet mean is declined while a machine of a fast type has a
// free reduce slot, and placed there once none has.
func TestReduceStragglerVeto(t *testing.T) {
	c := cluster.MustNew(
		cluster.Group{Spec: cluster.SpecDesktop, Count: 2},
		cluster.Group{Spec: cluster.SpecT110, Count: 2},
		cluster.Group{Spec: slowSpec, Count: 2},
	)
	jobs := []workload.JobSpec{
		workload.NewJobSpec(0, workload.Terasort, 1280, 12, 0),
		workload.NewJobSpec(1, workload.Wordcount, 960, 10, 20*time.Second),
		workload.NewJobSpec(2, workload.Grep, 640, 6, time.Minute),
	}
	declined, placed, fastOffers := 0, 0, 0
	check := func(ctx *mapreduce.Context, m cluster.Machine, kind mapreduce.TaskKind) func(*mapreduce.Task) {
		if kind != mapreduce.ReduceTask || ctx.ReadyReduceTasks() == 0 {
			return func(*mapreduce.Task) {}
		}
		fastFree := false
		for _, h := range ctx.Cluster.Machines() {
			if h.Spec() != slowSpec && h.FreeReduceSlots() > 0 {
				fastFree = true
			}
		}
		return func(task *mapreduce.Task) {
			switch {
			case m.Spec() != slowSpec:
				// No veto on a fast machine, and reduce acceptance on an
				// awake machine is unconditional.
				fastOffers++
				if task == nil {
					t.Errorf("%s at %v: fast machine declined a ready reduce", m, ctx.Now())
				}
			case fastFree:
				declined++
				if task != nil {
					t.Errorf("%s at %v: placed %s while a fast machine had a free reduce slot", m, ctx.Now(), task.ID())
				}
			default:
				placed++
				if task == nil {
					t.Errorf("%s at %v: declined a ready reduce with every fast reduce slot busy", m, ctx.Now())
				}
			}
		}
	}
	stats := runChecked(t, c, core.DefaultParams(), mapreduce.DefaultConfig(), jobs, check)
	if declined == 0 || placed == 0 || fastOffers == 0 {
		t.Fatalf("veto not exercised both ways: %d declined, %d placed on the slow type, %d fast offers", declined, placed, fastOffers)
	}
	if stats.CompletedByTypeKind(slowSpec.Name, mapreduce.ReduceTask) == 0 {
		t.Error("slow type completed no reduce")
	}
	t.Logf("slow-type reduce offers: %d declined, %d placed; %d fast offers", declined, placed, fastOffers)
}

// fleetAbsorbs reports whether the machines counted by include have slot
// capacity of kind for all pending work of that kind and one slot of it
// free now.
func fleetAbsorbs(ctx *mapreduce.Context, kind mapreduce.TaskKind, include func(cluster.Machine) bool) bool {
	slots, anyFree := 0, false
	for _, h := range ctx.Cluster.Machines() {
		if !include(h) {
			continue
		}
		if kind == mapreduce.MapTask {
			slots += h.Spec().MapSlots
			anyFree = anyFree || h.FreeMapSlots() > 0
		} else {
			slots += h.Spec().ReduceSlots
			anyFree = anyFree || h.FreeReduceSlots() > 0
		}
	}
	return anyFree && slots >= ctx.PendingTasks(kind)
}

// anyLivePending reports whether an active job holds a pending task of
// kind. The pending counters also count queue entries the locality index
// already consumed, so an offer can see pending work and still find
// nothing to place.
func anyLivePending(ctx *mapreduce.Context, kind mapreduce.TaskKind) bool {
	for _, j := range ctx.ActiveJobs() {
		tasks := j.Maps
		if kind == mapreduce.ReduceTask {
			tasks = j.Reduces
		}
		for _, task := range tasks {
			if task.State == mapreduce.TaskPending {
				return true
			}
		}
	}
	return false
}

// sleepGuardCounts tallies, per task kind, the offers to a sleeping
// machine by expected verdict, and the accepted offers on which counting
// dead or other sleeping machines as capacity would have flipped the
// verdict to a decline.
type sleepGuardCounts struct {
	declined, accepted, deadDecides, asleepDecides int
}

// TestSleepGuard drives E-Ant's consolidation guard (paper §VIII): an
// offer to a sleeping machine is declined while the awake fleet can
// absorb the pending work of that kind, and accepted when it cannot. Dead
// and sleeping machines add no capacity. The accept floor is 1, so past
// the guard every map offer is accepted, like every reduce offer; a wrong
// verdict in either direction shows as a wrong assignment.
func TestSleepGuard(t *testing.T) {
	c := cluster.MustNew(
		cluster.Group{Spec: cluster.SpecDesktop, Count: 4},
		cluster.Group{Spec: cluster.SpecT110, Count: 4},
		cluster.Group{Spec: cluster.SpecT320, Count: 2},
	)
	p := core.DefaultParams()
	p.AcceptFloor = 1
	cfg := mapreduce.DefaultConfig()
	cfg.Seed = 3
	cfg.Power = mapreduce.PowerMgmt{Enabled: true, IdleTimeout: 20 * time.Second}
	cfg.Fault = fault.Config{Scenario: []fault.Event{
		{At: 3 * time.Minute, Machine: 1, Kind: fault.Crash},
		{At: 3 * time.Minute, Machine: 5, Kind: fault.Crash},
		{At: 9 * time.Minute, Machine: 1, Kind: fault.Recover},
		{At: 12 * time.Minute, Machine: 2, Kind: fault.Crash},
		{At: 14 * time.Minute, Machine: 6, Kind: fault.Crash},
		{At: 20 * time.Minute, Machine: 2, Kind: fault.Recover},
	}}
	var jobs []workload.JobSpec
	apps := workload.Apps()
	for i := 0; i < 12; i++ {
		jobs = append(jobs, workload.NewJobSpec(i, apps[i%len(apps)], 640*float64(1+i%3), 1+i%4,
			time.Duration(i)*150*time.Second))
	}
	// Reduce-heavy jobs after a quiet spell: a couple of maps run on the
	// covering machines, then more reduces are ready than they hold.
	jobs = append(jobs,
		workload.NewJobSpec(12, workload.Terasort, 256, 24, time.Hour),
		workload.NewJobSpec(13, workload.Wordcount, 128, 16, 80*time.Minute))
	counts := map[mapreduce.TaskKind]*sleepGuardCounts{mapreduce.MapTask: {}, mapreduce.ReduceTask: {}}
	awake := func(h cluster.Machine) bool { return h.Available() && !h.Asleep() }
	orDead := func(h cluster.Machine) bool { return !h.Asleep() }
	var offered cluster.Machine
	orAsleep := func(h cluster.Machine) bool { return h.Available() && h != offered }
	check := func(ctx *mapreduce.Context, m cluster.Machine, kind mapreduce.TaskKind) func(*mapreduce.Task) {
		if !m.Asleep() || !anyLivePending(ctx, kind) {
			return func(*mapreduce.Task) {}
		}
		offered = m
		absorbs := fleetAbsorbs(ctx, kind, awake)
		deadDecides := !absorbs && fleetAbsorbs(ctx, kind, orDead)
		asleepDecides := !absorbs && fleetAbsorbs(ctx, kind, orAsleep)
		return func(task *mapreduce.Task) {
			n := counts[kind]
			if absorbs {
				n.declined++
				if task != nil {
					t.Errorf("%s at %v: sleeping machine took %s the awake fleet could absorb", m, ctx.Now(), task.ID())
				}
				return
			}
			n.accepted++
			if deadDecides {
				n.deadDecides++
			}
			if asleepDecides {
				n.asleepDecides++
			}
			if task == nil {
				t.Errorf("%s at %v: sleeping machine declined %v work the awake fleet cannot absorb", m, ctx.Now(), kind)
			}
		}
	}
	stats := runChecked(t, c, p, cfg, jobs, check)
	if stats.Sleeps == 0 || stats.Wakes == 0 || stats.Crashes == 0 {
		t.Fatalf("no consolidation churn: %d sleeps, %d wakes, %d crashes", stats.Sleeps, stats.Wakes, stats.Crashes)
	}
	for _, kind := range []mapreduce.TaskKind{mapreduce.MapTask, mapreduce.ReduceTask} {
		n := counts[kind]
		t.Logf("%v offers to sleeping machines: %+v", kind, *n)
		if n.declined == 0 || n.accepted == 0 || n.deadDecides == 0 || n.asleepDecides == 0 {
			t.Errorf("%v guard not exercised every way: %+v", kind, *n)
		}
	}
}
