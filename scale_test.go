package eant

import "testing"

// TestScaleSweepParallel drives a miniature BenchmarkScale grid through
// the internal/parallel worker pool and checks every cell against its
// sequential rerun. Under `go test -race` it doubles as the data-race
// check for the incremental-aggregate and per-interval-index hot paths
// while many simulations share the process.
func TestScaleSweepParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell sweep; skipped in -short mode")
	}
	var specs []RunSpec
	for _, factor := range []int{1, 4} {
		c := scaledTestbed(t, factor)
		for _, jobs := range []int{5, 20} {
			for _, sched := range []Scheduler{SchedulerEAnt, SchedulerFair} {
				specs = append(specs, RunSpec{
					Cluster:   c,
					Scheduler: sched,
					Jobs:      MSDWorkload(jobs, 3),
					Seed:      3,
				})
			}
		}
	}
	par, err := RunMany(specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		spec.Cluster = spec.Cluster.Clone()
		seq, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		p := par[i]
		if p.TotalJoules != seq.TotalJoules || p.Makespan != seq.Makespan ||
			p.Stats.MapOffers != seq.Stats.MapOffers ||
			p.Stats.ReduceOffers != seq.Stats.ReduceOffers {
			t.Errorf("spec %d (%s): parallel run diverged from sequential: "+
				"joules %v vs %v, makespan %v vs %v, offers %d+%d vs %d+%d",
				i, spec.Scheduler,
				p.TotalJoules, seq.TotalJoules, p.Makespan, seq.Makespan,
				p.Stats.MapOffers, p.Stats.ReduceOffers,
				seq.Stats.MapOffers, seq.Stats.ReduceOffers)
		}
	}
}

// TestOffersTrackWork pins the heartbeat sweep's cost to the work: on a
// 256-machine fleet that sits idle between MSD arrivals, E-Ant is offered
// a slot only while a task of that kind is pending, so offers stay within
// 5% of the tasks run (an ungated sweep makes about 36 per task). LATE
// keeps consulting its Speculator on every free slot, so its offer and
// clone counts must stay at their values from before the gate.
func TestOffersTrackWork(t *testing.T) {
	run := func(s Scheduler) *Result {
		r, err := Run(RunSpec{Cluster: scaledTestbed(t, 16), Scheduler: s, Jobs: MSDWorkload(20, 7), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	st := run(SchedulerEAnt).Stats
	offers, tasks := st.MapOffers+st.ReduceOffers, st.TasksDone()
	if tasks == 0 || float64(offers) > 1.05*float64(tasks) {
		t.Errorf("E-Ant: %d offers (%d map + %d reduce) for %d tasks, want at most 1.05 per task",
			offers, st.MapOffers, st.ReduceOffers, tasks)
	}
	late := run(SchedulerLATE).Stats
	if late.MapOffers != 94157 || late.SpeculativeStarted != 202 {
		t.Errorf("LATE: %d map offers and %d clones, want 94157 and 202", late.MapOffers, late.SpeculativeStarted)
	}
}
