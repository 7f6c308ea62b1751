package sched_test

import (
	"testing"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/mapreduce"
	"eant/internal/sched"
	"eant/internal/workload"
)

func testbed() *cluster.Cluster {
	return cluster.MustNew(
		cluster.Group{Spec: cluster.SpecDesktop, Count: 2},
		cluster.Group{Spec: cluster.SpecT420, Count: 1},
		cluster.Group{Spec: cluster.SpecAtom, Count: 1},
	)
}

func runJobs(t *testing.T, s mapreduce.Scheduler, jobs []workload.JobSpec) *mapreduce.Stats {
	t.Helper()
	cfg := mapreduce.DefaultConfig()
	cfg.KeepTaskRecords = true
	d, err := mapreduce.NewDriver(testbed(), s, cfg)
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	stats, err := d.Run(jobs, 12*time.Hour)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return stats
}

func TestSchedulerNames(t *testing.T) {
	if sched.NewFIFO().Name() != "FIFO" {
		t.Error("FIFO name")
	}
	if sched.NewFair().Name() != "Fair" {
		t.Error("Fair name")
	}
	if sched.NewTarazu().Name() != "Tarazu" {
		t.Error("Tarazu name")
	}
}

// TestRegistryRows checks every registry row: its constructor builds a
// scheduler reporting the row's name, its reset accepts that instance,
// and Lookup finds the row and rejects unknown names.
func TestRegistryRows(t *testing.T) {
	names := sched.Names()
	if len(names) != 6 {
		t.Fatalf("registry has %d policies, want 6", len(names))
	}
	for _, name := range names {
		p, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.New(core.DefaultParams())
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		if s.Name() != string(name) {
			t.Errorf("row %s builds a scheduler named %s", name, s.Name())
		}
		if err := p.Reset(s, core.DefaultParams()); err != nil {
			t.Errorf("%s: Reset: %v", name, err)
		}
	}
	if _, err := sched.Lookup("Mystery"); err == nil {
		t.Error("unknown policy found")
	}
}

func TestFIFOCompletesJobsInOrder(t *testing.T) {
	jobs := []workload.JobSpec{
		workload.NewJobSpec(0, workload.Wordcount, 3200, 2, 0),
		workload.NewJobSpec(1, workload.Wordcount, 320, 1, 0),
	}
	stats := runJobs(t, sched.NewFIFO(), jobs)
	if len(stats.Jobs) != 2 {
		t.Fatalf("finished %d jobs, want 2", len(stats.Jobs))
	}
	big := stats.JobByID(0)
	small := stats.JobByID(1)
	// FIFO serves the big job first; the small job, despite being 10×
	// smaller, cannot leapfrog it.
	if small.Finished < big.MapsDoneAt {
		t.Errorf("FIFO let the later job finish (%v) before the head job's maps (%v)",
			small.Finished, big.MapsDoneAt)
	}
}

func TestFairSharesAmongJobs(t *testing.T) {
	// Under Fair, a small job co-submitted with a big one finishes far
	// earlier than the big one, unlike FIFO.
	jobs := []workload.JobSpec{
		workload.NewJobSpec(0, workload.Wordcount, 6400, 2, 0),
		workload.NewJobSpec(1, workload.Wordcount, 320, 1, 0),
	}
	fair := runJobs(t, sched.NewFair(), jobs)
	small := fair.JobByID(1)
	big := fair.JobByID(0)
	if small.Finished >= big.Finished {
		t.Errorf("Fair: small job finished at %v, after big job at %v",
			small.Finished, big.Finished)
	}
	if small.CompletionTime() > big.CompletionTime()/2 {
		t.Errorf("Fair: small JCT %v not ≪ big JCT %v", small.CompletionTime(), big.CompletionTime())
	}
}

func TestTarazuShiftsLoadTowardCapableMachines(t *testing.T) {
	// A slot-heavy but compute-weak machine: Fair fills its 8 map slots
	// blindly; Tarazu caps it near its ~8% capability share.
	slug := &cluster.TypeSpec{
		Name: "Slug", Cores: 4, SpeedFactor: 0.35, MemoryGB: 8,
		DiskMBps: 90, NetMBps: 117, IdleWatts: 18, AlphaWatts: 12,
		MapSlots: 8, ReduceSlots: 2,
	}
	fleet := func() *cluster.Cluster {
		return cluster.MustNew(
			cluster.Group{Spec: cluster.SpecDesktop, Count: 2},
			cluster.Group{Spec: slug, Count: 1},
		)
	}
	runOn := func(s mapreduce.Scheduler) *mapreduce.Stats {
		cfg := mapreduce.DefaultConfig()
		// The Slug runs no DataNode, so all of its work would be remote
		// and the capability gate decides how much it gets.
		cfg.ComputeOnlyTypes = []string{"Slug"}
		d, err := mapreduce.NewDriver(fleet(), s, cfg)
		if err != nil {
			t.Fatalf("NewDriver: %v", err)
		}
		stats, err := d.Run(workload.Batch(workload.Grep, 4, 3200, 0, 0), 12*time.Hour)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return stats
	}
	share := func(s *mapreduce.Stats, machineType string) float64 {
		total := 0
		for _, n := range s.CompletedByMachine {
			total += n
		}
		byType := 0
		for _, app := range workload.Apps() {
			byType += s.CompletedByTypeApp(machineType, app)
		}
		return float64(byType) / float64(total)
	}
	fairShare := share(runOn(sched.NewFair()), "Slug")
	tarazuShare := share(runOn(sched.NewTarazu()), "Slug")
	if tarazuShare >= fairShare {
		t.Errorf("Tarazu Slug share %.3f not below Fair %.3f", tarazuShare, fairShare)
	}
}

func TestTarazuImprovesMakespanOverFair(t *testing.T) {
	jobs := workload.Batch(workload.Wordcount, 6, 3200, 2, 0)
	fair := runJobs(t, sched.NewFair(), jobs)
	tarazu := runJobs(t, sched.NewTarazu(), jobs)
	// Communication-aware balancing should not lengthen the campaign.
	if tarazu.Horizon > fair.Horizon*105/100 {
		t.Errorf("Tarazu makespan %v worse than Fair %v", tarazu.Horizon, fair.Horizon)
	}
}

func TestAllSchedulersCompleteMixedWorkload(t *testing.T) {
	jobs := []workload.JobSpec{
		workload.NewJobSpec(0, workload.Wordcount, 1280, 2, 0),
		workload.NewJobSpec(1, workload.Grep, 1280, 2, 30*time.Second),
		workload.NewJobSpec(2, workload.Terasort, 1280, 4, time.Minute),
	}
	for _, s := range []mapreduce.Scheduler{sched.NewFIFO(), sched.NewFair(), sched.NewTarazu()} {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			stats := runJobs(t, s, jobs)
			if len(stats.Jobs) != 3 {
				t.Fatalf("%s finished %d/3 jobs", s.Name(), len(stats.Jobs))
			}
			if stats.TasksDone() != 20*3+2+2+4 {
				t.Errorf("%s completed %d tasks, want 68", s.Name(), stats.TasksDone())
			}
		})
	}
}

func TestSchedulersPreferLocalTasks(t *testing.T) {
	jobs := []workload.JobSpec{workload.NewJobSpec(0, workload.Grep, 6400, 2, 0)}
	for _, s := range []mapreduce.Scheduler{sched.NewFIFO(), sched.NewFair(), sched.NewTarazu()} {
		stats := runJobs(t, s, jobs)
		// Replication 3 over 4 machines: most assignments can be local.
		if got := stats.LocalityFraction(); got < 0.5 {
			t.Errorf("%s locality fraction = %.2f, want ≥ 0.5", s.Name(), got)
		}
	}
}
