package mapreduce_test

import (
	"testing"
	"time"

	"eant/internal/core"
	"eant/internal/fault"
	"eant/internal/mapreduce"
	"eant/internal/workload"
)

// TestAggregateInvariantsUnderCombinedStress is the dedicated invariant
// campaign for the driver's incremental aggregates: consolidation
// (sleep/wake), random machine crashes and recoveries, attempt failures
// with blacklisting, and E-Ant assignment (which exercises the
// awake-slot paths) all in one run. The run() helper
// enables Driver.EnableInvariantChecks, so every mutating event — task
// start/finish, kill, crash, recover, blacklist, sleep, wake, requeue,
// job completion — is followed by a full recompute-and-compare of the
// pending counters and per-availability-class slot buckets.
func TestAggregateInvariantsUnderCombinedStress(t *testing.T) {
	eant, err := core.NewEAnt(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := mapreduce.DefaultConfig()
	cfg.Seed = 17
	cfg.Power = mapreduce.PowerMgmt{
		Enabled:     true,
		IdleTimeout: 20 * time.Second,
	}
	cfg.Fault = fault.Config{
		MachineMTBF:        4 * time.Minute,
		MachineMTTR:        45 * time.Second,
		TaskFailProb:       0.15,
		MaxAttempts:        100,
		BlacklistThreshold: 2,
		BlacklistCooldown:  time.Minute,
	}
	c := smallCluster()
	jobs := []workload.JobSpec{
		workload.NewJobSpec(0, workload.Terasort, 3200, 3, 0),
		workload.NewJobSpec(1, workload.Wordcount, 1920, 2, 30*time.Second),
		workload.NewJobSpec(2, workload.Grep, 1280, 0, time.Minute),
	}
	stats := run(t, c, eant, cfg, jobs)

	// The campaign must actually have exercised the transitions it claims
	// to cover; a quiet run would make the invariant sweep vacuous.
	if stats.Crashes == 0 || stats.Recoveries == 0 {
		t.Errorf("no machine churn: %d crashes, %d recoveries", stats.Crashes, stats.Recoveries)
	}
	if stats.TaskFailures == 0 {
		t.Error("no attempt failures fired")
	}
	if stats.Sleeps == 0 {
		t.Error("consolidation never put a machine to sleep")
	}
	if len(stats.Jobs) != len(jobs) {
		t.Fatalf("finished %d/%d jobs", len(stats.Jobs), len(jobs))
	}
	checkClusterQuiescent(t, c)
}
