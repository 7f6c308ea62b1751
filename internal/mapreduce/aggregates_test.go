package mapreduce_test

import (
	"testing"
	"time"

	"eant/internal/core"
	"eant/internal/fault"
	"eant/internal/mapreduce"
	"eant/internal/probe"
	"eant/internal/workload"
)

// TestAggregateInvariantsUnderCombinedStress is the dedicated invariant
// campaign for the driver's incremental aggregates: consolidation
// (sleep/wake), random machine crashes and recoveries, attempt failures
// with blacklisting, and E-Ant assignment (whose sleep guard reads the
// pending counters on offers to sleeping machines) all in one run. The
// run() helper enables Driver.EnableInvariantChecks, so every mutating
// event — task start/finish, kill, crash, recover, sleep, wake, requeue,
// job completion — is followed by a full recompute-and-compare of the
// three pending counters and the cached reduce gates.
func TestAggregateInvariantsUnderCombinedStress(t *testing.T) {
	eant, err := core.NewEAnt(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	c := smallCluster()
	cfg, jobs := combinedStress()
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

// combinedStress is the configuration and workload of the combined stress
// campaign: consolidation, machine churn, attempt failures and a blacklist
// on smallCluster.
func combinedStress() (mapreduce.Config, []workload.JobSpec) {
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
	jobs := []workload.JobSpec{
		workload.NewJobSpec(0, workload.Terasort, 3200, 3, 0),
		workload.NewJobSpec(1, workload.Wordcount, 1920, 2, 30*time.Second),
		workload.NewJobSpec(2, workload.Grep, 1280, 0, time.Minute),
	}
	return cfg, jobs
}

// TestEnergyCoversAwakeIdleFloor is the awake-time energy oracle: over
// the combined stress campaign, each machine's metered energy is at least
// its idle draw integrated over the time it was awake plus the standby
// draw over the time it slept; a dead machine draws nothing. The awake,
// asleep and dead intervals are rebuilt from the probe's machine-state
// events, independently of the meter.
func TestEnergyCoversAwakeIdleFloor(t *testing.T) {
	eant, err := core.NewEAnt(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	c := smallCluster()
	cfg, jobs := combinedStress()
	cfg.Power.SleepWatts = 3 // the default standby draw, spelled out for the floor
	p, err := probe.New(probe.Config{RingSize: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Probe = p
	stats := run(t, c, eant, cfg, jobs)
	if p.Dropped() != 0 {
		t.Fatalf("probe ring dropped %d events", p.Dropped())
	}

	type state uint8
	const (
		awake state = iota
		asleep
		dead
	)
	n := c.Size()
	cur := make([]state, n)
	since := make([]time.Duration, n)
	spent := make([][3]time.Duration, n)
	enter := func(id int, at time.Duration, s state) {
		spent[id][cur[id]] += at - since[id]
		cur[id], since[id] = s, at
	}
	transitions := 0
	for _, ev := range p.Events() {
		if ev.Kind != probe.KindMachineState {
			continue
		}
		id := int(ev.MachineID)
		switch ev.Label {
		case "sleep":
			enter(id, ev.At, asleep)
		case "wake", "recover":
			enter(id, ev.At, awake)
		case "crash":
			enter(id, ev.At, dead)
		case "blacklist":
			continue // no change in draw
		default:
			t.Fatalf("unknown machine state %q", ev.Label)
		}
		transitions++
	}
	if stats.Sleeps == 0 || stats.Crashes == 0 || transitions == 0 {
		t.Fatalf("campaign too quiet: %d sleeps, %d crashes, %d transitions", stats.Sleeps, stats.Crashes, transitions)
	}
	for _, m := range c.Machines() {
		id := m.ID()
		enter(id, stats.Horizon, cur[id])
		if total := spent[id][awake] + spent[id][asleep] + spent[id][dead]; total != stats.Horizon {
			t.Fatalf("%s intervals cover %v of the %v horizon", m, total, stats.Horizon)
		}
		floor := m.Spec().IdleWatts*spent[id][awake].Seconds() + cfg.Power.SleepWatts*spent[id][asleep].Seconds()
		if got := stats.MachineJoules[id]; got < floor*(1-1e-9) {
			t.Errorf("%s metered %v J, below its awake idle floor %v J (awake %v, asleep %v, dead %v)",
				m, got, floor, spent[id][awake], spent[id][asleep], spent[id][dead])
		}
	}
}
