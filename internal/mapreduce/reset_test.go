package mapreduce_test

import (
	"reflect"
	"testing"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/fault"
	"eant/internal/mapreduce"
	"eant/internal/noise"
	"eant/internal/probe"
	"eant/internal/sched"
	"eant/internal/workload"
)

// resetJobs is the two-job workload of the reset tests on the paper testbed.
func resetJobs() []workload.JobSpec {
	return []workload.JobSpec{
		workload.NewJobSpec(0, workload.Wordcount, 1280, 2, 0),
		workload.NewJobSpec(1, workload.Terasort, 1280, 2, 20*time.Second),
	}
}

// runChecked runs jobs on d with the aggregate invariant checks on.
func runChecked(t *testing.T, d *mapreduce.Driver, jobs []workload.JobSpec) *mapreduce.Stats {
	t.Helper()
	d.EnableInvariantChecks(func(err error) { t.Fatal(err) })
	stats, err := d.Run(jobs, -1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return stats
}

// TestResetAppliesReplication: a driver built with three replicas and
// Reset to one must place inputs exactly as a driver built with one.
func TestResetAppliesReplication(t *testing.T) {
	one := mapreduce.DefaultConfig()
	one.Replication = 1

	d, err := mapreduce.NewDriver(cluster.Testbed(), sched.NewFIFO(), mapreduce.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Reset(sched.NewFIFO(), one); err != nil {
		t.Fatal(err)
	}
	warm := runChecked(t, d, resetJobs())

	cold, err := mapreduce.NewDriver(cluster.Testbed(), sched.NewFIFO(), one)
	if err != nil {
		t.Fatal(err)
	}
	want := runChecked(t, cold, resetJobs())
	if !reflect.DeepEqual(warm, want) {
		t.Errorf("Reset to replication 1 diverged from a cold replication-1 driver: %d vs %d local maps",
			warm.LocalMaps, want.LocalMaps)
	}
}

// resetBase is the row tests' base configuration: the defaults with the
// scaled control interval, so a run spans several control ticks.
func resetBase() mapreduce.Config {
	cfg := mapreduce.DefaultConfig()
	cfg.ControlInterval = mapreduce.ScaledControlInterval
	return cfg
}

// resetRows sets one Config field each to a value other than resetBase's.
// Every field of mapreduce.Config must have a row, so a new knob cannot be
// left out of Reset unnoticed.
var resetRows = map[string]func(*mapreduce.Config){
	"ControlInterval":       func(c *mapreduce.Config) { c.ControlInterval = time.Minute },
	"Noise":                 func(c *mapreduce.Config) { c.Noise = noise.Default() },
	"Replication":           func(c *mapreduce.Config) { c.Replication = 1 },
	"Seed":                  func(c *mapreduce.Config) { c.Seed = 9 },
	"KeepTaskRecords":       func(c *mapreduce.Config) { c.KeepTaskRecords = true },
	"KeepAssignmentHistory": func(c *mapreduce.Config) { c.KeepAssignmentHistory = true },
	"ForcedLocalFraction":   func(c *mapreduce.Config) { c.ForcedLocalFraction = 0.5 },
	"ComputeOnlyTypes":      func(c *mapreduce.Config) { c.ComputeOnlyTypes = []string{cluster.SpecDesktop.Name} },
	"Power":                 func(c *mapreduce.Config) { c.Power = mapreduce.PowerMgmt{Enabled: true} },
	"Fault": func(c *mapreduce.Config) {
		c.Fault = fault.Config{MachineMTBF: 10 * time.Minute, MachineMTTR: time.Minute, TaskFailProb: 0.05}
	},
	"Probe": func(c *mapreduce.Config) {
		p, err := probe.New(probe.Config{SampleEvery: 4})
		if err != nil {
			panic(err)
		}
		c.Probe = p
	},
}

// TestResetMatchesNewDriverPerConfigField checks, one Config field at a
// time, that a driver built with resetBase and Reset to a config differing
// in that field reproduces a cold driver built with it: deeply equal
// Stats, and equal probe events for the probe row. Before that last Reset
// the driver runs with resetBase and then with every row applied, so
// state leaking from any feature shows. Each row must change the run's
// Stats (the probe, a pure observer, excepted), or it could not catch a
// Reset that ignores its field.
func TestResetMatchesNewDriverPerConfigField(t *testing.T) {
	fields := reflect.TypeOf(mapreduce.Config{})
	for i := 0; i < fields.NumField(); i++ {
		if _, ok := resetRows[fields.Field(i).Name]; !ok {
			t.Errorf("Config.%s has no row in resetRows", fields.Field(i).Name)
		}
	}
	newEAnt := func() mapreduce.Scheduler { return core.MustNewEAnt(core.DefaultParams()) }
	allRows := func() mapreduce.Config {
		cfg := resetBase()
		for _, set := range resetRows {
			set(&cfg)
		}
		return cfg
	}
	for name, set := range resetRows {
		t.Run(name, func(t *testing.T) {
			rowConfig := func() mapreduce.Config {
				cfg := resetBase()
				set(&cfg)
				return cfg
			}
			d, err := mapreduce.NewDriver(cluster.Testbed(), newEAnt(), resetBase())
			if err != nil {
				t.Fatal(err)
			}
			base := runChecked(t, d, resetJobs())
			if err := d.Reset(newEAnt(), allRows()); err != nil {
				t.Fatal(err)
			}
			runChecked(t, d, resetJobs())
			warmCfg := rowConfig()
			if err := d.Reset(newEAnt(), warmCfg); err != nil {
				t.Fatal(err)
			}
			warm := runChecked(t, d, resetJobs())

			coldCfg := rowConfig()
			cold, err := mapreduce.NewDriver(cluster.Testbed(), newEAnt(), coldCfg)
			if err != nil {
				t.Fatal(err)
			}
			want := runChecked(t, cold, resetJobs())
			if name != "Probe" && reflect.DeepEqual(base, want) {
				t.Fatalf("the %s row does not change the run's Stats; pick a value that does", name)
			}
			if !reflect.DeepEqual(warm, want) {
				t.Errorf("warm Reset diverged from cold NewDriver: joules %v vs %v, horizon %v vs %v, local maps %d vs %d",
					warm.TotalJoules, want.TotalJoules, warm.Horizon, want.Horizon, warm.LocalMaps, want.LocalMaps)
			}
			if !reflect.DeepEqual(warmCfg.Probe.Events(), coldCfg.Probe.Events()) {
				t.Error("warm probe events diverged from cold")
			}
		})
	}
}
