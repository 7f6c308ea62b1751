// Package experiments reproduces every table and figure of the paper's
// motivation and evaluation sections. Each FigNN/TableNN function is a
// self-contained harness that builds the cluster, generates the workload,
// runs the simulation, and returns typed rows with a Table() renderer that
// prints the same series the paper plots.
//
// Scaling. The paper's testbed ran 300 GB inputs and a 5-minute control
// interval for hours; the default configurations here shrink inputs by
// ScaleDown (64×) and the control interval proportionally, so the full
// suite runs in seconds while preserving the quantities the paper reports
// as *shapes* (orderings, crossovers, ratios). EXPERIMENTS.md records
// paper-vs-measured for every experiment.
package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/mapreduce"
	"eant/internal/noise"
	"eant/internal/probe"
	"eant/internal/sched"
	"eant/internal/sim"
	"eant/internal/workload"
)

// ScaleDown is the default input-size divisor relative to the paper's
// testbed workloads.
const ScaleDown = 64

// DefaultControlInterval is the paper's 5-minute control interval scaled
// to the shrunken task durations (tasks shrink ~10×, intervals likewise).
const DefaultControlInterval = mapreduce.ScaledControlInterval

// DefaultSeed keeps every experiment reproducible by default.
const DefaultSeed = 1

// SchedulerName selects a task-assignment policy.
type SchedulerName = sched.Name

// Scheduler choices used across the evaluation.
const (
	SchedFIFO   = sched.NameFIFO
	SchedFair   = sched.NameFair
	SchedTarazu = sched.NameTarazu
	SchedLATE   = sched.NameLATE
	SchedCap    = sched.NameCapacity
	SchedEAnt   = sched.NameEAnt
)

// NewScheduler builds a fresh scheduler instance from the registry. E-Ant
// takes params; the baselines ignore them.
func NewScheduler(name SchedulerName, params core.Params) (mapreduce.Scheduler, error) {
	policy, err := sched.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return policy.New(params)
}

// Campaign describes one simulated cluster run.
type Campaign struct {
	Cluster *cluster.Cluster
	Sched   SchedulerName
	Params  core.Params
	// Instance, when non-nil, is used instead of constructing a scheduler
	// from Sched/Params — for experiments that need to inspect scheduler
	// state (e.g. pheromone trails) after the run.
	Instance mapreduce.Scheduler
	Jobs     []workload.JobSpec
	Config   mapreduce.Config
	Horizon  time.Duration
}

// defaultDriverConfig is the experiment-wide driver configuration: paper
// heartbeat, scaled control interval, evaluation noise.
func defaultDriverConfig() mapreduce.Config {
	cfg := mapreduce.DefaultConfig()
	cfg.ControlInterval = DefaultControlInterval
	cfg.Seed = DefaultSeed
	cfg.Noise = noise.Default()
	return cfg
}

// campaignProbe, when set, attaches a freshly-built probe to every
// campaign that does not already carry one. Per-campaign instances keep
// parallel sweeps race-free: a probe is single-threaded by contract.
var campaignProbe atomic.Pointer[probe.Config]

// SetCampaignProbe installs an observability-probe template applied to
// every subsequently started Campaign (nil uninstalls it). Each campaign
// gets its own probe instance built from the template; the Stream sink is
// dropped because experiment sweeps fan campaigns out across workers,
// where interleaved per-run streams would be nondeterministic. A probe set
// explicitly on Campaign.Config.Probe always wins. The probes are pure
// observers, so experiment output is byte-identical with or without them
// (golden-enforced).
func SetCampaignProbe(cfg *probe.Config) {
	if cfg == nil {
		campaignProbe.Store(nil)
		return
	}
	cp := *cfg
	cp.Stream = nil
	campaignProbe.Store(&cp)
}

// Run executes the campaign and returns its statistics.
func (c Campaign) Run() (*mapreduce.Stats, error) {
	s := c.Instance
	if s == nil {
		var err error
		s, err = NewScheduler(c.Sched, c.Params)
		if err != nil {
			return nil, err
		}
	}
	cfg := c.Config
	if cfg.Probe == nil {
		if tmpl := campaignProbe.Load(); tmpl != nil {
			p, err := probe.New(*tmpl)
			if err != nil {
				return nil, fmt.Errorf("experiments: campaign probe: %w", err)
			}
			cfg.Probe = p
		}
	}
	d, err := mapreduce.NewDriver(c.Cluster, s, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	horizon := c.Horizon
	if horizon == 0 {
		horizon = mapreduce.RunawayHorizon
	}
	stats, err := d.Run(c.Jobs, horizon)
	if err != nil {
		return nil, fmt.Errorf("experiments: campaign %s: %w", c.Sched, err)
	}
	return stats, nil
}

// openLoopTasks builds the §II motivation workload: single-block map-only
// jobs of one application arriving at a fixed rate for the given span.
// Each "task" of the paper's task-arrival-rate studies is one such job.
func openLoopTasks(app workload.App, perMinute float64, span time.Duration) []workload.JobSpec {
	if perMinute <= 0 {
		return nil
	}
	spacing := time.Duration(float64(time.Minute) / perMinute)
	var jobs []workload.JobSpec
	id := 0
	for at := time.Duration(0); at < span; at += spacing {
		jobs = append(jobs, workload.NewJobSpec(id, app, workload.BlockMB, 0, at))
		id++
	}
	return jobs
}

// msdJobs generates the §V-C Microsoft-derived workload at the default
// evaluation scale.
func msdJobs(jobs int, seed int64) ([]workload.JobSpec, error) {
	cfg := workload.MSDConfig{
		Jobs:             jobs,
		Scale:            ScaleDown,
		MeanInterarrival: 30 * time.Second,
	}
	return workload.GenerateMSD(cfg, newRNG(seed))
}

// newRNG builds a workload-generation stream independent of driver seeds.
func newRNG(seed int64) *sim.RNG { return sim.NewRNG(seed).Fork("experiments") }
