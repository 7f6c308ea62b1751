package sched_test

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/fault"
	"eant/internal/mapreduce"
	"eant/internal/sched"
	"eant/internal/workload"
)

// contractChecker forwards every Scheduler hook to a policy and counts the
// offers the driver makes, including those made while no work of their
// kind exists — which the driver contract forbids.
type contractChecker struct {
	inner                 mapreduce.Scheduler
	mapCalls, reduceCalls int
	idleMap, idleReduce   int
	speculateCalls        int
}

// observingChecker is the checker for a policy that is a SlotObserver, and
// speculatingChecker for one that is a Speculator: the driver changes what
// it does on those interfaces' presence, so the wrapper implements each
// exactly when the policy does.
type observingChecker struct {
	*contractChecker
	obs mapreduce.SlotObserver
}

type speculatingChecker struct {
	*contractChecker
	spec mapreduce.Speculator
}

func wrapContract(t *testing.T, s mapreduce.Scheduler) (*contractChecker, mapreduce.Scheduler) {
	t.Helper()
	c := &contractChecker{inner: s}
	obs, isObs := s.(mapreduce.SlotObserver)
	spec, isSpec := s.(mapreduce.Speculator)
	switch {
	case isObs && isSpec:
		t.Fatalf("%s both observes slots and speculates; wrapContract needs a checker for that", s.Name())
	case isObs:
		return c, observingChecker{c, obs}
	case isSpec:
		return c, speculatingChecker{c, spec}
	}
	return c, c
}

func (c *contractChecker) Name() string { return c.inner.Name() }

func (c *contractChecker) AssignMap(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	c.mapCalls++
	if ctx.PendingTasks(mapreduce.MapTask) == 0 {
		c.idleMap++
	}
	return c.inner.AssignMap(ctx, m)
}

func (c *contractChecker) AssignReduce(ctx *mapreduce.Context, m cluster.Machine) *mapreduce.Task {
	c.reduceCalls++
	if ctx.ReadyReduceTasks() == 0 {
		c.idleReduce++
	}
	return c.inner.AssignReduce(ctx, m)
}

func (c *contractChecker) OnTaskComplete(ctx *mapreduce.Context, t *mapreduce.Task) {
	c.inner.OnTaskComplete(ctx, t)
}

func (c *contractChecker) OnControlTick(ctx *mapreduce.Context) { c.inner.OnControlTick(ctx) }

func (o observingChecker) OnSlotFreeChange(ctx *mapreduce.Context, m cluster.Machine, kind mapreduce.TaskKind, delta int) {
	o.obs.OnSlotFreeChange(ctx, m, kind, delta)
}

func (s speculatingChecker) Speculate(ctx *mapreduce.Context, m cluster.Machine, kind mapreduce.TaskKind) *mapreduce.Task {
	s.speculateCalls++
	return s.spec.Speculate(ctx, m, kind)
}

// statsDigest fingerprints every field of a run's statistics except the
// offer counters, which count driver consultations rather than outcomes.
func statsDigest(s *mapreduce.Stats) uint64 {
	c := *s
	c.MapOffers, c.ReduceOffers = 0, 0
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", c)
	return h.Sum64()
}

// contractConfigs are the run configurations of the contract test. Both
// inject heavy stragglers, so LATE speculates. "stragglers" has no per-
// machine timed work, so the driver skips idle heartbeats outright for
// every policy but LATE; "churn" adds crashes, attempt failures with
// blacklisting, and consolidation, so the driver walks the fleet on every
// heartbeat and only its per-kind gate applies.
var contractConfigs = []struct {
	name string
	cfg  func() mapreduce.Config
}{
	{"stragglers", func() mapreduce.Config { return stragglerConfig(3) }},
	{"churn", func() mapreduce.Config {
		cfg := stragglerConfig(3)
		cfg.Fault = fault.Config{
			MachineMTBF:        20 * time.Minute,
			MachineMTTR:        2 * time.Minute,
			TaskFailProb:       0.05,
			MaxAttempts:        100,
			BlacklistThreshold: 2,
			BlacklistCooldown:  2 * time.Minute,
		}
		cfg.Power = mapreduce.PowerMgmt{Enabled: true}
		return cfg
	}},
}

// contractDigests pins statsDigest for each (config, policy), as recorded
// before the driver gated offers on pending work: gating must not change
// any outcome.
var contractDigests = map[string]uint64{
	"stragglers/E-Ant":      0x1d56bac2eb06fd5b,
	"stragglers/Fair":       0x259a6edc7991ae26,
	"stragglers/Tarazu":     0xa282f32a6c8d7382,
	"stragglers/LATE":       0x89dabf193020344c,
	"stragglers/Capacity":   0x11994bdd785fcb58,
	"stragglers/FIFO":       0x113158642b53569e,
	"stragglers/Fair+delay": 0xc470466630d847fb,
	"churn/E-Ant":           0x1ad0dbfd4929ba70,
	"churn/Fair":            0x774ab8a3815a7bef,
	"churn/Tarazu":          0x61198f091d03b249,
	"churn/LATE":            0x2eed874ed5b072c6,
	"churn/Capacity":        0x3e84f2b41af75f91,
	"churn/FIFO":            0x5917e41830a65337,
	"churn/Fair+delay":      0xfe983c9c0cbfd693,
}

// TestDriverContractAllPolicies runs every registered policy, plus Fair
// with delay scheduling, on both contract configurations. The driver must
// never call AssignMap while no map is pending nor AssignReduce while no
// reduce is ready, and every run's statistics, offer counters excluded,
// must equal the pinned digest.
func TestDriverContractAllPolicies(t *testing.T) {
	type policy struct {
		name string
		make func() (mapreduce.Scheduler, error)
	}
	var policies []policy
	for _, name := range sched.Names() {
		p, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		policies = append(policies, policy{string(name), func() (mapreduce.Scheduler, error) { return p.New(core.DefaultParams()) }})
	}
	policies = append(policies, policy{"Fair+delay", func() (mapreduce.Scheduler, error) { return sched.NewFairWithDelay(3), nil }})

	jobs := workload.Batch(workload.Wordcount, 3, 1600, 2, 4*time.Minute)
	for _, cc := range contractConfigs {
		for _, p := range policies {
			key := cc.name + "/" + p.name
			s, err := p.make()
			if err != nil {
				t.Fatal(err)
			}
			check, wrapped := wrapContract(t, s)
			cfg := cc.cfg()
			cfg.KeepTaskRecords = true
			d, err := mapreduce.NewDriver(cluster.Testbed(), wrapped, cfg)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := d.Run(jobs, 12*time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			if check.idleMap != 0 || check.idleReduce != 0 {
				t.Errorf("%s: %d of %d AssignMap calls with no pending map, %d of %d AssignReduce calls with no ready reduce",
					key, check.idleMap, check.mapCalls, check.idleReduce, check.reduceCalls)
			}
			if check.mapCalls == 0 || check.reduceCalls == 0 || len(stats.Jobs) != len(jobs) {
				t.Errorf("%s: inert run: %d map and %d reduce offers, %d/%d jobs",
					key, check.mapCalls, check.reduceCalls, len(stats.Jobs), len(jobs))
			}
			// An offer is counted when the scheduler is consulted: exactly
			// one Assign call each, unless a Speculate call may stand in.
			if check.speculateCalls == 0 && (check.mapCalls != stats.MapOffers || check.reduceCalls != stats.ReduceOffers) {
				t.Errorf("%s: %d+%d Assign calls, %d+%d offers counted",
					key, check.mapCalls, check.reduceCalls, stats.MapOffers, stats.ReduceOffers)
			}
			if got, want := statsDigest(stats), contractDigests[key]; got != want {
				t.Errorf("%s: stats digest %#x, want %#x", key, got, want)
			}
			if p.name == "LATE" && (check.speculateCalls == 0 || stats.SpeculativeStarted == 0) {
				t.Errorf("%s: speculation inert: %d Speculate calls, %d clones", key, check.speculateCalls, stats.SpeculativeStarted)
			}
			if cc.name == "churn" && (stats.Crashes == 0 || stats.TaskFailures == 0 || stats.Blacklists == 0 || stats.Sleeps == 0) {
				t.Errorf("%s: churn inert: crashes=%d failures=%d blacklists=%d sleeps=%d",
					key, stats.Crashes, stats.TaskFailures, stats.Blacklists, stats.Sleeps)
			}
		}
	}
}
