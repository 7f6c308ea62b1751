package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"eant"
	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/experiments"
	"eant/internal/mapreduce"
	"eant/internal/noise"
	"eant/internal/parallel"
	"eant/internal/sim"
	"eant/internal/workload"
)

// horizon is the virtual-time cap of every campaign, the same runaway
// guard eant.Run and experiments.Campaign use.
const horizon = 48 * time.Hour

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	name string
	// defaultSeed reproduces the workload's reference numbers; heldOutSeed
	// is kept out of tuning so that a claim can be re-checked on it.
	defaultSeed int64
	heldOutSeed int64
	// prepare performs one set-up: it builds the world for seed and
	// primes it with one campaign.
	prepare func(seed int64) (campaign, setupTimes, error)
}

// setupTimes splits one set-up into its parts.
type setupTimes struct {
	cluster time.Duration // build the machine fleet
	jobs    time.Duration // generate the job lists
	world   time.Duration // construct the world and run the priming campaign
	total   time.Duration
}

// campaign is a prepared workload whose world is built and primed.
type campaign interface {
	// gate runs the cold reference campaign the measured ones must
	// reproduce and checks the set-up against it (and, for fig8 at its
	// default seed, against the committed golden tables).
	gate(o options, t *tally) error
	// run executes one untraced campaign. ok reports whether its output
	// passed the correctness check.
	run() (tasks int, ok bool, err error)
	// prepareTrace builds the traced world, once per set-up repetition.
	prepareTrace(reps int, acc *layers, t *tally) error
	// traced executes one traced campaign and adds its layer counts to acc.
	traced(acc *layers) (tasks int, ok bool, err error)
	// specHash identifies the campaign's inputs for the manifest.
	specHash() string
}

// The job lists are pinned at each workload's default seed, and --seed
// drives every random stream of the simulation instead: task-duration
// noise and stragglers, HDFS placement, the scheduler's draws, and fault
// injection. MSD job sizes are log-uniform within their class, so a job
// list drawn from the seed would change the work per campaign by ±30 %
// from seed to seed and bury any code change under input variance; with
// the list pinned, the work per campaign moves by a few percent.
var workloads = []workloadDef{
	{
		name: "fleet1024-sparse",
		// E-Ant on the 1024-machine scaled testbed with 20 jobs: 779,780
		// offers place 5,010 tasks at the default seed, so the driver's
		// all-machines heartbeat sweep dominates.
		defaultSeed: 7,
		heldOutSeed: 11,
		prepare:     warmWorkload(scaledTestbed(64), 20, 7, nil, false),
	},
	{
		name: "testbed-msd87",
		// The paper's own setting. About half of all map offers assign a
		// task, so the cost is E-Ant's decision and feedback path and event
		// dispatch; a change that skips empty offers should leave it
		// unchanged.
		defaultSeed: 1,
		heldOutSeed: 2,
		prepare:     warmWorkload(eant.PaperTestbed, 87, 1, nil, false),
	},
	{
		name: "fig8-campaign",
		// The Fig. 8 grid on the cold Campaign.Run path: 4 policies x 3
		// seeds, each cell building its own world, on 2 workers; the pool
		// waits on its slowest cell.
		defaultSeed: fig8DefaultSeed,
		heldOutSeed: 4,
		prepare:     prepareFig8,
	},
	{
		name: "churn64-faults",
		// Crashes, task failures and consolidation on 64 machines: the
		// workload that runs fault injection, recovery and power
		// management.
		defaultSeed: 5,
		heldOutSeed: 9,
		prepare: warmWorkload(scaledTestbed(4), 87, 5, &eant.FaultConfig{
			MachineMTBF:  2 * time.Hour,
			MachineMTTR:  5 * time.Minute,
			TaskFailProb: 0.02,
		}, true),
	},
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// scaledTestbed returns a builder for the paper testbed's 8:3:2:1:1:1
// machine mix scaled by factor (16·factor machines).
func scaledTestbed(factor int) func() *eant.Cluster {
	return func() *eant.Cluster {
		c, err := eant.NewCluster(
			eant.ClusterGroup{Spec: cluster.SpecDesktop, Count: 8 * factor},
			eant.ClusterGroup{Spec: cluster.SpecT110, Count: 3 * factor},
			eant.ClusterGroup{Spec: cluster.SpecT420, Count: 2 * factor},
			eant.ClusterGroup{Spec: cluster.SpecT320, Count: factor},
			eant.ClusterGroup{Spec: cluster.SpecT620, Count: factor},
			eant.ClusterGroup{Spec: cluster.SpecAtom, Count: factor},
		)
		if err != nil {
			panic(err) // fixed, valid catalog groups
		}
		return c
	}
}

// driverConfig is the driver configuration eant.Run builds for a spec
// (and, with faults and power nil, the one experiments.Fig8 builds for a
// cell): default driver, 30 s control interval, evaluation noise.
func driverConfig(seed int64, faults *eant.FaultConfig, power *eant.Consolidation) mapreduce.Config {
	cfg := mapreduce.DefaultConfig()
	cfg.Seed = seed
	cfg.ControlInterval = experiments.DefaultControlInterval
	cfg.Noise = noise.Default()
	if power != nil {
		cfg.Power = *power
		cfg.Power.Enabled = true
	}
	if faults != nil {
		cfg.Fault = *faults
	}
	return cfg
}

// digest fingerprints a run's outcome: total energy bits, makespan,
// tasks done, offers and every machine's energy bits (FNV-1a).
func digest(s *mapreduce.Stats) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(math.Float64bits(s.TotalJoules))
	mix(uint64(s.Horizon))
	mix(uint64(s.TasksDone()))
	mix(uint64(s.MapOffers))
	mix(uint64(s.ReduceOffers))
	for _, j := range s.MachineJoules {
		mix(math.Float64bits(j))
	}
	return h
}

// balanced reports whether the per-machine energies sum, in machine
// order, exactly to the fleet total.
func balanced(s *mapreduce.Stats) bool {
	var sum float64
	for _, j := range s.MachineJoules {
		sum += j
	}
	return sum == s.TotalJoules
}

// hashSpec fingerprints a campaign's inputs for the manifest.
func hashSpec(parts ...any) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", parts)
	return fmt.Sprintf("%016x", h.Sum64())
}

// composition lists a cluster's machine types with their counts.
func composition(c *eant.Cluster) string {
	var b strings.Builder
	for _, name := range c.TypeNames() {
		fmt.Fprintf(&b, "%s=%d ", name, len(c.ByType(name)))
	}
	return b.String()
}

// warmCampaign is E-Ant on one fleet, run again and again on a warm
// eant.Runner, as sweeps over one fleet run it.
type warmCampaign struct {
	spec   eant.RunSpec
	runner *eant.Runner
	primed uint64 // digest of the priming run
	want   uint64 // digest of a cold eant.Run of spec

	// The traced world: the same campaign driven through
	// mapreduce.NewDriver, Driver.Reset and Driver.Run directly, with
	// the scheduler wrapped in a tracer.
	cfg     mapreduce.Config
	sched   *core.EAnt
	tracer  *tracer
	wrapped mapreduce.Scheduler
	driver  *mapreduce.Driver
}

// warmWorkload returns the set-up of a warm-Runner workload: E-Ant on
// the fleet machines() builds, running MSDWorkload(jobs, jobSeed).
func warmWorkload(machines func() *eant.Cluster, jobs int, jobSeed int64, faults *eant.FaultConfig, consolidate bool) func(int64) (campaign, setupTimes, error) {
	return func(seed int64) (campaign, setupTimes, error) {
		t0 := time.Now()
		c := machines()
		t1 := time.Now()
		list := eant.MSDWorkload(jobs, jobSeed)
		t2 := time.Now()
		spec := eant.RunSpec{Cluster: c, Scheduler: eant.SchedulerEAnt, Jobs: list, Seed: seed, Faults: faults}
		if consolidate {
			spec.Consolidation = &eant.Consolidation{}
		}
		r, err := eant.NewRunner(c)
		if err != nil {
			return nil, setupTimes{}, err
		}
		res, err := r.Run(spec)
		if err != nil {
			return nil, setupTimes{}, err
		}
		t3 := time.Now()
		w := &warmCampaign{
			spec:   spec,
			runner: r,
			primed: digest(res.Stats),
			cfg:    driverConfig(seed, spec.Faults, spec.Consolidation),
		}
		return w, setupTimes{cluster: t1.Sub(t0), jobs: t2.Sub(t1), world: t3.Sub(t2), total: t3.Sub(t0)}, nil
	}
}

func (w *warmCampaign) gate(_ options, t *tally) error {
	ref := w.spec
	ref.Cluster = w.spec.Cluster.Clone()
	res, err := eant.Run(ref)
	if err != nil {
		return err
	}
	w.want = digest(res.Stats)
	t.check(balanced(res.Stats) && w.primed == w.want)
	return nil
}

func (w *warmCampaign) run() (int, bool, error) {
	res, err := w.runner.Run(w.spec)
	if err != nil {
		return 0, false, err
	}
	return res.Stats.TasksDone(), digest(res.Stats) == w.want && balanced(res.Stats), nil
}

func (w *warmCampaign) prepareTrace(reps int, acc *layers, t *tally) error {
	acc.workers = 1
	for i := 0; i < reps; i++ {
		e, err := core.NewEAnt(core.DefaultParams())
		if err != nil {
			return err
		}
		tr, wrapped := newTracer(e)
		c := w.spec.Cluster.Clone()
		t0 := time.Now()
		d, err := mapreduce.NewDriver(c, wrapped, w.cfg)
		if err != nil {
			return err
		}
		acc.buildMs = append(acc.buildMs, msOf(time.Since(t0)))
		stats, err := d.Run(w.spec.Jobs, horizon)
		if err != nil {
			return err
		}
		t.check(digest(stats) == w.want && balanced(stats))
		*tr = tracer{inner: e}
		w.sched, w.tracer, w.wrapped, w.driver = e, tr, wrapped, d
	}
	return nil
}

func (w *warmCampaign) traced(acc *layers) (int, bool, error) {
	start := time.Now()
	if err := w.sched.ResetForRun(core.DefaultParams()); err != nil {
		return 0, false, err
	}
	t0 := time.Now()
	if err := w.driver.Reset(w.wrapped, w.cfg); err != nil {
		return 0, false, err
	}
	t1 := time.Now()
	stats, err := w.driver.Run(w.spec.Jobs, horizon)
	if err != nil {
		return 0, false, err
	}
	t2 := time.Now()
	run := t2.Sub(t1)
	acc.campaigns++
	acc.resetMs = append(acc.resetMs, msOf(t1.Sub(t0)))
	acc.cellNs += int64(run)
	acc.campaignNs += int64(t2.Sub(start))
	acc.cellMaxMs = append(acc.cellMaxMs, msOf(run))
	agree := acc.addRun(w.tracer, stats, w.driver.Engine().Fired(), run)
	return stats.TasksDone(), agree && digest(stats) == w.want && balanced(stats), nil
}

func (w *warmCampaign) specHash() string {
	return hashSpec(composition(w.spec.Cluster), w.spec.Jobs, w.cfg)
}

// fig8DefaultSeed is the seed at which fig8-campaign is `eantsim fig8`.
const fig8DefaultSeed = 1

// fig8Cell is one (policy, seed) cell of the Fig. 8 grid.
type fig8Cell struct {
	sched   experiments.SchedulerName
	jobSeed int64 // the MSD job list, pinned as in Fig. 8
	seed    int64 // the driver seed, from --seed
}

// fig8Campaign is the Fig. 8 grid run as `eantsim fig8` runs it: every
// cell builds its own testbed, job list and driver through
// experiments.Campaign.Run, fanned out over a pool of two workers.
type fig8Campaign struct {
	seed    int64
	cells   []fig8Cell
	workers int
	primed  []uint64
	want    []uint64  // digest of each cell's cold eant.Run
	joules  []float64 // TotalJoules of each cell's cold eant.Run
}

// fig8Jobs is the job list of Fig. 8's seed-k cells.
func fig8Jobs(k int64) ([]workload.JobSpec, error) {
	cfg := experiments.DefaultFig8Config()
	return workload.GenerateMSD(workload.MSDConfig{
		Jobs:             cfg.Jobs,
		Scale:            experiments.ScaleDown,
		MeanInterarrival: cfg.MeanInterarrival,
	}, sim.NewRNG(k).Fork("experiments"))
}

// prepareFig8 sets up the grid. Cell k of each policy runs Fig. 8's
// seed-k job list with driver seed --seed+k-1, so the default seed 1
// reproduces `eantsim fig8` exactly.
func prepareFig8(seed int64) (campaign, setupTimes, error) {
	// Every cell builds its own testbed and job list, as Fig. 8 does; the
	// set-up times one testbed build and the three job lists.
	t0 := time.Now()
	cluster.Testbed()
	t1 := time.Now()
	cfg := experiments.DefaultFig8Config()
	for k := int64(1); k <= int64(cfg.Seeds); k++ {
		if _, err := fig8Jobs(k); err != nil {
			return nil, setupTimes{}, err
		}
	}
	t2 := time.Now()
	g := &fig8Campaign{seed: seed, workers: 2}
	for _, name := range []experiments.SchedulerName{experiments.SchedFIFO, experiments.SchedFair, experiments.SchedTarazu, experiments.SchedEAnt} {
		for k := int64(1); k <= int64(cfg.Seeds); k++ {
			g.cells = append(g.cells, fig8Cell{sched: name, jobSeed: k, seed: seed + k - 1})
		}
	}
	stats, err := g.grid()
	if err != nil {
		return nil, setupTimes{}, err
	}
	t3 := time.Now()
	for _, s := range stats {
		g.primed = append(g.primed, digest(s))
	}
	return g, setupTimes{cluster: t1.Sub(t0), jobs: t2.Sub(t1), world: t3.Sub(t2), total: t3.Sub(t0)}, nil
}

// grid runs every cell on the cold Campaign.Run path.
func (g *fig8Campaign) grid() ([]*mapreduce.Stats, error) {
	return parallel.Map(len(g.cells), g.workers, func(i int) (*mapreduce.Stats, error) {
		c := g.cells[i]
		jobs, err := fig8Jobs(c.jobSeed)
		if err != nil {
			return nil, err
		}
		return experiments.Campaign{
			Cluster: cluster.Testbed(), Sched: c.sched, Params: core.DefaultParams(),
			Jobs: jobs, Config: driverConfig(c.seed, nil, nil),
		}.Run()
	})
}

// gate computes each cell's reference digest with a cold eant.Run of the
// same spec, a code path independent of experiments.Campaign. At the
// default seed it also runs experiments.Fig8 itself and checks that its
// rendered tables equal cmd/eantsim/testdata/fig8.golden and that its
// per-policy results are the ones the benchmark's cells produce.
func (g *fig8Campaign) gate(o options, t *tally) error {
	g.want = make([]uint64, len(g.cells))
	g.joules = make([]float64, len(g.cells))
	ok := true
	for i, c := range g.cells {
		jobs, err := fig8Jobs(c.jobSeed)
		if err != nil {
			return err
		}
		res, err := eant.Run(eant.RunSpec{Cluster: eant.PaperTestbed(), Scheduler: eant.Scheduler(c.sched), Jobs: jobs, Seed: c.seed})
		if err != nil {
			return err
		}
		g.want[i] = digest(res.Stats)
		g.joules[i] = res.TotalJoules
		ok = ok && balanced(res.Stats) && g.primed[i] == g.want[i]
	}
	t.check(ok)
	if g.seed != fig8DefaultSeed {
		return nil
	}
	golden, err := os.ReadFile(filepath.Join(o.root, "cmd", "eantsim", "testdata", "fig8.golden"))
	if err != nil {
		return err
	}
	parallel.SetDefaultWorkers(g.workers)
	r, err := experiments.Fig8(experiments.DefaultFig8Config())
	if err != nil {
		return err
	}
	tables := r.TableA().String() + r.TableB().String() + r.TableC().String()
	ok = tables == string(golden)
	seeds := len(g.cells) / len(r.Results)
	for si, sr := range r.Results {
		var sum float64
		for k := 0; k < seeds; k++ {
			sum += g.joules[si*seeds+k]
		}
		last := si*seeds + seeds - 1
		ok = ok && sr.Sched == g.cells[last].sched && digest(sr.Last) == g.want[last] &&
			sum/float64(seeds) == sr.TotalJoules // exact: Fig8 sums the same values in the same order
	}
	t.check(ok)
	return nil
}

func (g *fig8Campaign) run() (int, bool, error) {
	stats, err := g.grid()
	if err != nil {
		return 0, false, err
	}
	tasks, ok := 0, true
	for i, s := range stats {
		tasks += s.TasksDone()
		ok = ok && digest(s) == g.want[i] && balanced(s)
	}
	return tasks, ok, nil
}

func (g *fig8Campaign) prepareTrace(_ int, acc *layers, _ *tally) error {
	acc.workers = g.workers
	return nil
}

// fig8Traced is one traced cell's outcome.
type fig8Traced struct {
	stats  *mapreduce.Stats
	tracer *tracer
	driver *mapreduce.Driver
	events uint64
	build  time.Duration
	run    time.Duration
	cell   time.Duration
}

// traced runs the grid with every cell's scheduler wrapped in a tracer.
// A cell builds its driver with mapreduce.NewDriver and runs it with
// Driver.Run, exactly the calls experiments.Campaign.Run makes, so that
// the build time and the engine's event count, which Campaign.Run keeps
// inside, can be read; the digest check shows the cells still produce
// the Campaign.Run results. After the grid, each driver is reset once,
// which times what a warm path would pay in place of the build.
func (g *fig8Campaign) traced(acc *layers) (int, bool, error) {
	start := time.Now()
	cells, err := parallel.Map(len(g.cells), g.workers, func(i int) (fig8Traced, error) {
		c := g.cells[i]
		t0 := time.Now()
		jobs, err := fig8Jobs(c.jobSeed)
		if err != nil {
			return fig8Traced{}, err
		}
		s, err := experiments.NewScheduler(c.sched, core.DefaultParams())
		if err != nil {
			return fig8Traced{}, err
		}
		tr, wrapped := newTracer(s)
		testbed := cluster.Testbed()
		t1 := time.Now()
		d, err := mapreduce.NewDriver(testbed, wrapped, driverConfig(c.seed, nil, nil))
		if err != nil {
			return fig8Traced{}, err
		}
		t2 := time.Now()
		stats, err := d.Run(jobs, horizon)
		if err != nil {
			return fig8Traced{}, err
		}
		t3 := time.Now()
		return fig8Traced{stats: stats, tracer: tr, driver: d, events: d.Engine().Fired(), build: t2.Sub(t1), run: t3.Sub(t2), cell: t3.Sub(t0)}, nil
	})
	if err != nil {
		return 0, false, err
	}
	wall := time.Since(start)
	tasks, ok := 0, true
	var maxCell time.Duration
	for i, c := range cells {
		agree := acc.addRun(c.tracer, c.stats, c.events, c.run)
		tasks += c.stats.TasksDone()
		ok = ok && agree && digest(c.stats) == g.want[i] && balanced(c.stats)
		acc.buildMs = append(acc.buildMs, msOf(c.build))
		acc.cellNs += int64(c.cell)
		maxCell = max(maxCell, c.cell)

		fresh, err := experiments.NewScheduler(g.cells[i].sched, core.DefaultParams())
		if err != nil {
			return 0, false, err
		}
		t0 := time.Now()
		if err := c.driver.Reset(fresh, driverConfig(g.cells[i].seed, nil, nil)); err != nil {
			return 0, false, err
		}
		acc.resetMs = append(acc.resetMs, msOf(time.Since(t0)))
	}
	acc.campaigns++
	acc.campaignNs += int64(wall)
	acc.cellMaxMs = append(acc.cellMaxMs, msOf(maxCell))
	return tasks, ok, nil
}

func (g *fig8Campaign) specHash() string {
	var jobs [][]workload.JobSpec
	for k := int64(1); k <= int64(experiments.DefaultFig8Config().Seeds); k++ {
		list, err := fig8Jobs(k)
		if err != nil {
			return "unknown"
		}
		jobs = append(jobs, list)
	}
	return hashSpec(composition(eant.PaperTestbed()), g.cells, jobs, driverConfig(g.seed, nil, nil))
}
