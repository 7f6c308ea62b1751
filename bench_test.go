package eant

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper, regenerating the corresponding rows/series, plus ablation
// benches for the design choices DESIGN.md calls out. Custom metrics
// attach the headline quantity of each experiment (energy, savings,
// error, convergence time) to the benchmark output, so
// `go test -bench=. -benchmem` doubles as the reproduction record.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"eant/internal/cluster"
	"eant/internal/core"
	"eant/internal/experiments"
	"eant/internal/workload"
)

// The Fig. 8a/b/c and Fig. 9a/b benchmarks are five views of one and the
// same campaign (Fig. 9 is derived from the Fig. 8 task log), so the
// campaign is simulated once per process and shared; each benchmark then
// measures its own view extraction. The simulation itself is measured by
// BenchmarkFig8Campaign.
var (
	fig8Once   sync.Once
	fig8Shared *experiments.Fig8Result
	fig8Err    error
)

func sharedFig8(b *testing.B) *experiments.Fig8Result {
	b.Helper()
	fig8Once.Do(func() {
		fig8Shared, fig8Err = experiments.Fig8(experiments.DefaultFig8Config())
	})
	if fig8Err != nil {
		b.Fatal(fig8Err)
	}
	return fig8Shared
}

// BenchmarkFig8Campaign measures the full Fig. 8 sweep (4 schedulers × 5
// seeds), the cost the view benchmarks above it no longer repeat.
func BenchmarkFig8Campaign(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(experiments.DefaultFig8Config())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Results) == 0 {
			b.Fatal("empty campaign")
		}
	}
}

func BenchmarkTableI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if experiments.TableI() == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if experiments.TableII() == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIII(87, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1a(b *testing.B) {
	b.ReportAllocs()
	var crossover float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1a()
		if err != nil {
			b.Fatal(err)
		}
		crossover = r.Crossover
	}
	b.ReportMetric(crossover, "crossover_task/min")
}

func BenchmarkFig1b(b *testing.B) {
	b.ReportAllocs()
	var xeonIdleShare float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1b()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Machine == "XeonE5" && row.Load == "light" {
				xeonIdleShare = row.IdleWatts / (row.IdleWatts + row.WorkloadWatts)
			}
		}
	}
	b.ReportMetric(xeonIdleShare, "xeon_light_idle_frac")
}

func BenchmarkFig1c(b *testing.B) {
	b.ReportAllocs()
	var wcPeak float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1c()
		if err != nil {
			b.Fatal(err)
		}
		wcPeak = r.PeakRate[workload.Wordcount]
	}
	b.ReportMetric(wcPeak, "wordcount_peak_task/min")
}

func BenchmarkFig1d(b *testing.B) {
	b.ReportAllocs()
	var wcMapFrac float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1d()
		if err != nil {
			b.Fatal(err)
		}
		wcMapFrac = r.Rows[0].Map
	}
	b.ReportMetric(wcMapFrac, "wordcount_map_frac")
}

func BenchmarkFig4(b *testing.B) {
	b.ReportAllocs()
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		worst = r.MaxNRMSE()
	}
	b.ReportMetric(100*worst, "max_nrmse_%")
}

func BenchmarkFig6(b *testing.B) {
	b.ReportAllocs()
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		first := r.Rows[0].JCT
		last := r.Rows[len(r.Rows)-1].JCT
		speedup = float64(first) / float64(last)
	}
	b.ReportMetric(speedup, "jct_10%_vs_80%_local")
}

func BenchmarkFig7(b *testing.B) {
	b.ReportAllocs()
	var spike float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		spike = r.SpikeRatio()
	}
	b.ReportMetric(spike, "noise_spike_ratio")
}

func BenchmarkFig8a(b *testing.B) {
	b.ReportAllocs()
	r := sharedFig8(b)
	b.ResetTimer()
	var vsFair, vsTarazu float64
	for i := 0; i < b.N; i++ {
		vsFair = r.SavingVs(experiments.SchedFair)
		vsTarazu = r.SavingVs(experiments.SchedTarazu)
	}
	b.ReportMetric(vsFair, "saving_vs_fair_%")
	b.ReportMetric(vsTarazu, "saving_vs_tarazu_%")
}

func BenchmarkFig8b(b *testing.B) {
	b.ReportAllocs()
	r := sharedFig8(b)
	b.ResetTimer()
	var t420Shift float64
	for i := 0; i < b.N; i++ {
		fair := r.Result(experiments.SchedFair)
		eantRes := r.Result(experiments.SchedEAnt)
		t420Shift = 100 * (eantRes.TypeUtil["T420"] - fair.TypeUtil["T420"])
	}
	b.ReportMetric(t420Shift, "t420_util_shift_pp")
}

func BenchmarkFig8c(b *testing.B) {
	b.ReportAllocs()
	r := sharedFig8(b)
	b.ResetTimer()
	var worstRatio float64
	for i := 0; i < b.N; i++ {
		fair := r.Result(experiments.SchedFair)
		eantRes := r.Result(experiments.SchedEAnt)
		worstRatio = 0
		for label, base := range fair.ClassJCT {
			if base <= 0 {
				continue
			}
			ratio := float64(eantRes.ClassJCT[label]) / float64(base)
			if ratio > worstRatio {
				worstRatio = ratio
			}
		}
	}
	b.ReportMetric(worstRatio, "worst_jct_vs_fair")
}

func BenchmarkFig9a(b *testing.B) {
	b.ReportAllocs()
	f8 := sharedFig8(b)
	b.ResetTimer()
	var wcShareT420 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(f8)
		if err != nil {
			b.Fatal(err)
		}
		wcShareT420 = r.WordcountShare("T420")
	}
	b.ReportMetric(wcShareT420, "t420_wordcount_share")
}

func BenchmarkFig9b(b *testing.B) {
	b.ReportAllocs()
	f8 := sharedFig8(b)
	b.ResetTimer()
	var mapFracT420 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(f8)
		if err != nil {
			b.Fatal(err)
		}
		byKind := r.ByKind["T420"]
		total := 0
		for _, n := range byKind {
			total += n
		}
		if total > 0 {
			mapFracT420 = float64(byKind[1]) / float64(total)
		}
	}
	b.ReportMetric(mapFracT420, "t420_map_fraction")
}

func BenchmarkFig10(b *testing.B) {
	b.ReportAllocs()
	var bothGain float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		bothGain = r.FinalSaving[experiments.ExchangeBoth] - r.FinalSaving[experiments.ExchangeNone]
	}
	b.ReportMetric(bothGain, "both_vs_none_KJ")
}

func BenchmarkFig11a(b *testing.B) {
	b.ReportAllocs()
	var last float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11a()
		if err != nil {
			b.Fatal(err)
		}
		row := r.Rows[len(r.Rows)-1]
		if row.Converged > 0 {
			last = row.Convergence.Seconds()
		}
	}
	b.ReportMetric(last, "convergence_8_machines_s")
}

func BenchmarkFig11b(b *testing.B) {
	b.ReportAllocs()
	var last float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11b()
		if err != nil {
			b.Fatal(err)
		}
		row := r.Rows[len(r.Rows)-1]
		if row.Converged > 0 {
			last = row.Convergence.Seconds()
		}
	}
	b.ReportMetric(last, "convergence_40_jobs_s")
}

func BenchmarkFig12a(b *testing.B) {
	b.ReportAllocs()
	var bestBeta float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12a()
		if err != nil {
			b.Fatal(err)
		}
		best := r.Rows[0]
		for _, row := range r.Rows {
			if row.SavingKJ > best.SavingKJ {
				best = row
			}
		}
		bestBeta = best.Beta
	}
	b.ReportMetric(bestBeta, "best_beta")
}

func BenchmarkFig12b(b *testing.B) {
	b.ReportAllocs()
	var peak float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12b()
		if err != nil {
			b.Fatal(err)
		}
		peak = r.PeakInterval().Seconds()
	}
	b.ReportMetric(peak, "peak_interval_s")
}

// --- Ablation benches (DESIGN.md §6) ---

// ablationRun measures E-Ant total energy on a fixed workload under a
// parameter mutation, reporting KJ (lower is better).
func ablationRun(b *testing.B, mutate func(*core.Params)) {
	b.Helper()
	var joules float64
	for i := 0; i < b.N; i++ {
		params := core.DefaultParams()
		mutate(&params)
		noiseCfg := DefaultNoise()
		r, err := Run(RunSpec{
			Cluster:    PaperTestbed(),
			Scheduler:  SchedulerEAnt,
			EAntParams: &params,
			Jobs:       MSDWorkload(40, 11),
			Seed:       11,
			Noise:      &noiseCfg,
		})
		if err != nil {
			b.Fatal(err)
		}
		joules = r.TotalJoules
	}
	b.ReportMetric(joules/1000, "KJ")
}

func BenchmarkAblationDefault(b *testing.B) {
	b.ReportAllocs()
	ablationRun(b, func(*core.Params) {})
}

func BenchmarkAblationNoNegativeFeedback(b *testing.B) {
	b.ReportAllocs()
	ablationRun(b, func(p *core.Params) { p.NegativeFeedback = false })
}

func BenchmarkAblationGreedySelection(b *testing.B) {
	b.ReportAllocs()
	ablationRun(b, func(p *core.Params) { p.Greedy = true })
}

func BenchmarkAblationPaperSumDeposits(b *testing.B) {
	b.ReportAllocs()
	ablationRun(b, func(p *core.Params) { p.SumDeposits = true; p.Gamma = 1 })
}

func BenchmarkAblationWorkConserving(b *testing.B) {
	b.ReportAllocs()
	ablationRun(b, func(p *core.Params) { p.AcceptFloor = 1 })
}

func BenchmarkAblationRho02(b *testing.B) {
	b.ReportAllocs()
	ablationRun(b, func(p *core.Params) { p.Rho = 0.2 })
}

func BenchmarkAblationRho08(b *testing.B) {
	b.ReportAllocs()
	ablationRun(b, func(p *core.Params) { p.Rho = 0.8 })
}

func BenchmarkAblationNoExchange(b *testing.B) {
	b.ReportAllocs()
	ablationRun(b, func(p *core.Params) {
		p.MachineExchange = false
		p.JobExchange = false
	})
}

// BenchmarkConsolidation measures the §VIII future-work extension:
// covering-subset power management paired with each scheduler.
func BenchmarkConsolidation(b *testing.B) {
	b.ReportAllocs()
	var fairGain, eantGain, advantage float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Consolidation()
		if err != nil {
			b.Fatal(err)
		}
		fairGain = r.ConsolidationGain(experiments.SchedFair)
		eantGain = r.ConsolidationGain(experiments.SchedEAnt)
		advantage = r.EAntAdvantage()
	}
	b.ReportMetric(fairGain, "fair_gain_%")
	b.ReportMetric(eantGain, "eant_gain_%")
	b.ReportMetric(advantage, "eant_vs_fair_consolidated_%")
}

// BenchmarkLATE measures speculative execution's tail cut under heavy
// stragglers relative to Fair.
func BenchmarkLATE(b *testing.B) {
	b.ReportAllocs()
	heavy := NoiseConfig{DurationCV: 0.1, StragglerProb: 0.25, StragglerMin: 4, StragglerMax: 6}
	var speedup float64
	for i := 0; i < b.N; i++ {
		// Tail-dominated batches: every job's last wave rides on whether
		// a straggler gets speculated.
		var jobs []Job
		for id := 0; id < 6; id++ {
			jobs = append(jobs, NewJob(id, Wordcount, 3200, 4, time.Duration(id)*10*time.Second))
		}
		run := func(s Scheduler) float64 {
			r, err := Run(RunSpec{
				Cluster: PaperTestbed(), Scheduler: s, Jobs: jobs, Seed: 5, Noise: &heavy,
			})
			if err != nil {
				b.Fatal(err)
			}
			return r.Makespan.Seconds()
		}
		speedup = run(SchedulerFair) / run(SchedulerLATE)
	}
	b.ReportMetric(speedup, "fair/late_makespan")
}

// --- Cluster-scale benches (DESIGN.md §7) ---

// scaledTestbed returns the paper's §V-B fleet proportions multiplied by
// factor: 16·factor machines keeping the 8:3:2:1:1:1 hardware mix.
func scaledTestbed(tb testing.TB, factor int) *Cluster {
	tb.Helper()
	c, err := NewCluster(
		ClusterGroup{Spec: cluster.SpecDesktop, Count: 8 * factor},
		ClusterGroup{Spec: cluster.SpecT110, Count: 3 * factor},
		ClusterGroup{Spec: cluster.SpecT420, Count: 2 * factor},
		ClusterGroup{Spec: cluster.SpecT320, Count: factor},
		ClusterGroup{Spec: cluster.SpecT620, Count: factor},
		ClusterGroup{Spec: cluster.SpecAtom, Count: factor},
	)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// scaleRun runs one cell of the scale grid and reports ns/task: wall time
// divided by completed tasks. The heartbeat sweep consults the scheduler
// only while work of that kind is pending, so a run's cost follows its
// tasks, not machines × heartbeats; flat ns/task across cluster sizes is
// that claim.
//
// Each cell measures the warm-run steady state: the world (cluster,
// driver, scheduler) is built and primed once before the timer, and every
// measured iteration resets it in place via Runner — so allocs/op is the
// true per-run residual of a sweep, not the one-time construction cost.
// The priming run is what a cold iteration used to be; BenchmarkRunManyWarm
// keeps the cold-vs-warm comparison measurable side by side.
func scaleRun(b *testing.B, sched Scheduler, factor, jobs int) {
	b.ReportAllocs()
	spec := RunSpec{
		Cluster:   scaledTestbed(b, factor),
		Scheduler: sched,
		Jobs:      MSDWorkload(jobs, 7),
		Seed:      7,
	}
	runner, err := NewRunner(spec.Cluster)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := runner.Run(spec); err != nil { // prime: build + first run
		b.Fatal(err)
	}
	b.ResetTimer()
	tasks := 0
	start := time.Now()
	for i := 0; i < b.N; i++ {
		r, err := runner.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		tasks += r.Stats.TasksDone()
	}
	elapsed := time.Since(start)
	if tasks > 0 {
		b.ReportMetric(float64(elapsed.Nanoseconds())/float64(tasks), "ns/task")
	}
}

// BenchmarkScale sweeps E-Ant across machines {16,64,256,1024} × jobs
// {5,20,80}.
func BenchmarkScale(b *testing.B) {
	for _, factor := range []int{1, 4, 16, 64} {
		for _, jobs := range []int{5, 20, 80} {
			b.Run(fmt.Sprintf("machines=%d/jobs=%d", 16*factor, jobs), func(b *testing.B) {
				scaleRun(b, SchedulerEAnt, factor, jobs)
			})
		}
	}
}

// BenchmarkScaleBaselines sweeps the comparison schedulers over the same
// grid so E-Ant's per-task cost can be read against policies without
// pheromone state.
func BenchmarkScaleBaselines(b *testing.B) {
	for _, sched := range []Scheduler{SchedulerFair, SchedulerTarazu} {
		for _, factor := range []int{1, 4, 16, 64} {
			for _, jobs := range []int{5, 20, 80} {
				name := fmt.Sprintf("sched=%s/machines=%d/jobs=%d", sched, 16*factor, jobs)
				b.Run(name, func(b *testing.B) {
					scaleRun(b, sched, factor, jobs)
				})
			}
		}
	}
}

// BenchmarkRunManyWarm measures the sweep-level payoff of per-worker
// world reuse. Both sub-benchmarks push the same 8-spec scheduler ×
// workload grid through RunMany; "cold" gives every spec its own cluster
// clone, forcing each worker to rebuild its world per spec (the pre-Runner
// behaviour), while "warm" points every spec at one shared cluster so each
// worker constructs its world once and resets it between specs. The
// allocs/op gap between the two is the construction cost the warm path
// deletes from sweeps.
func BenchmarkRunManyWarm(b *testing.B) {
	const workers = 4
	jobGrid := [][]Job{MSDWorkload(5, 7), MSDWorkload(15, 7)}
	schedGrid := []Scheduler{SchedulerEAnt, SchedulerFair, SchedulerTarazu, SchedulerFIFO}
	buildSpecs := func(cl func() *Cluster) []RunSpec {
		var specs []RunSpec
		for _, jobs := range jobGrid {
			for _, s := range schedGrid {
				specs = append(specs, RunSpec{Cluster: cl(), Scheduler: s, Jobs: jobs, Seed: 7})
			}
		}
		return specs
	}
	run := func(b *testing.B, specs []RunSpec) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			results, err := RunMany(specs, workers)
			if err != nil {
				b.Fatal(err)
			}
			if len(results) != len(specs) {
				b.Fatal("short sweep")
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		base := PaperTestbed()
		run(b, buildSpecs(func() *Cluster { return base.Clone() }))
	})
	b.Run("warm", func(b *testing.B) {
		shared := PaperTestbed()
		run(b, buildSpecs(func() *Cluster { return shared }))
	})
}

// BenchmarkSimulatorThroughput measures raw simulator speed: completed
// tasks per wall-clock second on the MSD workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	jobs := MSDWorkload(40, 1)
	b.ResetTimer()
	tasks := 0
	start := time.Now()
	for i := 0; i < b.N; i++ {
		r, err := Run(RunSpec{
			Cluster:   PaperTestbed(),
			Scheduler: SchedulerFair,
			Jobs:      jobs,
			Seed:      1,
		})
		if err != nil {
			b.Fatal(err)
		}
		tasks += r.Stats.TasksDone()
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(tasks)/elapsed, "tasks/s")
	}
}
