// Package fault injects machine crashes and task-attempt failures into a
// simulated cluster run, deterministically from the run's seeded RNG tree.
//
// Two failure sources are modeled, matching how Hadoop 1.x clusters fail in
// practice:
//
//   - Whole-machine crashes: each machine alternates between an up phase
//     (exponential with mean MachineMTBF) and a down phase (exponential with
//     mean MachineMTTR). A crash kills every attempt running on the machine
//     and loses any completed map output stored there; recovery returns the
//     machine to the slot pool. Scripted Scenario events can pin crashes and
//     recoveries to exact instants for reproducible test cases.
//   - Task-attempt failures: each attempt independently fails with
//     probability TaskFailProb, dying partway through its service time.
//     The driver retries a failed task up to MaxAttempts times before
//     failing the whole job (Hadoop's mapred.map.max.attempts), and
//     blacklists machines that accumulate too many failures.
//
// The Injector draws every random quantity from one dedicated RNG stream
// forked off the simulation seed, so enabling faults never perturbs the
// noise, workload or scheduling streams, and two runs with the same seed
// produce bit-identical failure timelines.
package fault

import (
	"fmt"
	"sort"
	"time"

	"eant/internal/sim"
)

// EventKind distinguishes scripted crash from recovery events.
type EventKind int

// Scripted event kinds.
const (
	Crash EventKind = iota + 1
	Recover
)

// String returns "crash" or "recover".
func (k EventKind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Recover:
		return "recover"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one scripted fault: machine Machine crashes or recovers at
// virtual time At. Scripted events compose with the stochastic MTBF/MTTR
// process; crashing an already-dead machine (or recovering a live one) is
// a no-op at the driver.
type Event struct {
	At      time.Duration
	Machine int
	Kind    EventKind
}

// Config parameterizes fault injection. The zero value disables every
// failure source, and a disabled configuration is a strict no-op: the
// driver schedules no events and draws nothing from the fault stream.
type Config struct {
	// MachineMTBF is the mean up-time between a machine's crashes
	// (exponentially distributed per machine). Zero disables stochastic
	// crashes.
	MachineMTBF time.Duration
	// MachineMTTR is the mean repair time of a crashed machine
	// (exponentially distributed). Defaults to 5 minutes.
	MachineMTTR time.Duration
	// TaskFailProb is the probability that one task attempt fails partway
	// through execution (JVM crash, disk error, bad record). Zero disables
	// attempt failures.
	TaskFailProb float64
	// MaxAttempts is how many times one logical task may fail before its
	// job is failed, Hadoop's mapred.map.max.attempts. Defaults to 4.
	MaxAttempts int
	// BlacklistThreshold is how many attempt failures a machine
	// accumulates before the JobTracker stops assigning to it for
	// BlacklistCooldown. Zero disables blacklisting.
	BlacklistThreshold int
	// BlacklistCooldown is how long a blacklisted machine sits out.
	// Defaults to 10 minutes.
	BlacklistCooldown time.Duration
	// Scenario lists scripted crash/recover events, applied in addition
	// to (or instead of) the stochastic process.
	Scenario []Event
}

// SetDefaults fills unset secondary knobs of an enabled configuration.
func (c *Config) SetDefaults() {
	if c.MachineMTTR <= 0 {
		c.MachineMTTR = 5 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BlacklistThreshold > 0 && c.BlacklistCooldown <= 0 {
		c.BlacklistCooldown = 10 * time.Minute
	}
}

// Enabled reports whether any failure source is active.
func (c Config) Enabled() bool {
	return c.MachineMTBF > 0 || c.TaskFailProb > 0 || len(c.Scenario) > 0
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.MachineMTBF < 0:
		return fmt.Errorf("fault: negative MTBF %v", c.MachineMTBF)
	case c.MachineMTTR < 0:
		return fmt.Errorf("fault: negative MTTR %v", c.MachineMTTR)
	case c.TaskFailProb < 0 || c.TaskFailProb > 1:
		return fmt.Errorf("fault: task failure probability %v outside [0,1]", c.TaskFailProb)
	case c.MaxAttempts < 0:
		return fmt.Errorf("fault: negative max attempts %d", c.MaxAttempts)
	case c.BlacklistThreshold < 0:
		return fmt.Errorf("fault: negative blacklist threshold %d", c.BlacklistThreshold)
	}
	for _, ev := range c.Scenario {
		if ev.At < 0 {
			return fmt.Errorf("fault: scenario event at negative time %v", ev.At)
		}
		if ev.Machine < 0 {
			return fmt.Errorf("fault: scenario event for negative machine %d", ev.Machine)
		}
		if ev.Kind != Crash && ev.Kind != Recover {
			return fmt.Errorf("fault: scenario event with unknown kind %d", int(ev.Kind))
		}
	}
	return nil
}

// Hooks are the driver callbacks the injector fires. Crash and Recover
// receive the machine ID; both must tolerate redundant calls (crashing a
// dead machine, recovering a live one).
type Hooks struct {
	Crash   func(machineID int)
	Recover func(machineID int)
}

// Injector schedules fault events on a sim engine and answers per-attempt
// failure draws. All randomness comes from the injector's own RNG stream.
// The zero Injector is ready for use after Bind and its first Reset.
type Injector struct {
	cfg Config
	rng sim.RNG

	// Bind wires the injector to one engine for its owner's lifetime:
	// the hooks and the four typed kinds (stochastic crash, stochastic
	// recover, scripted crash, scripted recover) it schedules.
	engine          *sim.Engine   //eant:reset-keep bound once by Bind; the owning driver never swaps engines
	hooks           Hooks         //eant:reset-keep bound once by Bind; the owning driver never swaps hooks
	evCrash         sim.EventKind //eant:reset-keep kind registration is per-engine-lifetime; Engine.Reset keeps the table
	evRecover       sim.EventKind //eant:reset-keep kind registration is per-engine-lifetime; Engine.Reset keeps the table
	evScriptCrash   sim.EventKind //eant:reset-keep kind registration is per-engine-lifetime; Engine.Reset keeps the table
	evScriptRecover sim.EventKind //eant:reset-keep kind registration is per-engine-lifetime; Engine.Reset keeps the table
}

// NewInjector returns an injector for the given configuration drawing
// from a stream seeded with seed; cfg must validate.
func NewInjector(cfg Config, seed int64) (*Injector, error) {
	in := new(Injector)
	if err := in.Reset(cfg, seed); err != nil {
		return nil, err
	}
	return in, nil
}

// Reset configures the injector and rewinds its RNG stream to the given
// seed. Defaults are applied for enabled configurations. It is the
// injector's only initializer: NewInjector is Reset on a zero Injector.
// The Bind wiring survives.
func (in *Injector) Reset(cfg Config, seed int64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Enabled() {
		cfg.SetDefaults()
	}
	in.cfg = cfg
	in.rng.Reseed(seed)
	return nil
}

// Enabled reports whether the injector will do anything at all.
func (in *Injector) Enabled() bool { return in.cfg.Enabled() }

// minPhase floors MTBF/MTTR draws so a machine can never flap within a
// single event instant (zero-length phases would loop the event queue at
// one timestamp).
const minPhase = time.Second

// Bind registers the injector's event kinds on engine and wires them to
// hooks. Call it once per engine, whether or not faults are enabled: a
// later Reset may enable them, and because Engine.Reset keeps the kind
// table, registering per run would grow it on every warm run.
func (in *Injector) Bind(engine *sim.Engine, hooks Hooks) {
	if hooks.Crash == nil || hooks.Recover == nil {
		panic("fault: Bind with nil hooks")
	}
	in.engine, in.hooks = engine, hooks
	in.evCrash = engine.RegisterKind(in.onCrash)
	in.evRecover = engine.RegisterKind(in.onRecover)
	in.evScriptCrash = engine.RegisterKind(func(id int, _ any) { hooks.Crash(id) })
	in.evScriptRecover = engine.RegisterKind(func(id int, _ any) { hooks.Recover(id) })
}

// Start schedules the crash/recover process for machines [0, machines) on
// the bound engine. Stochastic crashes draw first-crash times in
// machine-ID order, so the event sequence is a pure function of the fault
// stream. Scripted events are scheduled afterwards, sorted by (time,
// position), and override nothing: they simply fire alongside the
// stochastic process. Start is a no-op when faults are disabled.
func (in *Injector) Start(machines int) {
	if !in.cfg.Enabled() {
		return
	}
	if in.engine == nil {
		panic("fault: Start before Bind")
	}
	if in.cfg.MachineMTBF > 0 {
		for id := 0; id < machines; id++ {
			in.armCrash(id)
		}
	}
	scripted := append([]Event(nil), in.cfg.Scenario...)
	sort.SliceStable(scripted, func(i, j int) bool { return scripted[i].At < scripted[j].At })
	for _, ev := range scripted {
		if ev.Machine >= machines {
			continue
		}
		kind := in.evScriptRecover
		if ev.Kind == Crash {
			kind = in.evScriptCrash
		}
		in.engine.ScheduleKind(ev.At, kind, ev.Machine, nil)
	}
}

// armCrash draws machine id's next up phase and schedules its stochastic
// crash. The chain crash → recover → crash draws lazily, one phase per
// event, so runs of any length stay O(live events).
func (in *Injector) armCrash(id int) {
	in.engine.ScheduleKindAfter(in.phase(in.cfg.MachineMTBF), in.evCrash, id, nil)
}

// onCrash fires machine id's stochastic crash, then draws its down phase
// and arms the recovery.
func (in *Injector) onCrash(id int, _ any) {
	in.hooks.Crash(id)
	in.engine.ScheduleKindAfter(in.phase(in.cfg.MachineMTTR), in.evRecover, id, nil)
}

// onRecover returns machine id to service and re-arms its next crash.
func (in *Injector) onRecover(id int, _ any) {
	in.hooks.Recover(id)
	in.armCrash(id)
}

// phase draws one exponential up/down span with the given mean, floored.
func (in *Injector) phase(mean time.Duration) time.Duration {
	d := time.Duration(in.rng.Exp(mean.Seconds()) * float64(time.Second))
	if d < minPhase {
		d = minPhase
	}
	return d
}

// AttemptFails draws whether one task attempt will fail mid-execution.
func (in *Injector) AttemptFails() bool {
	return in.cfg.TaskFailProb > 0 && in.rng.Bernoulli(in.cfg.TaskFailProb)
}

// FailurePoint draws the fraction of an attempt's service time at which a
// doomed attempt dies, uniform in [0.05, 0.95]: a failing attempt always
// burns some real work (and energy) before dying, and always dies before
// it would have finished.
func (in *Injector) FailurePoint() float64 {
	return in.rng.Uniform(0.05, 0.95)
}

// MaxAttempts returns the per-task retry limit (after defaulting).
func (in *Injector) MaxAttempts() int {
	if in.cfg.MaxAttempts <= 0 {
		return 4
	}
	return in.cfg.MaxAttempts
}
