package fault

import (
	"reflect"
	"testing"
	"time"

	"eant/internal/sim"
)

func TestEventKindString(t *testing.T) {
	if Crash.String() != "crash" || Recover.String() != "recover" {
		t.Error("EventKind.String mismatch")
	}
	if EventKind(7).String() != "EventKind(7)" {
		t.Error("unknown kind string mismatch")
	}
}

func TestConfigEnabled(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want bool
	}{
		{"zero", Config{}, false},
		{"mtbf", Config{MachineMTBF: time.Minute}, true},
		{"taskFail", Config{TaskFailProb: 0.1}, true},
		{"scenario", Config{Scenario: []Event{{At: 1, Machine: 0, Kind: Crash}}}, true},
		// Secondary knobs alone never enable injection.
		{"mttrOnly", Config{MachineMTTR: time.Minute}, false},
		{"attemptsOnly", Config{MaxAttempts: 2}, false},
		{"blacklistOnly", Config{BlacklistThreshold: 3}, false},
	}
	for _, c := range cases {
		if got := c.cfg.Enabled(); got != c.want {
			t.Errorf("%s: Enabled() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"full", Config{
			MachineMTBF: time.Hour, MachineMTTR: time.Minute,
			TaskFailProb: 0.5, MaxAttempts: 4,
			BlacklistThreshold: 3, BlacklistCooldown: time.Minute,
			Scenario: []Event{{At: time.Second, Machine: 1, Kind: Recover}},
		}, true},
		{"negMTBF", Config{MachineMTBF: -time.Second}, false},
		{"negMTTR", Config{MachineMTTR: -time.Second}, false},
		{"probLow", Config{TaskFailProb: -0.1}, false},
		{"probHigh", Config{TaskFailProb: 1.1}, false},
		{"probOne", Config{TaskFailProb: 1}, true},
		{"negAttempts", Config{MaxAttempts: -1}, false},
		{"negThreshold", Config{BlacklistThreshold: -1}, false},
		{"eventNegTime", Config{Scenario: []Event{{At: -time.Second, Machine: 0, Kind: Crash}}}, false},
		{"eventNegMachine", Config{Scenario: []Event{{At: 0, Machine: -1, Kind: Crash}}}, false},
		{"eventBadKind", Config{Scenario: []Event{{At: 0, Machine: 0}}}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestSetDefaultsFillsSecondaryKnobs(t *testing.T) {
	cfg := Config{MachineMTBF: time.Hour, BlacklistThreshold: 2}
	cfg.SetDefaults()
	if cfg.MachineMTTR != 5*time.Minute {
		t.Errorf("MTTR default = %v, want 5m", cfg.MachineMTTR)
	}
	if cfg.MaxAttempts != 4 {
		t.Errorf("MaxAttempts default = %d, want 4", cfg.MaxAttempts)
	}
	if cfg.BlacklistCooldown != 10*time.Minute {
		t.Errorf("BlacklistCooldown default = %v, want 10m", cfg.BlacklistCooldown)
	}

	// No threshold → cooldown stays unset.
	cfg = Config{MachineMTBF: time.Hour}
	cfg.SetDefaults()
	if cfg.BlacklistCooldown != 0 {
		t.Errorf("cooldown defaulted without a threshold: %v", cfg.BlacklistCooldown)
	}

	// Explicit values survive.
	cfg = Config{MachineMTTR: time.Second, MaxAttempts: 9}
	cfg.SetDefaults()
	if cfg.MachineMTTR != time.Second || cfg.MaxAttempts != 9 {
		t.Errorf("SetDefaults clobbered explicit values: %+v", cfg)
	}
}

func TestNewInjectorRejectsBadInput(t *testing.T) {
	if _, err := NewInjector(Config{TaskFailProb: 2}, 1); err == nil {
		t.Error("invalid config accepted")
	}
	inj, err := NewInjector(Config{MachineMTBF: time.Hour}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if inj.MaxAttempts() != 4 {
		t.Errorf("MaxAttempts() = %d, want 4", inj.MaxAttempts())
	}
}

func TestDisabledInjectorConsumesNoRNG(t *testing.T) {
	// The no-op guarantee: with faults disabled, AttemptFails must not
	// advance the stream (enabling the fault fork must never perturb
	// runs that share the parent seed), and Start must schedule nothing.
	inj, err := NewInjector(Config{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine()
	fired := 0
	count := func(int) { fired++ }
	inj.Bind(engine, Hooks{Crash: count, Recover: count})
	inj.Start(8)
	for i := 0; i < 10; i++ {
		if inj.AttemptFails() {
			t.Fatal("disabled injector reported an attempt failure")
		}
	}
	got := inj.rng.Float64()
	want := sim.NewRNG(42).Float64()
	if got != want {
		t.Errorf("disabled injector consumed RNG state: %v != %v", got, want)
	}
	if err := engine.RunUntil(time.Hour); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Errorf("disabled injector fired %d events", fired)
	}
}

func TestStartPanicsOnNilHooksWhenEnabled(t *testing.T) {
	inj, err := NewInjector(Config{MachineMTBF: time.Minute}, 1)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("Bind with nil hooks", func() { inj.Bind(sim.NewEngine(), Hooks{}) })
	mustPanic("enabled Start without hooks", func() { inj.Start(4) })
}

// TestFaultChainZeroAlloc pins that the stochastic crash/recover chain is
// allocation-free once the engine's event pool is warm: each phase is a
// typed event carrying only the machine ID.
func TestFaultChainZeroAlloc(t *testing.T) {
	inj, err := NewInjector(Config{MachineMTBF: 10 * time.Minute, MachineMTTR: 2 * time.Minute}, 3)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine()
	crashes := 0
	inj.Bind(engine, Hooks{Crash: func(int) { crashes++ }, Recover: func(int) {}})
	inj.Start(16)
	// A long warm-up lets the calendar's bucket slices reach their
	// steady-state capacities, so only the chain itself is measured.
	if err := engine.RunUntil(30 * 24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	warm := crashes
	allocs := testing.AllocsPerRun(20, func() {
		if err := engine.RunUntil(engine.Now() + 4*time.Hour); err != nil {
			t.Fatal(err)
		}
	})
	if crashes == warm {
		t.Fatal("no crashes fired after warm-up; test premise broken")
	}
	if allocs != 0 {
		t.Fatalf("fault chain allocated %v per 4h of crash/recover cycles, want 0", allocs)
	}
}

// timeline runs the injector on a fresh engine and records every hook
// firing as (now, machine, kind) triples.
func timeline(t *testing.T, cfg Config, seed int64, machines int, horizon time.Duration) []Event {
	t.Helper()
	inj, err := NewInjector(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine()
	var events []Event
	inj.Bind(engine, Hooks{
		Crash:   func(id int) { events = append(events, Event{engine.Now(), id, Crash}) },
		Recover: func(id int) { events = append(events, Event{engine.Now(), id, Recover}) },
	})
	inj.Start(machines)
	if err := engine.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	return events
}

func TestStochasticTimelineIsDeterministic(t *testing.T) {
	cfg := Config{MachineMTBF: 10 * time.Minute, MachineMTTR: 2 * time.Minute}
	a := timeline(t, cfg, 7, 6, 4*time.Hour)
	b := timeline(t, cfg, 7, 6, 4*time.Hour)
	if len(a) == 0 {
		t.Fatal("4h at 10m MTBF produced no crashes")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged: %d vs %d events", len(a), len(b))
	}
	c := timeline(t, cfg, 8, 6, 4*time.Hour)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical timelines")
	}
	// Per machine the process must alternate crash, recover, crash, ...
	last := map[int]EventKind{}
	for _, ev := range a {
		if prev, seen := last[ev.Machine]; seen && prev == ev.Kind {
			t.Fatalf("machine %d fired %v twice in a row", ev.Machine, ev.Kind)
		}
		last[ev.Machine] = ev.Kind
	}
}

func TestScriptedEventsFireInOrderAndSkipOutOfRange(t *testing.T) {
	cfg := Config{Scenario: []Event{
		{At: 3 * time.Minute, Machine: 1, Kind: Recover},
		{At: time.Minute, Machine: 1, Kind: Crash},
		{At: 2 * time.Minute, Machine: 99, Kind: Crash}, // beyond the fleet
	}}
	got := timeline(t, cfg, 1, 4, time.Hour)
	want := []Event{
		{time.Minute, 1, Crash},
		{3 * time.Minute, 1, Recover},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scripted timeline = %v, want %v", got, want)
	}
}

func TestPhaseFloor(t *testing.T) {
	// Absurdly small means must still yield phases of at least minPhase, so
	// a machine can never flap within one event instant.
	inj, err := NewInjector(Config{MachineMTBF: time.Nanosecond, MachineMTTR: time.Nanosecond}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if d := inj.phase(inj.cfg.MachineMTBF); d < minPhase {
			t.Fatalf("phase %v below floor %v", d, minPhase)
		}
	}
}

func TestFailurePointRange(t *testing.T) {
	inj, err := NewInjector(Config{TaskFailProb: 0.5}, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		p := inj.FailurePoint()
		if p < 0.05 || p >= 0.95 {
			t.Fatalf("failure point %v outside [0.05, 0.95)", p)
		}
	}
}

func TestAttemptFailsMatchesProbability(t *testing.T) {
	inj, err := NewInjector(Config{TaskFailProb: 0.3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	n, fails := 20000, 0
	for i := 0; i < n; i++ {
		if inj.AttemptFails() {
			fails++
		}
	}
	if rate := float64(fails) / float64(n); rate < 0.27 || rate > 0.33 {
		t.Errorf("empirical failure rate %.3f far from configured 0.3", rate)
	}
}
