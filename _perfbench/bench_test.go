package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"eant/internal/core"
	"eant/internal/experiments"
	"eant/internal/mapreduce"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := lookup(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the benchmark", w.Name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmokeEveryWorkload runs each workload briefly, untraced at its
// default seed and traced at its held-out seed, and checks that the
// output passes its own correctness gate, ends with the JSON result, and
// prints exactly the metrics BENCHMARK.json declares, each with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.name, seed: w.defaultSeed, seconds: 0.01, trace: traced, root: "..", setups: 1, minRuns: 1}
			want := endToEnd
			if traced {
				o.seed, want = w.heldOutSeed, perLayer
			}
			res, man, err := bench(w, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			var out bytes.Buffer
			if err := report(&out, res, man); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if !strings.Contains(lines[0], `"manifest"`) || !strings.Contains(lines[0], `"workload":"`+w.name+`"`) {
				t.Errorf("%s: first line is not the manifest: %s", w.name, lines[0])
			}
			var got result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s: last line is not the JSON result: %v", w.name, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace=%v seed %d: correct=%v attempted=%d failed=%d", w.name, traced, o.seed, got.Correct, got.Attempted, got.Failed)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.name, traced, len(got.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := got.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.name, traced, name, m, unit)
				}
				if !strings.Contains(out.String(), "# "+name+" ") {
					t.Errorf("%s trace=%v: metric %s has no human-readable line", w.name, traced, name)
				}
			}
		}
	}
}

// TestCorruptDigestCountsAsFailure shows the correctness gate can fail:
// once a reference digest is corrupted, every measured campaign, untraced
// or traced, counts as failed.
func TestCorruptDigestCountsAsFailure(t *testing.T) {
	for _, name := range []string{"testbed-msd87", "fig8-campaign"} {
		w, _ := lookup(name)
		c, _, err := w.prepare(w.heldOutSeed)
		if err != nil {
			t.Fatal(err)
		}
		tl := &tally{}
		if err := c.gate(options{root: ".."}, tl); err != nil {
			t.Fatal(err)
		}
		if tl.failed != 0 {
			t.Fatalf("%s: gate failed before corruption", name)
		}
		switch c := c.(type) {
		case *warmCampaign:
			c.want ^= 1
		case *fig8Campaign:
			c.want[len(c.want)-1] ^= 1
		}
		acc := &layers{}
		if err := c.prepareTrace(1, acc, tl); err != nil {
			t.Fatal(err)
		}
		before := *tl
		measure(0, 2, tl, c.run, 0, nil)
		measure(0, 2, tl, func() (int, bool, error) { return c.traced(acc) }, 0, nil)
		if tl.attempted-before.attempted != 4 || tl.failed-before.failed != 4 {
			t.Errorf("%s: after corruption %d of %d campaigns failed, want 4 of 4",
				name, tl.failed-before.failed, tl.attempted-before.attempted)
		}
	}
}

// TestTracerObservesSlotsOnlyWhenPolicyDoes checks that the decorator
// implements mapreduce.SlotObserver exactly when the wrapped policy does,
// since the driver changes what it calls on that interface's presence.
func TestTracerObservesSlotsOnlyWhenPolicyDoes(t *testing.T) {
	names := []experiments.SchedulerName{experiments.SchedEAnt, experiments.SchedFair, experiments.SchedTarazu,
		experiments.SchedFIFO, experiments.SchedLATE, experiments.SchedCap}
	for _, name := range names {
		s, err := experiments.NewScheduler(name, core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		_, wrapped := newTracer(s)
		_, policy := s.(mapreduce.SlotObserver)
		_, tracer := wrapped.(mapreduce.SlotObserver)
		if policy != tracer {
			t.Errorf("%s: policy observes slots %v, tracer %v", name, policy, tracer)
		}
		if wrapped.Name() != s.Name() {
			t.Errorf("%s: tracer name %q", name, wrapped.Name())
		}
	}
}

// TestFlagErrorsPrintNoResult checks that bad invocations exit non-zero
// without a result line.
func TestFlagErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "testbed-msd87", "--trace", "2"},
		{"--workload", "testbed-msd87", "--seed", "x"},
		{"--workload", "testbed-msd87", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
