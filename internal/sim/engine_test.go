package sim

import (
	"testing"
	"time"
)

// logKind registers a kind that appends its int payload to *log.
func logKind(e *Engine, log *[]int) EventKind {
	return e.RegisterKind(func(i int, _ any) { *log = append(*log, i) })
}

// countKind registers a kind that increments *n.
func countKind(e *Engine, n *int) EventKind {
	return e.RegisterKind(func(int, any) { *n++ })
}

// nopKind registers a kind that does nothing.
func nopKind(e *Engine) EventKind {
	return e.RegisterKind(func(int, any) {})
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	k := logKind(e, &got)
	e.ScheduleKind(3*time.Second, k, 3, nil)
	e.ScheduleKind(1*time.Second, k, 1, nil)
	e.ScheduleKind(2*time.Second, k, 2, nil)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now() = %v, want 3s", e.Now())
	}
}

func TestEngineTiesFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	k := logKind(e, &got)
	for i := 0; i < 10; i++ {
		e.ScheduleKind(time.Second, k, i, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestEngineScheduleDuringRun(t *testing.T) {
	e := NewEngine()
	var fired int
	inner := countKind(e, &fired)
	outer := e.RegisterKind(func(int, any) { e.ScheduleKindAfter(time.Second, inner, 0, nil) })
	e.ScheduleKind(time.Second, outer, 0, nil)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1 {
		t.Errorf("nested event fired %d times, want 1", fired)
	}
	if e.Now() != 2*time.Second {
		t.Errorf("Now() = %v, want 2s", e.Now())
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	nop := nopKind(e)
	k := e.RegisterKind(func(int, any) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.ScheduleKind(time.Second, nop, 0, nil)
	})
	e.ScheduleKind(5*time.Second, k, 0, nil)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestEngineNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil handler did not panic")
		}
	}()
	NewEngine().RegisterKind(nil)
}

func TestEngineUnregisteredKindPanics(t *testing.T) {
	for _, kind := range []EventKind{0, 2} {
		e := NewEngine()
		nopKind(e)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ScheduleKind with unregistered kind %d did not panic", kind)
				}
			}()
			e.ScheduleKind(0, kind, 0, nil)
		}()
	}
}

func TestEngineRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	var fired []int
	k := logKind(e, &fired)
	for _, d := range []int{1, 2, 3, 4, 5} {
		e.ScheduleKind(time.Duration(d)*time.Second, k, d, nil)
	}
	if err := e.RunUntil(3 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events before horizon, want 3", len(fired))
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now() = %v, want horizon 3s", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", e.Pending())
	}
	// Resuming runs the remainder.
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 5 {
		t.Errorf("fired %d events total, want 5", len(fired))
	}
}

func TestEngineRunUntilLeavesClockAtLastEventWhenDrained(t *testing.T) {
	e := NewEngine()
	e.ScheduleKind(4*time.Second, nopKind(e), 0, nil)
	if err := e.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if e.Now() != 4*time.Second {
		t.Errorf("Now() = %v, want 4s (makespan, not horizon)", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	var fired int
	k := e.RegisterKind(func(stop int, _ any) {
		fired++
		if stop == 1 {
			e.Stop()
		}
	})
	e.ScheduleKind(time.Second, k, 1, nil)
	e.ScheduleKind(2*time.Second, k, 0, nil)
	if err := e.Run(); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
}

func TestEngineCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := 0
	k := countKind(e, &fired)
	h := e.ScheduleKind(time.Second, k, 0, nil)
	e.ScheduleKind(2*time.Second, k, 0, nil)
	h.Cancel()
	if !h.Cancelled() {
		t.Error("handle does not report cancelled")
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (cancelled event ran?)", fired)
	}
}

func TestEngineCancelDuringRun(t *testing.T) {
	e := NewEngine()
	fired := 0
	var h EventHandle
	cancel := e.RegisterKind(func(int, any) { h.Cancel() })
	e.ScheduleKind(time.Second, cancel, 0, nil)
	h = e.ScheduleKind(2*time.Second, countKind(e, &fired), 0, nil)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 0 {
		t.Error("event fired despite in-run cancellation")
	}
}

func TestEngineCancelIdempotentAndZeroValue(t *testing.T) {
	var zero EventHandle
	zero.Cancel() // must not panic
	if zero.Cancelled() {
		t.Error("zero handle reports cancelled")
	}
	e := NewEngine()
	h := e.ScheduleKind(time.Second, nopKind(e), 0, nil)
	h.Cancel()
	h.Cancel()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestEngineFiredCount(t *testing.T) {
	e := NewEngine()
	k := nopKind(e)
	for i := 0; i < 7; i++ {
		e.ScheduleKind(time.Duration(i)*time.Second, k, 0, nil)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Fired() != 7 {
		t.Errorf("Fired() = %d, want 7", e.Fired())
	}
}
