package sim

import (
	"testing"
	"time"
)

// TestEngineCancelAfterFireIsInert pins the free-list reuse rule: once an
// event has fired, its handle must be a no-op — Cancel must not mark the
// (possibly recycled) struct cancelled, and Cancelled must report false.
func TestEngineCancelAfterFireIsInert(t *testing.T) {
	e := NewEngine()
	fired := 0
	k := countKind(e, &fired)
	h := e.ScheduleKind(time.Second, k, 0, nil)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	h.Cancel() // must not poison the recycled struct
	if h.Cancelled() {
		t.Error("handle of a fired event reports Cancelled")
	}
	// The struct h pointed at is now on the free list; the next schedule
	// reuses it. The stale cancel above must not have touched it.
	fired = 0
	e.ScheduleKind(2*time.Second, k, 0, nil)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1 {
		t.Errorf("recycled event fired %d times, want 1 (stale Cancel leaked through)", fired)
	}
}

// TestEngineCancelAfterReuseDoesNotResurrect is the adversarial version:
// a handle whose event struct has been recycled for a NEW event must not
// be able to cancel that new event, and must not report its state.
func TestEngineCancelAfterReuseDoesNotResurrect(t *testing.T) {
	e := NewEngine()
	fired := 0
	k := countKind(e, &fired)
	old := e.ScheduleKind(time.Second, k, 0, nil)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	fired = 0
	fresh := e.ScheduleKind(2*time.Second, k, 0, nil)
	if old.ev != fresh.ev {
		t.Fatalf("free list did not recycle the struct; test premise broken")
	}
	old.Cancel() // stale handle, same struct, older generation
	if fresh.Cancelled() {
		t.Error("stale Cancel leaked onto the recycled event")
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1 {
		t.Errorf("recycled event fired %d times, want 1", fired)
	}

	// And the converse: cancelling the fresh handle works, and the stale
	// handle still reports nothing.
	fired = 0
	again := e.ScheduleKind(3*time.Second, k, 0, nil)
	again.Cancel()
	if !again.Cancelled() {
		t.Error("live handle does not report Cancelled")
	}
	if old.Cancelled() || fresh.Cancelled() {
		t.Error("stale handles report Cancelled for a generation they do not own")
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 0 {
		t.Errorf("cancelled recycled event fired %d times, want 0", fired)
	}
}

// TestEngineCancelledPopRecycles verifies that cancelled events are also
// returned to the free list when the run loop collects them.
func TestEngineCancelledPopRecycles(t *testing.T) {
	e := NewEngine()
	bad := e.RegisterKind(func(int, any) { t.Error("cancelled event fired") })
	h := e.ScheduleKind(time.Second, bad, 0, nil)
	h.Cancel()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	reused := e.ScheduleKind(2*time.Second, nopKind(e), 0, nil)
	if reused.ev != h.ev {
		t.Error("cancelled event struct was not recycled")
	}
	if reused.Cancelled() {
		t.Error("recycled struct inherited the cancelled flag")
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestEngineFreeListReusesAcrossManyEvents drives enough schedule/fire
// cycles that a steady-state run allocates no new event structs: the free
// list must cap the pool at the peak number of simultaneously pending
// events.
func TestEngineFreeListReusesAcrossManyEvents(t *testing.T) {
	e := NewEngine()
	n := 0
	var tick EventKind
	tick = e.RegisterKind(func(int, any) {
		if n++; n < 1000 {
			e.ScheduleKindAfter(time.Second, tick, 0, nil)
		}
	})
	e.ScheduleKind(0, tick, 0, nil)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 1000 {
		t.Fatalf("ticked %d times, want 1000", n)
	}
	// One ticker event pending at a time: pool size must stay tiny.
	if len(e.free) > 2 {
		t.Errorf("free list holds %d structs after a 1-pending-event run, want <= 2", len(e.free))
	}
}
