package sim

import (
	"testing"
	"time"
)

// BenchmarkEngine measures the event queue itself, isolated from any
// simulation model: schedule/fire throughput of a typed kind, the
// periodic-heavy mix that dominates driver runs, a uniform-random mix that
// defeats the calendar's bucket locality, and a cancel-heavy mix that
// stresses lazy collection. ReportAllocs on every cell: every path must
// stay allocation-free once the event pool is warm.
func BenchmarkEngine(b *testing.B) {
	const width = 3 * time.Second

	b.Run("schedule-fire/typed", func(b *testing.B) {
		e := NewEngine()
		e.SetBucketWidth(width)
		n := 0
		kind := e.RegisterKind(func(int, any) { n++ })
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.ScheduleKind(e.Now()+time.Duration(i%64)*time.Second, kind, i, nil)
			if e.Pending() >= 1024 {
				_ = e.Run()
			}
		}
		_ = e.Run()
		if n != b.N {
			b.Fatalf("fired %d, want %d", n, b.N)
		}
	})

	// 1024 concurrent periodic chains on one heartbeat period — the shape
	// of a driver heartbeat/completion mix, and the calendar's best case:
	// every reschedule lands in a near ring bucket.
	b.Run("periodic-heavy", func(b *testing.B) {
		e := NewEngine()
		e.SetBucketWidth(width)
		remaining := b.N
		var kind EventKind
		kind = e.RegisterKind(func(i int, _ any) {
			if remaining--; remaining > 0 {
				e.ScheduleKindAfter(width, kind, i, nil)
			} else {
				e.Stop()
			}
		})
		chains := 1024
		if chains > b.N {
			chains = b.N
		}
		for i := 0; i < chains; i++ {
			e.ScheduleKind(time.Duration(i)*time.Millisecond, kind, i, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		_ = e.Run()
		if remaining > 0 {
			b.Fatalf("fired %d, want %d", b.N-remaining, b.N)
		}
	})

	// Uniform-random arrival times across a wide horizon: events scatter
	// over ring and overflow bands with no bucket locality to exploit.
	b.Run("uniform-random", func(b *testing.B) {
		e := NewEngine()
		e.SetBucketWidth(width)
		rng := NewRNG(42)
		span := int(width) * numBuckets * 8
		n := 0
		kind := e.RegisterKind(func(int, any) { n++ })
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.ScheduleKind(e.Now()+time.Duration(rng.Intn(span)), kind, i, nil)
			if e.Pending() >= 4096 {
				_ = e.Run()
			}
		}
		_ = e.Run()
		if n != b.N {
			b.Fatalf("fired %d, want %d", n, b.N)
		}
	})

	// Cancel-heavy: half the scheduled events are cancelled before they
	// fire, exercising lazy collection and handle bookkeeping.
	b.Run("cancel-heavy", func(b *testing.B) {
		e := NewEngine()
		e.SetBucketWidth(width)
		n := 0
		kind := e.RegisterKind(func(int, any) { n++ })
		handles := make([]EventHandle, 0, 512)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := e.ScheduleKind(e.Now()+time.Duration(i%96)*time.Second, kind, i, nil)
			if i%2 == 0 {
				handles = append(handles, h)
			}
			if len(handles) == cap(handles) || e.Pending() >= 1024 {
				for _, h := range handles {
					h.Cancel()
				}
				handles = handles[:0]
				_ = e.Run()
			}
		}
		for _, h := range handles {
			h.Cancel()
		}
		_ = e.Run()
		if n > b.N {
			b.Fatalf("fired %d, scheduled %d", n, b.N)
		}
	})
}

// TestTypedPeriodicZeroAlloc pins the tentpole's allocation contract: once
// the event pool is warm, scheduling and firing a typed periodic event —
// the driver's heartbeat/control/completion shape — allocates nothing.
func TestTypedPeriodicZeroAlloc(t *testing.T) {
	e := NewEngine()
	e.SetBucketWidth(3 * time.Second)
	var kind EventKind
	stop := time.Duration(0)
	kind = e.RegisterKind(func(i int, _ any) {
		if e.Now() < stop {
			e.ScheduleKindAfter(3*time.Second, kind, i, nil)
		}
	})
	// Warm the pool and the bucket slices.
	stop = 5 * time.Minute
	e.ScheduleKind(0, kind, 0, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(100, func() {
		stop = e.Now() + 5*time.Minute
		e.ScheduleKind(e.Now(), kind, 0, nil)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("typed periodic schedule/fire allocated %v per run, want 0", allocs)
	}
}
