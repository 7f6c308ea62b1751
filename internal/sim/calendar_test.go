package sim

import (
	"fmt"
	"testing"
	"time"
)

// This file checks the calendar queue against a reference implementation:
// the plain (at, seq) binary min-heap the engine used before the calendar
// rewrite. The property under test is that the calendar changes only where
// events wait, never when or in what order they fire — so on any event
// program (same-instant ties, cancellations, horizon cuts, events
// scheduled from inside handlers, far-future overflow) the fired sequence,
// clock, and counters must be identical to the heap's.

// oracleEngine is the pre-calendar engine, reduced to its semantics: one
// global (at, seq) min-heap, lazy cancellation collected at pop, horizon
// clamp, and a live count that excludes cancelled events.
type oracleEngine struct {
	now    time.Duration
	heap   []*oracleEvent
	seq    uint64
	fired  uint64
	live   int
	events map[int]*oracleEvent // program event ID → scheduled occurrence
}

type oracleEvent struct {
	at        time.Duration
	seq       uint64
	id        int
	cancelled bool
}

func newOracle() *oracleEngine {
	return &oracleEngine{events: map[int]*oracleEvent{}}
}

func (o *oracleEngine) schedule(at time.Duration, id int) {
	o.seq++
	ev := &oracleEvent{at: at, seq: o.seq, id: id}
	o.events[id] = ev
	o.live++
	// Push with the same ordering as the engine's heaps.
	o.heap = append(o.heap, ev)
	i := len(o.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !o.less(i, p) {
			break
		}
		o.heap[i], o.heap[p] = o.heap[p], o.heap[i]
		i = p
	}
}

func (o *oracleEngine) less(a, b int) bool {
	if o.heap[a].at != o.heap[b].at {
		return o.heap[a].at < o.heap[b].at
	}
	return o.heap[a].seq < o.heap[b].seq
}

func (o *oracleEngine) cancel(id int) {
	if ev, ok := o.events[id]; ok && !ev.cancelled {
		ev.cancelled = true
		o.live--
	}
}

func (o *oracleEngine) pop() *oracleEvent {
	top := o.heap[0]
	n := len(o.heap) - 1
	o.heap[0] = o.heap[n]
	o.heap = o.heap[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && o.less(r, l) {
			c = r
		}
		if !o.less(c, i) {
			break
		}
		o.heap[i], o.heap[c] = o.heap[c], o.heap[i]
		i = c
	}
	return top
}

// runUntil mirrors Engine.RunUntil: fire in (at, seq) order up to horizon
// (negative = drain), collecting cancelled events at the head — including
// immediately before a horizon cut — and calls fire for each live event.
func (o *oracleEngine) runUntil(horizon time.Duration, fire func(id int)) {
	for len(o.heap) > 0 {
		top := o.heap[0]
		if top.cancelled {
			o.pop()
			delete(o.events, top.id)
			continue
		}
		if horizon >= 0 && top.at > horizon {
			o.now = horizon
			return
		}
		o.pop()
		delete(o.events, top.id)
		o.live--
		o.now = top.at
		o.fired++
		fire(top.id)
	}
}

// program holds the per-engine replay state: the next fresh event ID and
// the real engine's handles (the oracle cancels by ID directly).
type program struct {
	nextID  int
	handles map[int]EventHandle
	ids     []int // every ID ever scheduled, in schedule order
}

// fireAction is what one event does when it fires, drawn from an RNG that
// both engines consume in fired order: schedule children at relative
// delays and/or cancel an earlier event. Delays are drawn from a mix that
// exercises every calendar band — same-instant ties, same-bucket,
// in-window ring buckets, and far overflow.
type fireAction struct {
	childDelays []time.Duration
	cancelIdx   int // index into program.ids, or -1
}

func drawAction(rng *RNG, width time.Duration) fireAction {
	var a fireAction
	// Subcritical branching (mean < 1 child per firing) so every program
	// terminates: 0 children half the time, else 1 or 2.
	n := 0
	if rng.Intn(2) == 0 {
		n = 1 + rng.Intn(2)
	}
	for ; n > 0; n-- {
		var d time.Duration
		switch rng.Intn(5) {
		case 0:
			d = 0 // same-instant tie: must fire in seq order
		case 1:
			d = time.Duration(rng.Intn(int(width))) // same/adjacent bucket
		case 2:
			d = time.Duration(rng.Intn(int(width) * (numBuckets - 2)))
		case 3:
			// Beyond the ring window: overflow band.
			d = time.Duration(int(width)*numBuckets + rng.Intn(int(width)*numBuckets*4))
		case 4:
			d = time.Duration(rng.Intn(int(width) * 3))
		}
		a.childDelays = append(a.childDelays, d)
	}
	a.cancelIdx = -1
	if rng.Intn(3) == 0 {
		a.cancelIdx = rng.Intn(1 << 20) // bound applied modulo len(ids) at use
	}
	return a
}

// TestCalendarMatchesHeapOracle replays randomized event programs on the
// calendar engine and the heap oracle and requires identical fired
// sequences, clocks, and counters — across horizon cuts and a final drain.
func TestCalendarMatchesHeapOracle(t *testing.T) {
	widths := []time.Duration{3 * time.Second, time.Second, 7 * time.Millisecond}
	for seed := int64(1); seed <= 8; seed++ {
		for _, width := range widths {
			t.Run(fmt.Sprintf("seed=%d/width=%v", seed, width), func(t *testing.T) {
				checkProgram(t, seed, width)
			})
		}
	}
}

func checkProgram(t *testing.T, seed int64, width time.Duration) {
	t.Helper()

	eng := NewEngine()
	eng.SetBucketWidth(width)
	engRng := NewRNG(seed)
	engProg := &program{handles: map[int]EventHandle{}}
	var engLog []string

	orc := newOracle()
	orcRng := NewRNG(seed)
	orcProg := &program{handles: map[int]EventHandle{}}
	var orcLog []string

	// fire handles one event on the real engine: log it, then replay the
	// RNG-drawn action (children + cancellation).
	var fireKind EventKind
	engFire := func(id int) {
		engLog = append(engLog, fmt.Sprintf("%d@%v", id, eng.Now()))
		act := drawAction(engRng, width)
		for _, d := range act.childDelays {
			cid := engProg.nextID
			engProg.nextID++
			engProg.ids = append(engProg.ids, cid)
			engProg.handles[cid] = eng.ScheduleKindAfter(d, fireKind, cid, nil)
		}
		if act.cancelIdx >= 0 && len(engProg.ids) > 0 {
			victim := engProg.ids[act.cancelIdx%len(engProg.ids)]
			engProg.handles[victim].Cancel()
		}
	}
	fireKind = eng.RegisterKind(func(id int, _ any) { engFire(id) })
	orcFire := func(id int) {
		orcLog = append(orcLog, fmt.Sprintf("%d@%v", id, orc.now))
		act := drawAction(orcRng, width)
		for _, d := range act.childDelays {
			cid := orcProg.nextID
			orcProg.nextID++
			orcProg.ids = append(orcProg.ids, cid)
			orc.schedule(orc.now+d, cid)
		}
		if act.cancelIdx >= 0 && len(orcProg.ids) > 0 {
			orc.cancel(orcProg.ids[act.cancelIdx%len(orcProg.ids)])
		}
	}

	// Seed both engines with the same initial batch, with deliberate ties.
	seedRng := NewRNG(seed + 1000)
	horizonSpan := width * numBuckets * 6
	for i := 0; i < 40; i++ {
		at := time.Duration(seedRng.Intn(int(horizonSpan)))
		if i%5 == 0 && i > 0 {
			at = time.Duration(seedRng.Intn(6)) * width // clustered ties
		}
		id := engProg.nextID
		engProg.nextID++
		engProg.ids = append(engProg.ids, id)
		engProg.handles[id] = eng.ScheduleKind(at, fireKind, id, nil)

		oid := orcProg.nextID
		orcProg.nextID++
		orcProg.ids = append(orcProg.ids, oid)
		orc.schedule(at, oid)
	}
	// Cancel a few before running at all.
	for i := 0; i < 5; i++ {
		victim := seedRng.Intn(len(engProg.ids))
		engProg.handles[engProg.ids[victim]].Cancel()
		orc.cancel(orcProg.ids[victim])
	}

	compare := func(stage string) {
		t.Helper()
		if eng.Now() != orc.now {
			t.Fatalf("%s: Now = %v, oracle %v", stage, eng.Now(), orc.now)
		}
		if eng.Fired() != orc.fired {
			t.Fatalf("%s: Fired = %d, oracle %d", stage, eng.Fired(), orc.fired)
		}
		if eng.Pending() != orc.live {
			t.Fatalf("%s: Pending = %d, oracle %d", stage, eng.Pending(), orc.live)
		}
		if len(engLog) != len(orcLog) {
			t.Fatalf("%s: fired %d events, oracle %d", stage, len(engLog), len(orcLog))
		}
		for i := range engLog {
			if engLog[i] != orcLog[i] {
				t.Fatalf("%s: firing %d = %s, oracle %s", stage, i, engLog[i], orcLog[i])
			}
		}
	}

	// Horizon-cut runs at two intermediate points, then a full drain.
	for _, h := range []time.Duration{horizonSpan / 7, horizonSpan / 2} {
		if err := eng.RunUntil(h); err != nil {
			t.Fatalf("RunUntil(%v): %v", h, err)
		}
		orc.runUntil(h, orcFire)
		compare(fmt.Sprintf("horizon %v", h))
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	orc.runUntil(-1, orcFire)
	compare("drain")
	if eng.Pending() != 0 {
		t.Fatalf("drained Pending = %d, want 0", eng.Pending())
	}
}
