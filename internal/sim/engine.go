package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// EventFunc is the body of a scheduled event. It runs at its scheduled
// virtual time with the engine's clock already advanced.
type EventFunc func()

// event is the engine-owned representation of a scheduled event. Fired
// and cancelled events are recycled through the engine's free list, so
// steady-state scheduling performs no heap allocation; the generation
// counter keeps recycled storage from resurrecting stale handles.
//
// Pending events live on intrusive doubly-linked bucket lists inside the
// engine's timing wheel, so insert, expire and cancel never move other
// events and never allocate.
type event struct {
	at     Time
	seq    uint64 // tie-breaker: FIFO among events at the same instant
	fn     EventFunc
	bkt    int32  // wheel bucket index; -1 once removed
	gen    uint64 // bumped on fire/cancel; handles with an older gen are dead
	engine *Engine
	next   *event
	prev   *event
}

// Event is a handle to a scheduled event, usable for cancellation. It is
// a small value, not a pointer: the engine recycles event storage, and
// the generation captured in the handle distinguishes the event it was
// issued for from any later reuse. The zero Event behaves like a handle
// to an event that has already fired.
type Event struct {
	e   *event
	gen uint64
	at  Time
}

// At returns the virtual time the event is scheduled for.
func (h Event) At() Time { return h.at }

// Cancel removes the event from the queue. Cancelling an event that has
// already fired or been cancelled is a no-op. Cancel reports whether the
// event was actually pending. Cancellation is O(1) regardless of how far
// in the future the event sits: the handle leads straight to its bucket
// list node, with no queue scan or heap sift.
func (h Event) Cancel() bool {
	ev := h.e
	if ev == nil || ev.gen != h.gen || ev.bkt < 0 {
		return false
	}
	e := ev.engine
	e.unlink(ev)
	e.npending--
	e.release(ev)
	return true
}

// Pending reports whether the event is still scheduled to fire.
func (h Event) Pending() bool {
	return h.e != nil && h.e.gen == h.gen && h.e.bkt >= 0
}

// The pending-event store is a hierarchical timing wheel: wheelLevels
// levels of wheelSlots buckets, where a level-l slot spans 2^(wheelBits*l)
// nanoseconds. An event is filed at the level of the highest 6-bit digit
// in which its timestamp differs from the wheel's base time; level-0
// buckets therefore hold events of a single exact timestamp, in FIFO
// (= sequence) order. Eleven levels cover all 63 bits of a Time, so
// every pending event, however far ahead, has a bucket. The wheel's base
// only advances inside popMin, and only to the start of a bucket whose
// window opens at or before the pop's deadline, so base <= now at rest
// and a new insert can never land before base. Insert and expire are
// O(1) amortized — each event cascades down at most wheelLevels times
// over its lifetime.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64 slots per level
	wheelMask   = wheelSlots - 1
	wheelLevels = (63 + wheelBits - 1) / wheelBits // 11: every Time
)

// bucket is one intrusive doubly-linked event list.
type bucket struct {
	head *event
	tail *event
}

// append adds ev at the tail (FIFO order).
func (b *bucket) append(ev *event) {
	ev.prev = b.tail
	ev.next = nil
	if b.tail != nil {
		b.tail.next = ev
	} else {
		b.head = ev
	}
	b.tail = ev
}

// remove unlinks ev from the list.
func (b *bucket) remove(ev *event) {
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		b.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		b.tail = ev.prev
	}
	ev.next, ev.prev = nil, nil
}

// Engine is a discrete-event simulator. It is not safe for concurrent use;
// simulations are single-goroutine by design, which is what makes them
// deterministic. (The experiment harness runs many engines concurrently —
// one per goroutine — which is safe precisely because engines share no
// state.)
type Engine struct {
	now     Time
	seq     uint64
	rng     *RNG
	seed    int64
	stopped bool
	fired   uint64
	// free is the event recycling list: fired and cancelled events return
	// here and are handed out again by alloc. It grows to the maximum
	// number of concurrently pending events and no further.
	free []*event

	base     Time                // wheel base; invariant: base <= now at rest
	occ      [wheelLevels]uint64 // per-level slot-occupancy bitmaps
	buckets  [wheelLevels * wheelSlots]bucket
	npending int
}

// NewEngine returns an engine with the clock at zero and a deterministic
// RNG seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: NewRNG(seed), seed: seed}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the seed the engine's RNG was created with, so exporters
// can stamp output with the run's identity.
func (e *Engine) Seed() int64 { return e.seed }

// Rand returns the engine's deterministic random number generator.
func (e *Engine) Rand() *RNG { return e.rng }

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return e.npending }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// alloc takes an event from the free list, or allocates a fresh one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{engine: e, bkt: -1}
}

// release recycles a fired or cancelled event. The generation bump kills
// every outstanding handle to it before the storage is reused.
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.bkt = -1
	e.free = append(e.free, ev)
}

// enqueue files ev into the wheel bucket its timestamp selects under the
// current base. It does not touch npending: callers moving events
// between buckets reuse it.
func (e *Engine) enqueue(ev *event) {
	t := uint64(ev.at)
	level := 0
	if diff := t ^ uint64(e.base); diff != 0 {
		level = (bits.Len64(diff) - 1) / wheelBits
	}
	slot := int(t>>(uint(level)*wheelBits)) & wheelMask
	idx := level*wheelSlots + slot
	e.buckets[idx].append(ev)
	ev.bkt = int32(idx)
	e.occ[level] |= 1 << uint(slot)
}

// unlink removes ev from its bucket list, maintaining the occupancy
// bitmap. It does not touch npending.
func (e *Engine) unlink(ev *event) {
	idx := int(ev.bkt)
	b := &e.buckets[idx]
	b.remove(ev)
	if b.head == nil {
		e.occ[idx>>wheelBits] &^= 1 << uint(idx&wheelMask)
	}
	ev.bkt = -1
}

// popMin removes and returns the earliest pending event by (at, seq), or
// nil when nothing is pending or the earliest event is after deadline.
//
// The lowest occupied slot of the lowest non-empty level holds the
// minimum: every event at a lower level precedes every event at a higher
// one (its first differing digit from base is less significant), and
// within a level lower slots precede higher ones. A level-0 bucket holds
// one timestamp in FIFO order, so its head is the minimum. A
// higher-level bucket is cascaded — base advances to the bucket's window
// start and its events refile one or more levels down, preserving list
// order so same-instant events stay in sequence order. No event in the
// bucket precedes its window start, so a window opening after deadline
// ends the search without moving base past the clock RunUntil leaves at
// deadline.
func (e *Engine) popMin(deadline Time) *event {
	for {
		level := 0
		for level < wheelLevels && e.occ[level] == 0 {
			level++
		}
		if level == wheelLevels {
			return nil
		}
		slot := bits.TrailingZeros64(e.occ[level])
		idx := level*wheelSlots + slot
		b := &e.buckets[idx]
		if level == 0 {
			ev := b.head
			if ev.at > deadline {
				return nil
			}
			// Removed in place, not through unlink: the bucket and slot
			// are at hand, and on this path, the engine's hottest, the
			// recomputation cost SimEngineEventChurn about 10%.
			b.remove(ev)
			if b.head == nil {
				e.occ[0] &^= 1 << uint(slot)
			}
			ev.bkt = -1
			e.npending--
			return ev
		}
		// The window start keeps base's digits above the level (they
		// match every event here), takes the slot as the level's digit
		// and zeroes the lower digits.
		shift := uint(level) * wheelBits
		start := Time(uint64(e.base)&^(uint64(1)<<(shift+wheelBits)-1) | uint64(slot)<<shift)
		if start > deadline {
			return nil
		}
		e.base = start
		head := b.head
		b.head, b.tail = nil, nil
		e.occ[level] &^= 1 << uint(slot)
		for ev := head; ev != nil; {
			next := ev.next
			ev.next, ev.prev = nil, nil
			e.enqueue(ev)
			ev = next
		}
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn EventFunc) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.enqueue(ev)
	e.npending++
	return Event{e: ev, gen: ev.gen, at: t}
}

// After schedules fn to run d after the current time. Negative delays panic.
func (e *Engine) After(d Duration, fn EventFunc) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now.Add(d), fn)
}

// Stop makes Run and RunUntil return after the currently executing event
// completes. The queue is left intact, so the simulation can be resumed.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool { return e.step(math.MaxInt64) }

// step executes the earliest pending event if it is due at or before
// deadline, advancing the clock to its timestamp, and reports whether it
// did.
func (e *Engine) step(deadline Time) bool {
	ev := e.popMin(deadline)
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.fired++
	fn := ev.fn
	// Recycle before running: fn may schedule new events, and letting it
	// reuse this storage immediately keeps the free list tight.
	e.release(ev)
	fn()
	return true
}

// RunUntil executes events in timestamp order until the queue is empty, the
// engine is stopped, or the next event would be after deadline. The clock
// finishes at min(deadline, time of last executed event); if the queue
// drains early the clock is advanced to the deadline so that rate and
// utilization calculations see the full interval.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped && e.step(deadline) {
	}
	if e.now < deadline && !e.stopped {
		e.now = deadline
	}
}

// Run executes events until the queue is empty or the engine is stopped.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// Every schedules fn to run periodically with the given period, starting
// one period from now, until the returned Ticker is stopped.
func (e *Engine) Every(period Duration, fn EventFunc) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	// One closure for the ticker's whole lifetime: each firing re-arms
	// with the same func value, so a long-lived ticker allocates nothing
	// per tick.
	t.fire = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.ev = t.engine.After(t.period, t.fire)
		}
	}
	t.ev = e.After(period, t.fire)
	return t
}

// Ticker repeatedly fires an event with a fixed period.
type Ticker struct {
	engine  *Engine
	period  Duration
	fn      EventFunc
	fire    EventFunc
	ev      Event
	stopped bool
}

// Stop cancels all future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}
