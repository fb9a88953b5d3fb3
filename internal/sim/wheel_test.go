package sim

import (
	"testing"
)

// The timing wheel's eleven levels cover every Time. These tests drive
// its top levels with events many 2^42 ns spans (~73 virtual minutes
// each) ahead: cascades across those spans, events that share a low
// digit pattern spans apart, cancellations of long-parked events, and a
// clock jumped far ahead of the wheel base by RunUntil.

// TestEngineFarFutureOrdering mixes near events with events many wheel
// spans ahead and checks global firing order.
func TestEngineFarFutureOrdering(t *testing.T) {
	e := NewEngine(1)
	span := Duration(1) << 42
	var fired []int
	add := func(d Duration, id int) {
		e.After(d, func() { fired = append(fired, id) })
	}
	add(5*span, 4)          // far future, epoch +5
	add(Millisecond, 0)     // wheel
	add(span+60*Second, 2)  // epoch +1
	add(span+60*Second, 3)  // same instant as id 2: FIFO by seq
	add(2*Millisecond, 1)   // wheel
	add(5*span+Second, 5)   // epoch +5, after id 4
	add((5+64)*span, 6)     // same low digits as id 4, 64 spans later
	add((5+2*64)*span+1, 7) // double collision
	e.Run()
	want := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i, v := range want {
		if fired[i] != v {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("pending %d after Run, want 0", e.Pending())
	}
}

// TestEngineFarFutureCancel cancels events parked a span ahead — head,
// middle and tail of one bucket list — and checks the survivors still
// fire in order.
func TestEngineFarFutureCancel(t *testing.T) {
	e := NewEngine(1)
	span := Duration(1) << 42
	var fired []int
	var handles []Event
	for i := 0; i < 6; i++ {
		i := i
		handles = append(handles, e.After(span+Duration(i)*Second, func() { fired = append(fired, i) }))
	}
	for _, i := range []int{0, 3, 5} { // head, middle, tail
		if !handles[i].Cancel() {
			t.Fatalf("cancel of far event %d reported not pending", i)
		}
		if handles[i].Pending() {
			t.Fatalf("far event %d still pending after cancel", i)
		}
	}
	if e.Pending() != 3 {
		t.Fatalf("pending %d, want 3", e.Pending())
	}
	e.Run()
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 4 {
		t.Fatalf("fired %v, want [1 2 4]", fired)
	}
}

// TestEngineRunUntilAcrossEpochs jumps the clock several wheel spans
// ahead with an empty queue, then schedules near events: the wheel base
// is far behind the clock, so the inserts land in high levels and must
// still fire at the right times.
func TestEngineRunUntilAcrossEpochs(t *testing.T) {
	e := NewEngine(1)
	span := Duration(1) << 42
	e.RunUntil(Time(3*span + 60*Second))
	var fired []Time
	e.After(Millisecond, func() { fired = append(fired, e.Now()) })
	e.After(Microsecond, func() { fired = append(fired, e.Now()) })
	e.Run()
	want0 := Time(3*span + 60*Second + Microsecond)
	want1 := Time(3*span + 60*Second + Millisecond)
	if len(fired) != 2 || fired[0] != want0 || fired[1] != want1 {
		t.Fatalf("fired at %v, want [%v %v]", fired, want0, want1)
	}
}

// TestEngineReferenceModelFarDelays is the random schedule/cancel/step
// model check again, but with delays up to many 2^42 ns spans so the
// top levels and their cascades are all exercised.
func TestEngineReferenceModelFarDelays(t *testing.T) {
	type refEvent struct {
		at   Time
		seq  int
		live bool
	}
	span := Duration(1) << 42
	rng := NewRNG(67890)
	for trial := 0; trial < 10; trial++ {
		e := NewEngine(1)
		var model []*refEvent
		var fired []int
		var handles []Event
		seq := 0
		for op := 0; op < 400; op++ {
			switch rng.Intn(4) {
			case 0, 1: // schedule, sometimes many epochs out
				var d Duration
				switch rng.Intn(3) {
				case 0:
					d = Duration(rng.Intn(1000)) * Microsecond
				case 1:
					d = Duration(rng.Intn(1 << 20))
				default:
					d = Duration(rng.Intn(200))*span/3 + Duration(rng.Intn(1000))*Millisecond
				}
				id := seq
				seq++
				model = append(model, &refEvent{at: e.Now().Add(d), seq: id, live: true})
				handles = append(handles, e.After(d, func() { fired = append(fired, id) }))
			case 2: // cancel a random handle
				if len(handles) > 0 {
					i := rng.Intn(len(handles))
					if handles[i].Cancel() {
						model[i].live = false
					}
				}
			case 3: // step
				var best *refEvent
				for _, m := range model {
					if !m.live {
						continue
					}
					if best == nil || m.at < best.at || (m.at == best.at && m.seq < best.seq) {
						best = m
					}
				}
				stepped := e.Step()
				if (best != nil) != stepped {
					t.Fatalf("trial %d op %d: model fireable=%v engine stepped=%v", trial, op, best != nil, stepped)
				}
				if best != nil {
					best.live = false
					if len(fired) == 0 || fired[len(fired)-1] != best.seq {
						t.Fatalf("trial %d op %d: engine fired %v, model expected %d", trial, op, fired, best.seq)
					}
					if e.Now() != best.at {
						t.Fatalf("trial %d op %d: clock %v, model %v", trial, op, e.Now(), best.at)
					}
				}
			}
		}
	}
}

// TestEngineMillionPending holds a million pending events spread over the
// wheel's levels and drains them in order — the datacenter-scale
// shape the wheel exists for.
func TestEngineMillionPending(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-event drain; skipped in -short")
	}
	e := NewEngine(7)
	const n = 1_000_000
	rng := NewRNG(7)
	count := 0
	var last Time
	for i := 0; i < n; i++ {
		d := Duration(rng.Intn(int(3600 * Second)))
		e.After(d, func() {
			if e.Now() < last {
				t.Fatalf("out of order: %v after %v", e.Now(), last)
			}
			last = e.Now()
			count++
		})
	}
	if e.Pending() != n {
		t.Fatalf("pending %d, want %d", e.Pending(), n)
	}
	e.Run()
	if count != n {
		t.Fatalf("fired %d, want %d", count, n)
	}
}

// BenchmarkEventCancelFarFuture pins the cost of cancelling an event many
// 2^42 ns spans in the future: an O(1) bucket unlink, not a queue scan.
// Hot path: 0 allocs/op.
func BenchmarkEventCancelFarFuture(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	span := Duration(1) << 42
	// A standing population of far-future events so the cancel works
	// against loaded top-level buckets.
	for i := 0; i < 4096; i++ {
		e.After(span+Duration(i)*Second, fn)
	}
	e.After(2*span, fn).Cancel() // warm the free list
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(2*span, fn).Cancel()
	}
}

// BenchmarkWheelChurn1MPending measures the insert+expire hot path with a
// standing backlog of one million pending timers — timeout wheels at
// datacenter connection counts. Hot path: 0 allocs/op.
func BenchmarkWheelChurn1MPending(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	rng := NewRNG(9)
	for i := 0; i < 1_000_000; i++ {
		e.After(60*Second+Duration(rng.Intn(int(3600*Second))), fn)
	}
	e.After(Microsecond, fn)
	e.Step() // warm the free list
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Microsecond, fn)
		e.Step()
	}
}
