package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(5 * Millisecond)
	if t1 != Time(5_000_000) {
		t.Fatalf("Add: got %d, want 5000000", t1)
	}
	if d := t1.Sub(t0); d != 5*Millisecond {
		t.Fatalf("Sub: got %v, want 5ms", d)
	}
	if !t0.Before(t1) || t1.Before(t0) {
		t.Fatal("Before ordering wrong")
	}
	if !t1.After(t0) || t0.After(t1) {
		t.Fatal("After ordering wrong")
	}
}

func TestDurationConversions(t *testing.T) {
	d := 1500 * Microsecond
	if got := d.Milliseconds(); got != 1.5 {
		t.Errorf("Milliseconds: got %v, want 1.5", got)
	}
	if got := d.Microseconds(); got != 1500 {
		t.Errorf("Microseconds: got %v, want 1500", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds: got %v, want 2", got)
	}
	if d.Std() != 1500*time.Microsecond {
		t.Errorf("Std conversion mismatch")
	}
	if FromStd(3*time.Second) != 3*Second {
		t.Errorf("FromStd conversion mismatch")
	}
	if DurationOf(0.25) != 250*Millisecond {
		t.Errorf("DurationOf: got %v", DurationOf(0.25))
	}
}

func TestRateInterval(t *testing.T) {
	if got := Rate(1000).Interval(); got != Millisecond {
		t.Errorf("Interval: got %v, want 1ms", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Interval of zero rate should panic")
		}
	}()
	Rate(0).Interval()
}

func TestMinMax(t *testing.T) {
	if Min(1, 2) != 1 || Min(2, 1) != 1 {
		t.Error("Min wrong")
	}
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Error("Max wrong")
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.After(30*Millisecond, func() { order = append(order, 3) })
	e.After(10*Millisecond, func() { order = append(order, 1) })
	e.After(20*Millisecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != Time(30*Millisecond) {
		t.Fatalf("clock at %v, want 30ms", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(Millisecond), func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(Millisecond, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("expected panic scheduling in the past")
		}
	}()
	e.At(0, func() {})
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative delay")
		}
	}()
	e.After(-1, func() {})
}

func TestEventCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.After(Millisecond, func() { fired = true })
	if !ev.Pending() {
		t.Fatal("event should be pending")
	}
	if !ev.Cancel() {
		t.Fatal("Cancel should report true for a pending event")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelFiredEvent(t *testing.T) {
	e := NewEngine(1)
	ev := e.After(Millisecond, func() {})
	e.Run()
	if ev.Pending() {
		t.Fatal("fired event still pending")
	}
	if ev.Cancel() {
		t.Fatal("cancelling a fired event should report false")
	}
}

func TestCancelMiddleOfQueue(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.After(1*Millisecond, func() { order = append(order, 1) })
	mid := e.After(2*Millisecond, func() { order = append(order, 2) })
	e.After(3*Millisecond, func() { order = append(order, 3) })
	mid.Cancel()
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("got %v, want [1 3]", order)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Duration
	for _, d := range []Duration{Millisecond, 2 * Millisecond, 5 * Millisecond} {
		d := d
		e.After(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(Time(3 * Millisecond))
	if len(fired) != 2 {
		t.Fatalf("fired %v, want first two", fired)
	}
	if e.Now() != Time(3*Millisecond) {
		t.Fatalf("clock at %v, want exactly deadline", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d, want 1", e.Pending())
	}
	// Resume past the rest.
	e.RunUntil(Time(10 * Millisecond))
	if len(fired) != 3 {
		t.Fatalf("after resume fired %v, want all three", fired)
	}
	if e.Now() != Time(10*Millisecond) {
		t.Fatalf("clock at %v, want 10ms", e.Now())
	}
}

// TestRunUntilDoesNotRunAheadOfClock leaves an event pending past a
// RunUntil deadline, then schedules one between the deadline and it: the
// deadline-bounded pop must not advance the wheel base past the clock,
// or the later event would be filed first and fire out of order.
func TestRunUntilDoesNotRunAheadOfClock(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	record := func() { fired = append(fired, e.Now()) }
	e.At(100, record)
	e.RunUntil(50)
	e.At(55, record)
	e.Run()
	if len(fired) != 2 || fired[0] != 55 || fired[1] != 100 {
		t.Fatalf("fired at %v, want [55ns 100ns]", fired)
	}
}

func TestRunUntilAdvancesClockOnEmptyQueue(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(Time(Second))
	if e.Now() != Time(Second) {
		t.Fatalf("clock at %v, want 1s", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.After(Millisecond, func() {
		count++
		e.Stop()
	})
	e.After(2*Millisecond, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count %d, want 1 (stopped after first)", count)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d, want 1", e.Pending())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.After(Millisecond, func() {
		times = append(times, e.Now())
		e.After(Millisecond, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != Time(Millisecond) || times[1] != Time(2*Millisecond) {
		t.Fatalf("chained events: %v", times)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	count := 0
	tk := e.Every(Millisecond, func() { count++ })
	e.RunUntil(Time(5*Millisecond + Microsecond))
	if count != 5 {
		t.Fatalf("ticks %d, want 5", count)
	}
	tk.Stop()
	e.RunUntil(Time(10 * Millisecond))
	if count != 5 {
		t.Fatalf("ticker fired after Stop: %d", count)
	}
}

func TestTickerStopFromWithinCallback(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var tk *Ticker
	tk = e.Every(Millisecond, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(Time(Second))
	if count != 3 {
		t.Fatalf("ticks %d, want 3", count)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero period")
		}
	}()
	e.Every(0, func() {})
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		e.After(Duration(i+1)*Millisecond, func() {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired %d, want 7", e.Fired())
	}
}

// Property: with N events at random times, Run executes all of them in
// non-decreasing time order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(42)
		var fired []Time
		for _, d := range delays {
			e.After(Duration(d)*Microsecond, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Model check: the engine's heap-based queue behaves exactly like a naive
// reference implementation under random schedule/cancel/step sequences.
func TestEngineAgainstReferenceModel(t *testing.T) {
	type refEvent struct {
		at   Time
		seq  int
		live bool
	}
	rng := NewRNG(12345)
	for trial := 0; trial < 20; trial++ {
		e := NewEngine(1)
		var model []*refEvent
		var fired []int
		var handles []Event
		seq := 0
		for op := 0; op < 300; op++ {
			switch rng.Intn(4) {
			case 0, 1: // schedule
				d := Duration(rng.Intn(1000)) * Microsecond
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
				// Reference: earliest live not-yet-fired event, FIFO seq.
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
				}
			}
		}
	}
}
