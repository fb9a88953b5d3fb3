package rcruntime

import (
	"net/http"
	"testing"
	"time"
)

// TestRetryAfterSeconds pins the header arithmetic: whole seconds,
// rounded up, never telling the client to retry before the budget can
// have restored.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		wait time.Duration
		want int64
	}{
		{-time.Second, 0},
		{0, 0},
		{time.Nanosecond, 1},
		{time.Millisecond, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{time.Second + time.Nanosecond, 2},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 2},
		{2*time.Second + 500*time.Millisecond, 3},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.wait); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", c.wait, got, c.want)
		}
	}
}

// TestShedCarriesRetryAfter: a 429 announces when the window restores
// the budget — derived from WindowRemaining, rounded up to whole
// seconds.
func TestShedCarriesRetryAfter(t *testing.T) {
	fc := &VirtualClock{}
	root, _, binder := tenantTree(t)
	_, h := govern(t, fc, Config{Root: root, Window: 10 * time.Millisecond, MaxDelay: NoDelay},
		WithBinder(binder))

	get(h, "capped", "5ms") // exhaust the 50% budget
	w := get(h, "capped", "1ms")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	// 5 ms remain in the window: rounded up to one whole second.
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
}

// TestDrainShedsAndReportsClean: with nothing in flight Drain returns
// immediately and clean; afterwards every request is shed with 503 +
// Connection: close and counted as DrainShed.
func TestDrainShedsAndReportsClean(t *testing.T) {
	fc := &VirtualClock{}
	root, _, binder := tenantTree(t)
	sink := &recordingSink{}
	rt, h := govern(t, fc, Config{Root: root, Window: 10 * time.Millisecond},
		WithBinder(binder), WithTelemetrySink(sink))

	if rt.Draining() {
		t.Fatal("draining before Drain")
	}
	rep := rt.Drain(100 * time.Millisecond)
	if !rep.Clean || rep.LeakedRequests != 0 || rep.Waited != 0 {
		t.Fatalf("idle drain not clean: %+v", rep)
	}
	if !rt.Draining() {
		t.Fatal("Draining() false after Drain")
	}

	w := get(h, "capped", "1ms")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if got := w.Header().Get("Connection"); got != "close" {
		t.Fatalf("Connection = %q, want close", got)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("drain shed missing Retry-After")
	}
	if ev := sink.last(t); ev.Cause != CauseDrain || !ev.Shed {
		t.Fatalf("drain shed event %+v", ev)
	}
	if s := rt.Stats(); s.DrainShed != 1 || s.Served != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestDrainReportsLeakedRequest: a handler still running when the grace
// expires is reported as leaked (and Shutdown surfaces it as an error);
// the drain never preempts it, and the late finish is still charged.
func TestDrainReportsLeakedRequest(t *testing.T) {
	fc := &VirtualClock{}
	root, leaf, binder := tenantTree(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	rt, err := NewRuntime(Config{Root: root, Window: 10 * time.Millisecond},
		WithClock(fc), WithBinder(binder))
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		fc.Sleep(3 * time.Millisecond) // the stuck handler's eventual cost
	}))

	done := make(chan struct{})
	go func() {
		defer close(done)
		get(h, "capped", "")
	}()
	<-entered

	// The fake clock makes the poll loop instant: the grace "elapses"
	// without the blocked handler ever finishing.
	rep, err := rt.Shutdown(50 * time.Millisecond)
	if err == nil {
		t.Fatal("Shutdown with a stuck handler returned nil error")
	}
	if rep.Clean || rep.LeakedRequests != 1 {
		t.Fatalf("leak report %+v", rep)
	}
	if rep.Waited < 50*time.Millisecond {
		t.Fatalf("waited %v, want >= grace", rep.Waited)
	}

	close(release)
	<-done
	if s := rt.Stats(); s.InflightRequests != 0 || s.Served != 1 {
		t.Fatalf("after late finish: %+v", s)
	}
	if leaf.Usage().CPU() == 0 {
		t.Fatal("late-finishing handler's work was never charged")
	}
}

// TestMiddlewarePanicRecovery: a panicking handler yields a 500, counts
// in Panics (and Served), and its partial wall-clock is still charged
// to the bound container.
func TestMiddlewarePanicRecovery(t *testing.T) {
	fc := &VirtualClock{}
	root, leaf, binder := tenantTree(t)
	sink := &recordingSink{}
	rt, err := NewRuntime(Config{Root: root, Window: 100 * time.Millisecond},
		WithClock(fc), WithBinder(binder), WithTelemetrySink(sink))
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fc.Sleep(7 * time.Millisecond) // partial work before the blow-up
		panic("boom")
	}))

	w := get(h, "capped", "")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if s := rt.Stats(); s.Panics != 1 || s.Served != 1 || s.InflightRequests != 0 {
		t.Fatalf("stats %+v", s)
	}
	if got := time.Duration(leaf.Usage().CPU()); got != 7*time.Millisecond {
		t.Fatalf("charged %v, want 7ms of partial work", got)
	}
	ev := sink.last(t)
	if ev.Cause != CausePanic || ev.Code != http.StatusInternalServerError || ev.Wall != 7*time.Millisecond {
		t.Fatalf("panic event %+v", ev)
	}
}

// TestEnforcerSync runs a closure under the enforcer lock and observes
// its effects.
func TestEnforcerSync(t *testing.T) {
	fc := &VirtualClock{}
	e := New(fc, 10*time.Millisecond)
	ran := false
	e.Sync(func() { ran = true })
	if !ran {
		t.Fatal("Sync did not run the closure")
	}
}
