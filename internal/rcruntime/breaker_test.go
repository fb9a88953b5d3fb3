package rcruntime

import (
	"net/http"
	"testing"
	"time"

	"rescon/internal/rc"
)

// breakerTree is a capped parent with two tenants, so one tenant can
// keep the shared budget exhausted while the other's breaker probes.
func breakerTree(t *testing.T) (root, t1, t2 *rc.Container, binder Binder) {
	t.Helper()
	root = rc.MustNew(nil, rc.FixedShare, "root", rc.Attributes{})
	capped := rc.MustNew(root, rc.FixedShare, "capped", rc.Attributes{Limit: 0.5})
	t1 = rc.MustNew(capped, rc.TimeShare, "t1", rc.Attributes{Priority: 1})
	t2 = rc.MustNew(capped, rc.TimeShare, "t2", rc.Attributes{Priority: 1})
	return root, t1, t2, HeaderBinder("X-Tenant", map[string]*rc.Container{"t1": t1, "t2": t2}, nil)
}

// TestBreakerOpensAndRecloses walks the state machine: consecutive
// sheds open the breaker (503 without touching the enforcer), the open
// period elapses into a half-open probe, and an admitted probe closes
// it again.
func TestBreakerOpensAndRecloses(t *testing.T) {
	fc := &VirtualClock{}
	root, t1, _, binder := breakerTree(t)
	sink := &recordingSink{}
	rt, h := govern(t, fc, Config{Root: root, Window: 10 * time.Millisecond, MaxDelay: NoDelay},
		WithBinder(binder), WithTelemetrySink(sink),
		WithBreakers(BreakerConfig{OpenAfter: 2})) // OpenFor defaults to 2 windows

	// Exhaust the 5 ms budget, then shed twice: the second shed trips it.
	get(h, "t1", "5ms")
	for i := 0; i < 2; i++ {
		if w := get(h, "t1", "1ms"); w.Code != http.StatusTooManyRequests {
			t.Fatalf("shed %d: status %d, want 429", i, w.Code)
		}
	}
	if !rt.BreakerOpen(t1) || rt.BreakerOpens(t1) != 1 || rt.OpenBreakers() != 1 {
		t.Fatalf("breaker not open after threshold: open=%t opens=%d count=%d",
			rt.BreakerOpen(t1), rt.BreakerOpens(t1), rt.OpenBreakers())
	}

	// While open: 503 from the breaker, before admission control.
	w := get(h, "t1", "1ms")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("open breaker status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("breaker 503 missing Retry-After")
	}
	if ev := sink.last(t); ev.Cause != CauseBreaker {
		t.Fatalf("breaker event %+v", ev)
	}
	if s := rt.Stats(); s.BreakerShed != 1 || s.Shed != 2 {
		t.Fatalf("stats %+v", s)
	}

	// Past the open period the next request is the half-open probe; the
	// window has rolled, so it is admitted and the breaker closes.
	fc.Sleep(25 * time.Millisecond)
	if w := get(h, "t1", "1ms"); w.Code != http.StatusOK {
		t.Fatalf("probe status %d, want 200", w.Code)
	}
	if rt.BreakerOpen(t1) || rt.OpenBreakers() != 0 {
		t.Fatal("breaker still open after admitted probe")
	}
}

// TestBreakerProbeShedReopens: a half-open probe that is itself shed
// reopens the breaker with a doubled open duration — the exponential
// backoff that keeps a hammering tenant from oscillating the breaker.
func TestBreakerProbeShedReopens(t *testing.T) {
	fc := &VirtualClock{}
	root, t1, _, binder := breakerTree(t)
	rt, h := govern(t, fc, Config{Root: root, Window: 10 * time.Millisecond, MaxDelay: NoDelay},
		WithBinder(binder),
		WithBreakers(BreakerConfig{OpenAfter: 1})) // open for 2 windows: 20 ms

	// Trip t1's breaker with one shed.
	get(h, "t1", "5ms")
	get(h, "t1", "1ms")
	if !rt.BreakerOpen(t1) {
		t.Fatal("breaker did not open")
	}

	// Let the open period pass, but have the sibling re-exhaust the
	// shared subtree budget first — the probe must be shed.
	fc.Sleep(20 * time.Millisecond)
	get(h, "t2", "5ms")
	if w := get(h, "t1", "1ms"); w.Code != http.StatusTooManyRequests {
		t.Fatalf("probe status %d, want 429 (shed probe)", w.Code)
	}
	if rt.BreakerOpens(t1) != 2 {
		t.Fatalf("opens = %d, want 2 (reopen after failed probe)", rt.BreakerOpens(t1))
	}

	// The reopen doubled the open duration: 20 ms in, still rejecting
	// even though the window itself has rolled.
	fc.Sleep(21 * time.Millisecond)
	if w := get(h, "t1", "1ms"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d inside doubled open period, want 503", w.Code)
	}
	// After the full 40 ms the budget is fresh; the probe closes it.
	fc.Sleep(20 * time.Millisecond)
	if w := get(h, "t1", "1ms"); w.Code != http.StatusOK {
		t.Fatalf("probe after doubled backoff: status %d, want 200", w.Code)
	}
	if rt.BreakerOpen(t1) {
		t.Fatal("breaker still open after recovery")
	}
}

// TestBreakerDisabledByDefault: without WithBreakers the accessors are
// inert and repeated sheds never turn into 503s.
// TestBreakerForgetsDestroyedTenant: a destroyed tenant's open breaker
// sees no further request, so it would never close; OpenBreakers drops
// it instead of counting it forever.
func TestBreakerForgetsDestroyedTenant(t *testing.T) {
	fc := &VirtualClock{}
	root, t1, _, binder := breakerTree(t)
	rt, h := govern(t, fc, Config{Root: root, Window: 10 * time.Millisecond, MaxDelay: NoDelay},
		WithBinder(binder),
		WithBreakers(BreakerConfig{OpenAfter: 2}))
	get(h, "t1", "5ms")
	get(h, "t1", "1ms")
	get(h, "t1", "1ms")
	if rt.OpenBreakers() != 1 {
		t.Fatalf("open breakers = %d after tripping t1, want 1", rt.OpenBreakers())
	}
	rt.Enforcer().Sync(func() { _ = t1.Release() })
	fc.Sleep(time.Second)
	if n := rt.OpenBreakers(); n != 0 {
		t.Fatalf("open breakers = %d after t1 was destroyed, want 0", n)
	}
	if n := len(rt.breakers.m); n != 0 {
		t.Fatalf("%d breakers kept after t1 was destroyed, want none", n)
	}
}

func TestBreakerDisabledByDefault(t *testing.T) {
	fc := &VirtualClock{}
	root, leaf, binder := tenantTree(t)
	rt, h := govern(t, fc, Config{Root: root, Window: 10 * time.Millisecond, MaxDelay: NoDelay},
		WithBinder(binder))
	get(h, "capped", "5ms")
	for i := 0; i < 10; i++ {
		if w := get(h, "capped", "1ms"); w.Code != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429 every time without breakers", w.Code)
		}
	}
	if rt.BreakerOpen(leaf) || rt.BreakerOpens(leaf) != 0 || rt.OpenBreakers() != 0 {
		t.Fatal("breaker accessors not inert when disabled")
	}
}

func TestBreakerConfigDefaults(t *testing.T) {
	s := newBreakerSet(BreakerConfig{}, 10*time.Millisecond)
	if s.openAfter != DefaultBreakerOpenAfter {
		t.Fatalf("openAfter = %d", s.openAfter)
	}
	if s.openFor != BreakerOpenFactor*10*time.Millisecond {
		t.Fatalf("openFor = %v", s.openFor)
	}
	if s.maxOpenFor != BreakerMaxFactor*s.openFor {
		t.Fatalf("maxOpenFor = %v", s.maxOpenFor)
	}
	if s = newBreakerSet(BreakerConfig{OpenAfter: 3}, time.Second); s.openAfter != 3 {
		t.Fatalf("explicit openAfter = %d, want 3", s.openAfter)
	}
}
