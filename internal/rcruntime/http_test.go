package rcruntime

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rescon/internal/rc"
)

// recordingSink collects RequestEvents under a lock.
type recordingSink struct {
	mu     sync.Mutex
	events []RequestEvent
}

func (s *recordingSink) RecordRequest(ev RequestEvent) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

func (s *recordingSink) last(t *testing.T) RequestEvent {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.events) == 0 {
		t.Fatal("no telemetry events recorded")
	}
	return s.events[len(s.events)-1]
}

// govern builds a governed handler: requests carry their synthetic cost
// in X-Cost (a duration) which the handler burns by advancing the fake
// clock — so all accounting is exact and deterministic.
func govern(t *testing.T, fc *VirtualClock, cfg Config, opts ...Option) (*Runtime, http.Handler) {
	t.Helper()
	rt, err := NewRuntime(cfg, append([]Option{WithClock(fc)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := r.Header.Get("X-Cost"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				t.Errorf("bad X-Cost %q: %v", v, err)
			}
			fc.Sleep(d) // advance the virtual clock: the work's cost
		}
		w.WriteHeader(http.StatusOK)
	}))
	return rt, h
}

func get(h http.Handler, tenant, cost string) *httptest.ResponseRecorder {
	r := httptest.NewRequest("GET", "/", nil)
	if tenant != "" {
		r.Header.Set("X-Tenant", tenant)
	}
	if cost != "" {
		r.Header.Set("X-Cost", cost)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func tenantTree(t *testing.T) (root, leaf *rc.Container, binder Binder) {
	t.Helper()
	root, leaf = testTree(t, 0.5)
	return root, leaf, HeaderBinder("X-Tenant", map[string]*rc.Container{"capped": leaf}, nil)
}

// TestMiddlewareShedsWith429: with MaxDelay == NoDelay an over-budget
// tenant is refused immediately with 429 + Retry-After while the clock
// stands still, and the window roll restores its budget.
func TestMiddlewareShedsWith429(t *testing.T) {
	fc := &VirtualClock{}
	root, leaf, binder := tenantTree(t)
	sink := &recordingSink{}
	rt, h := govern(t, fc, Config{Root: root, Window: 10 * time.Millisecond, MaxDelay: NoDelay},
		WithBinder(binder), WithTelemetrySink(sink))

	// Budget: Limit 0.5 × 10ms window = 5ms.
	if w := get(h, "capped", "5ms"); w.Code != http.StatusOK {
		t.Fatalf("in-budget request got %d", w.Code)
	}
	if got := time.Duration(leaf.Usage().CPU()); got != 5*time.Millisecond {
		t.Fatalf("charged %v, want 5ms", got)
	}
	before := fc.Now()
	w := get(h, "capped", "1ms")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget request got %d, want 429", w.Code)
	}
	if !fc.Now().Equal(before) {
		t.Fatal("shed request consumed virtual time")
	}
	retry, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", w.Header().Get("Retry-After"))
	}
	ev := sink.last(t)
	if !ev.Shed || ev.Code != http.StatusTooManyRequests || ev.Container != "leaf" || ev.Wall != 0 {
		t.Fatalf("shed event = %+v", ev)
	}
	// Other tenants are unaffected: the root is unlimited.
	if w := get(h, "", "1ms"); w.Code != http.StatusOK {
		t.Fatalf("unbound tenant got %d during capped tenant's exhaustion", w.Code)
	}
	// The roll restores the budget.
	fc.Sleep(11 * time.Millisecond)
	if w := get(h, "capped", "1ms"); w.Code != http.StatusOK {
		t.Fatalf("post-roll request got %d", w.Code)
	}
	st := rt.Stats()
	if st.Served != 3 || st.Shed != 1 {
		t.Fatalf("stats = %+v, want 3 served / 1 shed", st)
	}
}

// TestMiddlewareDelaysUntilRoll: with the default MaxDelay (one window)
// an over-budget request is held and admitted when the window rolls,
// counted as delayed, not shed.
func TestMiddlewareDelaysUntilRoll(t *testing.T) {
	fc := &VirtualClock{}
	root, _, binder := tenantTree(t)
	sink := &recordingSink{}
	rt, h := govern(t, fc, Config{Root: root, Window: 10 * time.Millisecond},
		WithBinder(binder), WithTelemetrySink(sink))

	get(h, "capped", "5ms")
	before := fc.Now()
	if w := get(h, "capped", "1ms"); w.Code != http.StatusOK {
		t.Fatalf("delayed request got %d, want 200 after the roll", w.Code)
	}
	if waited := fc.Now().Sub(before); waited < 5*time.Millisecond {
		t.Fatalf("request waited only %v, want about the window remainder", waited)
	}
	ev := sink.last(t)
	if ev.Delay <= 0 || ev.Wall != time.Millisecond {
		t.Fatalf("delayed event = %+v", ev)
	}
	if st := rt.Stats(); st.Delayed != 1 || st.Shed != 0 {
		t.Fatalf("stats = %+v, want 1 delayed / 0 shed", st)
	}
}

// TestRebindMidRequest: the §4.2 dynamic rebinding — work before the
// Rebind charges the original container, work after charges the new one,
// and the telemetry event names the final binding.
func TestRebindMidRequest(t *testing.T) {
	fc := &VirtualClock{}
	root := rc.MustNew(nil, rc.FixedShare, "root", rc.Attributes{})
	first := rc.MustNew(root, rc.TimeShare, "first", rc.Attributes{Priority: 1})
	second := rc.MustNew(root, rc.TimeShare, "second", rc.Attributes{Priority: 1})
	sink := &recordingSink{}
	rt, err := NewRuntime(Config{Root: root, Window: 10 * time.Millisecond},
		WithClock(fc),
		WithBinder(BinderFunc(func(*http.Request) *rc.Container { return first })),
		WithTelemetrySink(sink))
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if Bound(r.Context()) != first {
			t.Error("request not bound to its binder's container")
		}
		fc.Sleep(2 * time.Millisecond)
		if !Rebind(r.Context(), second) {
			t.Error("Rebind failed")
		}
		if Bound(r.Context()) != second {
			t.Error("Bound does not reflect the rebind")
		}
		fc.Sleep(3 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	if w := get(h, "", ""); w.Code != http.StatusOK {
		t.Fatalf("got %d", w.Code)
	}
	if got := time.Duration(first.Usage().CPU()); got != 2*time.Millisecond {
		t.Fatalf("first charged %v, want 2ms", got)
	}
	if got := time.Duration(second.Usage().CPU()); got != 3*time.Millisecond {
		t.Fatalf("second charged %v, want 3ms", got)
	}
	if got := time.Duration(root.Usage().CPU()); got != 5*time.Millisecond {
		t.Fatalf("root charged %v, want 5ms", got)
	}
	ev := sink.last(t)
	if ev.Container != "second" || ev.Wall != 5*time.Millisecond {
		t.Fatalf("event = %+v, want container second / wall 5ms", ev)
	}
}

// TestRebindRejectsBadTargets: no binding in context, nil, and destroyed
// targets all refuse without panicking, and the original binding keeps
// charging.
func TestRebindRejectsBadTargets(t *testing.T) {
	fc := &VirtualClock{}
	root := rc.MustNew(nil, rc.FixedShare, "root", rc.Attributes{})
	dead := rc.MustNew(nil, rc.FixedShare, "dead", rc.Attributes{})
	_ = dead.Release()
	r := httptest.NewRequest("GET", "/", nil)
	if Rebind(r.Context(), root) {
		t.Fatal("Rebind succeeded without a middleware binding")
	}
	if Bound(r.Context()) != nil {
		t.Fatal("Bound outside middleware should be nil")
	}
	// nil contexts refuse instead of panicking.
	if Rebind(nil, root) {
		t.Fatal("Rebind succeeded on a nil context")
	}
	if Bound(nil) != nil {
		t.Fatal("Bound on a nil context should be nil")
	}
	rt, err := NewRuntime(Config{Root: root}, WithClock(fc))
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if Rebind(r.Context(), nil) {
			t.Error("Rebind(nil) succeeded")
		}
		if Rebind(r.Context(), dead) {
			t.Error("Rebind(destroyed) succeeded")
		}
		if Bound(r.Context()) != root {
			t.Error("failed rebinds changed the binding")
		}
		fc.Sleep(time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	if w := get(h, "", ""); w.Code != http.StatusOK {
		t.Fatalf("got %d", w.Code)
	}
	if got := time.Duration(root.Usage().CPU()); got != time.Millisecond {
		t.Fatalf("root charged %v, want 1ms", got)
	}
}

// TestBinderFallbacks: nil and destroyed binder results charge the root.
func TestBinderFallbacks(t *testing.T) {
	fc := &VirtualClock{}
	root := rc.MustNew(nil, rc.FixedShare, "root", rc.Attributes{})
	dead := rc.MustNew(root, rc.TimeShare, "dead", rc.Attributes{Priority: 1})
	_ = dead.Release()
	rt, err := NewRuntime(Config{Root: root},
		WithClock(fc),
		WithBinder(BinderFunc(func(r *http.Request) *rc.Container {
			if r.Header.Get("X-Tenant") == "dead" {
				return dead
			}
			return nil
		})))
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fc.Sleep(time.Millisecond)
	}))
	get(h, "", "")
	get(h, "dead", "")
	if got := time.Duration(root.Usage().CPU()); got != 2*time.Millisecond {
		t.Fatalf("root charged %v, want 2ms (both fallbacks)", got)
	}
}

// TestMiddlewareStatusCapture: the telemetry event carries the handler's
// status code, including implicit 200s on first Write.
func TestMiddlewareStatusCapture(t *testing.T) {
	fc := &VirtualClock{}
	root := rc.MustNew(nil, rc.FixedShare, "root", rc.Attributes{})
	sink := &recordingSink{}
	rt, err := NewRuntime(Config{Root: root}, WithClock(fc), WithTelemetrySink(sink))
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Header.Get("X-Tenant") {
		case "teapot":
			w.WriteHeader(http.StatusTeapot)
		case "implicit":
			_, _ = w.Write([]byte("ok")) // implicit 200
		}
	}))
	get(h, "teapot", "")
	if ev := sink.last(t); ev.Code != http.StatusTeapot {
		t.Fatalf("code %d, want 418", ev.Code)
	}
	get(h, "implicit", "")
	if ev := sink.last(t); ev.Code != http.StatusOK {
		t.Fatalf("code %d, want 200", ev.Code)
	}
}

// TestConcurrentMiddleware hammers a capped tenant from several
// goroutines on the wall clock: the admitted work rate must respect the
// cap (with slack for the cooperative over-admission window) and the
// runtime must be race-clean. Shed requests must appear once the budget
// is gone.
func TestConcurrentMiddleware(t *testing.T) {
	root, leaf, binder := tenantTree(t)
	rt, err := NewRuntime(Config{Root: root, Window: 20 * time.Millisecond, MaxDelay: NoDelay},
		WithBinder(binder))
	if err != nil {
		t.Fatal(err)
	}
	const workUnit = 2 * time.Millisecond
	h := rt.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(workUnit) // real wall-clock work
		w.WriteHeader(http.StatusOK)
	}))
	var served, shedCount atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch w := get(h, "capped", ""); w.Code {
				case http.StatusOK:
					served.Add(1)
				case http.StatusTooManyRequests:
					shedCount.Add(1)
				default:
					t.Errorf("unexpected status %d", w.Code)
					return
				}
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	// Cap: 50% of 300ms = 150ms of admitted work, plus slack for window
	// boundaries, over-admission (acquire precedes charging) and CI
	// scheduling jitter.
	admitted := time.Duration(served.Load()) * workUnit
	if admitted > 290*time.Millisecond {
		t.Fatalf("admitted %v of work in 300ms at a 50%% cap", admitted)
	}
	if served.Load() == 0 {
		t.Fatal("no requests served")
	}
	if shedCount.Load() == 0 {
		t.Fatal("no requests shed despite saturating a capped tenant")
	}
	if got := time.Duration(leaf.Usage().CPU()); got == 0 {
		t.Fatal("no CPU charged to the hammered tenant")
	}
}
