package rcruntime

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rescon/internal/rc"
)

// Binder resolves an incoming request to the resource container that
// should be charged for it — the binding operation of §4.2. Binders run
// on the serving goroutine for every request; they must be safe for
// concurrent use and fast. Returning nil (or a destroyed container)
// falls back to the runtime's root.
type Binder interface {
	Bind(r *http.Request) *rc.Container
}

// BinderFunc adapts a function to a Binder.
type BinderFunc func(*http.Request) *rc.Container

// Bind implements Binder.
func (f BinderFunc) Bind(r *http.Request) *rc.Container { return f(r) }

// HeaderBinder binds requests to containers by the value of an HTTP
// header (e.g. a tenant id): requests whose header value appears in
// tenants bind there, everything else binds to def (nil = the runtime's
// root). The map is read concurrently and must not be mutated after.
func HeaderBinder(header string, tenants map[string]*rc.Container, def *rc.Container) Binder {
	return BinderFunc(func(r *http.Request) *rc.Container {
		if c, ok := tenants[r.Header.Get(header)]; ok {
			return c
		}
		return def
	})
}

// bindingKey keys the per-request binding in the request context.
type bindingKey struct{}

// binding tracks which container an in-flight request charges, split
// into segments at every Rebind so each container pays for exactly the
// wall-clock consumed while the request was bound to it.
type binding struct {
	rt *Runtime

	mu    sync.Mutex
	c     *rc.Container
	start time.Time     // start of the current charging segment
	total time.Duration // wall-clock charged by finished segments
	done  bool
}

// rebind charges the running segment to the old container and starts a
// new segment on c.
func (b *binding) rebind(c *rc.Container) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return
	}
	now := b.rt.clock.Now()
	seg := now.Sub(b.start)
	b.rt.enf.Charge(b.c, seg)
	if seg > 0 {
		b.total += seg
	}
	b.c = c
	b.start = now
}

// finish charges the final segment and returns (container charged last,
// total wall-clock charged).
func (b *binding) finish(now time.Time) (*rc.Container, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.done = true
	seg := now.Sub(b.start)
	b.rt.enf.Charge(b.c, seg)
	if seg > 0 {
		b.total += seg
	}
	return b.c, b.total
}

func (b *binding) current() *rc.Container {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.c
}

// Rebind re-binds the in-flight request owning ctx to c — the dynamic
// rebinding of §4.2 (e.g. a handler discovers mid-request which user an
// expensive query belongs to). Wall-clock consumed so far stays charged
// to the previous container; consumption from now on charges c.
// Admission is not re-run: the request was admitted under its original
// binding, and a cooperative runtime cannot preempt it — c's subtree
// still pays, so its future requests are policed accordingly. Reports
// whether a binding was found and c was usable (non-nil, not destroyed).
func Rebind(ctx context.Context, c *rc.Container) bool {
	if ctx == nil || c == nil || c.Destroyed() {
		return false
	}
	b, ok := ctx.Value(bindingKey{}).(*binding)
	if !ok {
		return false
	}
	b.rebind(c)
	return true
}

// Bound returns the container the request owning ctx is currently
// charging, or nil when ctx carries no binding (the handler is not
// running under a Runtime middleware).
func Bound(ctx context.Context) *rc.Container {
	if ctx == nil {
		return nil
	}
	b, ok := ctx.Value(bindingKey{}).(*binding)
	if !ok {
		return nil
	}
	return b.current()
}

// statusWriter captures the status code sent downstream so the telemetry
// sink can record it. Unwrap lets http.ResponseController reach the
// underlying writer for Flush/Hijack.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Unwrap exposes the wrapped ResponseWriter to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// retryAfterSeconds converts a wait into a Retry-After header value:
// whole seconds, rounded up, because telling the client to retry before
// the budget restores only buys another shed. A non-positive wait maps
// to 0 (retry immediately).
func retryAfterSeconds(wait time.Duration) int64 {
	if wait <= 0 {
		return 0
	}
	secs := int64(wait / time.Second)
	if wait%time.Second != 0 {
		secs++ // round up: never tell the client to retry early
	}
	return secs
}

func setRetryAfter(w http.ResponseWriter, wait time.Duration) {
	w.Header().Set("Retry-After", strconv.FormatInt(retryAfterSeconds(wait), 10))
}

// Middleware wraps next so that every request is bound to a container
// (via the Binder), admitted against the container subtree's window
// budget, and charged for its handler wall-clock on completion. Requests
// whose subtree budget stays exhausted past MaxDelay are shed with
// 429 Too Many Requests and a Retry-After derived from the remaining
// window — backpressure before work is invested, the cooperative
// analogue of the kernel's early packet drop.
//
// Around that core sit the graceful-degradation layers: a draining
// runtime sheds everything with 503 + Connection: close; a tenant whose
// breaker is open (WithBreakers) is rejected with 503 before the
// enforcer is consulted; and a panicking handler is recovered — the
// partial wall-clock is still charged to the bound container, the
// client gets a 500, and Stats().Panics counts it.
func (rt *Runtime) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := rt.binder.Bind(r)
		if c == nil || c.Destroyed() {
			c = rt.cfg.Root
		}
		if rt.draining.Load() {
			rt.drainShed.Add(1)
			w.Header().Set("Connection", "close")
			setRetryAfter(w, rt.enf.WindowRemaining())
			http.Error(w, "server draining", http.StatusServiceUnavailable)
			rt.sink.RecordRequest(RequestEvent{
				Container: c.Name(),
				Code:      http.StatusServiceUnavailable,
				Shed:      true,
				Cause:     CauseDrain,
			})
			return
		}
		if rt.breakers != nil {
			if wait, allowed := rt.breakers.admit(c, rt.clock.Now()); !allowed {
				rt.breakerShed.Add(1)
				setRetryAfter(w, wait)
				http.Error(w, "tenant circuit breaker open", http.StatusServiceUnavailable)
				rt.sink.RecordRequest(RequestEvent{
					Container: c.Name(),
					Code:      http.StatusServiceUnavailable,
					Shed:      true,
					Cause:     CauseBreaker,
				})
				return
			}
		}
		t0 := rt.clock.Now()
		// No charge closure: segments charge through the binding so
		// mid-request Rebind splits the bill correctly.
		waited, ok := rt.enf.admit(c, rt.maxDelay)
		delay := rt.clock.Now().Sub(t0)
		if !waited {
			delay = 0 // admitted on the first check: clock noise, not a wait
		}
		if !ok {
			rt.shed.Add(1)
			if rt.breakers != nil {
				rt.breakers.onShed(c, rt.clock.Now())
			}
			setRetryAfter(w, rt.enf.WindowRemaining())
			http.Error(w, "resource container budget exhausted", http.StatusTooManyRequests)
			rt.sink.RecordRequest(RequestEvent{
				Container: c.Name(),
				Code:      http.StatusTooManyRequests,
				Shed:      true,
				Cause:     CauseShed,
				Delay:     delay,
			})
			return
		}
		if rt.breakers != nil {
			rt.breakers.onAdmit(c)
		}
		if waited {
			rt.delayed.Add(1)
		}
		rt.reqInflight.Add(1)
		b := &binding{rt: rt, c: c, start: rt.clock.Now()}
		sw := &statusWriter{ResponseWriter: w}
		panicked := false
		func() {
			defer func() {
				if p := recover(); p != nil {
					panicked = true
				}
			}()
			next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), bindingKey{}, b)))
		}()
		// Charge the (possibly partial) work even when the handler blew
		// up: the tenant consumed that wall-clock whether or not a
		// response came of it — unaccounted work is exactly the leak
		// resource containers exist to close.
		last, wall := b.finish(rt.clock.Now())
		rt.reqInflight.Add(-1)
		cause := ""
		if panicked {
			rt.panics.Add(1)
			cause = CausePanic
			if sw.status == 0 {
				http.Error(sw, "handler panicked", http.StatusInternalServerError)
			}
		}
		rt.served.Add(1)
		rt.sink.RecordRequest(RequestEvent{
			Container: last.Name(),
			Code:      sw.code(),
			Cause:     cause,
			Wall:      wall,
			Delay:     delay,
		})
	})
}
