// Package rcruntime applies resource containers to *real* Go programs —
// the userspace approximation of the paper's kernel mechanism. A kernel
// can charge and schedule transparently; a user-space library cannot, so
// enforcement is cooperative: request handlers bracket their work with
// Acquire/After, and the Enforcer delays work whose container subtree has
// exhausted its CPU limit for the current window (the §4.1 Limit
// attribute), while accounting actual usage into the same rc.Container
// hierarchy the simulation uses.
//
// The package has two layers:
//
//   - Enforcer is the cooperative core: Acquire brackets arbitrary
//     sections of Go code with admission control and accounting. Its
//     only per-container state is the window snapshot it keeps in each
//     limited container's SchedState slot; a blocked admission sleeps
//     on the Clock until the window rolls.
//   - Runtime is the production adapter for net/http servers: a
//     Middleware that binds each request to a container (pluggable
//     Binder, with dynamic §4.2 rebinding via Rebind), charges handler
//     wall-clock into the hierarchy, sheds over-budget work with 429 +
//     Retry-After, and a net.Listener wrapper (Runtime.Listener) that
//     refuses connections at accept — the userspace mirror of
//     kernel.Policing's early SYN drop. Construct it with
//     NewRuntime(Config, ...Option); Config.Validate reports bad
//     configurations as errors rather than panics.
//
// What this gives a real server:
//
//   - per-activity CPU accounting (wall-clock of bracketed sections,
//     aggregated up the container hierarchy);
//   - hard CPU limits per subtree, enforced by admission delay within
//     fixed, rolling windows — the cooperative analogue of §5.6's
//     sandboxes;
//   - load shedding before work is invested: 429 at the middleware, and
//     connection refusal at accept for the cost of a close(2) alone;
//   - the same billing/snapshot tooling (rc.Capture, rc.WriteJSON).
//
// What it cannot give (and the paper's kernel could): involuntary
// preemption, charging of kernel-mode protocol processing, and priority
// scheduling of the network stack. Those require the kernel path this
// repository simulates instead; DESIGN.md §12 spells out the mapping.
//
// Everything is deterministic-testable: inject a virtual Clock with
// WithClock and both layers (and the rcbench -exp live load generator)
// run on virtual time.
package rcruntime

import (
	"sync"
	"time"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

// Clock abstracts time so tests can run instantly and deterministically.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// RealClock is the wall clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (RealClock) Sleep(d time.Duration) { time.Sleep(d) }

// VirtualClock is a Clock whose time advances only when something
// sleeps, so a run takes microseconds of wall clock and every timestamp
// is deterministic. The zero value starts at the zero time; it is safe
// for concurrent use.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep implements Clock: it advances virtual time by d.
func (c *VirtualClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// DefaultWindow is the limit-enforcement window: a subtree with Limit L
// may consume at most L×window of CPU per window.
const DefaultWindow = 100 * time.Millisecond

// Enforcer admits work against container CPU limits and accounts usage.
// It is safe for concurrent use; all container mutations happen under its
// lock (the rc package itself is not concurrency-safe).
type Enforcer struct {
	clock  Clock
	window time.Duration

	mu          sync.Mutex
	windowStart time.Time
	gen         uint64 // windows rolled so far
}

// winState is the Enforcer's window state for one limited container,
// kept in its SchedState slot (a live hierarchy has no simulated
// scheduler) and taken lazily at the first check in a window, so that
// rolling the window touches no container.
type winState struct {
	gen  uint64        // the window snap belongs to
	snap time.Duration // subtree usage at that window's start
}

// Changed implements rc.SchedHook: attribute and topology changes leave
// the snapshot valid (budgets are read afresh on every check).
func (*winState) Changed() {}

// refreshLocked moves st into the current window. Usage moves only
// through Charge, which refreshes a stale state before charging, so the
// usage read here equals the usage at the roll.
func (e *Enforcer) refreshLocked(st *winState, c *rc.Container) {
	if st.gen != e.gen {
		st.gen, st.snap = e.gen, e.usage(c)
	}
}

// New returns an enforcer using the given clock (nil for the wall clock)
// and window (0 for DefaultWindow).
func New(clock Clock, window time.Duration) *Enforcer {
	if clock == nil {
		clock = RealClock{}
	}
	if window <= 0 {
		window = DefaultWindow
	}
	return &Enforcer{clock: clock, window: window}
}

// Window returns the enforcement window.
func (e *Enforcer) Window() time.Duration { return e.window }

func (e *Enforcer) usage(c *rc.Container) time.Duration {
	return time.Duration(c.Usage().CPU())
}

// rollLocked starts a new window if the current one has expired.
func (e *Enforcer) rollLocked(now time.Time) {
	if now.Sub(e.windowStart) >= e.window {
		e.windowStart = now
		e.gen++
	}
}

// overLimitLocked reports whether c or an ancestor has exhausted its
// limit budget for this window. A destroyed container is never over its
// limit, and has no ancestors.
func (e *Enforcer) overLimitLocked(c *rc.Container, now time.Time) bool {
	e.rollLocked(now)
	if c.Destroyed() {
		return false
	}
	for p := c; p != nil; p = p.Parent() {
		l := p.Attributes().Limit
		if l <= 0 {
			continue
		}
		st, ok := p.SchedState.(*winState)
		if !ok {
			st = &winState{gen: e.gen, snap: e.usage(p)}
			p.SchedState = st
		}
		e.refreshLocked(st, p)
		budget := time.Duration(l * float64(e.window))
		if e.usage(p)-st.snap >= budget {
			return true
		}
	}
	return false
}

// Acquire blocks until c's subtree has limit budget, then returns a
// charge function the caller must invoke with the work's actual duration
// when done (typically via defer with a start timestamp). Work on
// unlimited containers is admitted immediately.
func (e *Enforcer) Acquire(c *rc.Container) (charge func(actual time.Duration)) {
	e.admit(c, -1)
	return func(actual time.Duration) { e.Charge(c, actual) }
}

// admit waits until c's subtree has limit budget, for at most maxWait
// of clock time: maxWait 0 is a try-acquire (give up at once when over
// budget) and maxWait < 0 waits indefinitely. It reports whether c was
// admitted, and whether the caller actually blocked for budget (waited)
// — distinguishing a genuinely delayed admission from clock noise
// between two Now reads.
func (e *Enforcer) admit(c *rc.Container, maxWait time.Duration) (waited, ok bool) {
	var start time.Time
	started := false
	for {
		e.mu.Lock()
		now := e.clock.Now()
		if !started {
			start, started = now, true
		}
		if !e.overLimitLocked(c, now) {
			e.mu.Unlock()
			return waited, true
		}
		if maxWait >= 0 && now.Sub(start) >= maxWait {
			e.mu.Unlock()
			return waited, false
		}
		waited = true
		// Budgets are restored only by a roll, and none can come before
		// the window's remainder has passed: sleep that long (or to the
		// end of our own wait), then check again.
		wait := e.window - now.Sub(e.windowStart)
		if maxWait >= 0 {
			wait = min(wait, maxWait-now.Sub(start))
		}
		e.mu.Unlock()
		if wait <= 0 {
			wait = time.Millisecond
		}
		e.clock.Sleep(wait)
	}
}

// Charge accounts actual CPU time to c and its ancestors under the
// enforcer's lock. Negative charges and destroyed containers are
// ignored — in-flight work may complete after its container is released.
func (e *Enforcer) Charge(c *rc.Container, actual time.Duration) {
	if actual < 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if c.Destroyed() {
		return
	}
	for p := c; p != nil; p = p.Parent() {
		if st, ok := p.SchedState.(*winState); ok {
			e.refreshLocked(st, p)
		}
	}
	c.ChargeCPU(rc.UserCPU, sim.Duration(actual))
}

// OverBudget reports whether c's subtree (any limited ancestor,
// including c) has exhausted its limit budget for the current window,
// without waiting. Destroyed containers are never over budget.
func (e *Enforcer) OverBudget(c *rc.Container) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c.Destroyed() {
		return false // without rolling the window, as a probe never has
	}
	return e.overLimitLocked(c, e.clock.Now())
}

// WindowRemaining returns the time left until the current enforcement
// window rolls and exhausted budgets are restored — the natural
// Retry-After for shed work.
func (e *Enforcer) WindowRemaining() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return max(e.window-e.clock.Now().Sub(e.windowStart), 0)
}

// Sync runs fn while holding the enforcer's lock. The rc package is not
// concurrency-safe, and the enforcer reads the governed hierarchy under
// its lock on every admission — so any mutation of that hierarchy while
// a server is live (SetAttributes from a watchdog, Destroy from a tenant
// reaper) must go through Sync. Do not call enforcer methods from fn;
// that deadlocks.
func (e *Enforcer) Sync(fn func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	fn()
}
