// Per-tenant circuit breakers: the graceful-degradation layer between
// "shed each over-budget request with a 429" and "refuse the tenant's
// connections at accept". A tenant whose requests are shed repeatedly
// is paying the middleware's admission check (and the server a parsed
// request) for every retry; once the shedding is sustained the breaker
// opens and the tenant's requests are rejected immediately — no
// admission check, no enforcer lock — until a half-open probe shows the
// budget has recovered. Open durations back off exponentially when a
// probe fails, so a tenant hammering a exhausted budget converges to
// long quiet periods instead of oscillating.

package rcruntime

import (
	"sync"
	"time"

	"rescon/internal/rc"
)

// Breaker parameters.
const (
	// DefaultBreakerOpenAfter is how many consecutive budget sheds open
	// a tenant's breaker when BreakerConfig.OpenAfter is zero.
	DefaultBreakerOpenAfter = 4
	// BreakerOpenFactor sets the open duration as a multiple of the
	// enforcement window (budgets restore on window rolls, so probing
	// faster than a roll cannot succeed).
	BreakerOpenFactor = 2
	// BreakerMaxFactor bounds the exponential open-duration backoff, as
	// a multiple of the initial open duration.
	BreakerMaxFactor = 8
)

// BreakerConfig tunes the per-tenant circuit breakers enabled with
// WithBreakers.
type BreakerConfig struct {
	// OpenAfter is the number of consecutive sheds (429s) that open a
	// tenant's breaker; zero means DefaultBreakerOpenAfter. While open,
	// the tenant's requests are rejected with 503 without touching the
	// enforcer.
	OpenAfter int
}

// WithBreakers enables per-tenant circuit breakers on the Middleware:
// after cfg.OpenAfter consecutive sheds a container's requests are
// rejected with 503 (and a Retry-After of the remaining open time)
// until a half-open probe is admitted again.
func WithBreakers(cfg BreakerConfig) Option {
	return func(rt *Runtime) { rt.breakerCfg = &cfg }
}

// breaker state machine values.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is one container's circuit-breaker state. All fields are
// guarded by the owning breakerSet's lock.
type breaker struct {
	state   int
	sheds   int       // consecutive sheds while closed
	until   time.Time // open until (then half-open)
	openFor time.Duration
	opens   uint64 // times this breaker opened (incl. reopens)
}

// breakerSet owns the per-container breakers.
type breakerSet struct {
	openAfter           int
	openFor, maxOpenFor time.Duration

	mu sync.Mutex
	m  map[*rc.Container]*breaker
}

// newBreakerSet resolves cfg against the runtime's enforcement window.
func newBreakerSet(cfg BreakerConfig, window time.Duration) *breakerSet {
	s := &breakerSet{
		openAfter: cfg.OpenAfter,
		openFor:   BreakerOpenFactor * window,
		m:         make(map[*rc.Container]*breaker),
	}
	if s.openAfter <= 0 {
		s.openAfter = DefaultBreakerOpenAfter
	}
	s.maxOpenFor = BreakerMaxFactor * s.openFor
	return s
}

// admit decides the request's fate under the container's breaker:
// allowed==true lets it proceed to admission control (possibly as a
// half-open probe); otherwise wait is how long the client should back
// off. The caller must report the admission outcome via onShed/onAdmit.
func (s *breakerSet) admit(c *rc.Container, now time.Time) (wait time.Duration, allowed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.m[c]
	if b == nil {
		return 0, true
	}
	switch b.state {
	case breakerClosed:
		return 0, true
	case breakerHalfOpen:
		// One probe is already in flight (or was just shed and re-armed
		// the timer); hold everything else off for the open duration.
		return b.openFor, false
	default: // breakerOpen
		if now.Before(b.until) {
			return b.until.Sub(now), false
		}
		// Open period elapsed: this request becomes the half-open probe.
		b.state = breakerHalfOpen
		return 0, true
	}
}

// onShed records a shed (429) outcome: while closed it advances the
// consecutive-shed streak and opens the breaker at the threshold; a
// shed half-open probe reopens with exponential backoff.
func (s *breakerSet) onShed(c *rc.Container, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.m[c]
	if b == nil {
		b = &breaker{openFor: s.openFor}
		s.m[c] = b
	}
	switch b.state {
	case breakerClosed:
		b.sheds++
		if b.sheds >= s.openAfter {
			b.state = breakerOpen
			b.openFor = s.openFor
			b.until = now.Add(b.openFor)
			b.opens++
		}
	case breakerHalfOpen:
		// The probe was shed: the budget has not recovered. Reopen with
		// a doubled (bounded) open duration.
		b.openFor *= 2
		if b.openFor > s.maxOpenFor {
			b.openFor = s.maxOpenFor
		}
		b.state = breakerOpen
		b.until = now.Add(b.openFor)
		b.opens++
	}
}

// onAdmit records an admitted request: it resets the shed streak, and
// an admitted half-open probe closes the breaker.
func (s *breakerSet) onAdmit(c *rc.Container) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.m[c]
	if b == nil {
		return
	}
	b.sheds = 0
	if b.state == breakerHalfOpen {
		b.state = breakerClosed
		b.openFor = s.openFor
	}
}

// openCount returns how many breakers are currently not closed.
func (s *breakerSet) openCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, b := range s.m {
		if b.state != breakerClosed {
			n++
		}
	}
	return n
}

// opens returns the cumulative number of opens (including reopens)
// recorded for c.
func (s *breakerSet) opensOf(c *rc.Container) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.m[c]; b != nil {
		return b.opens
	}
	return 0
}

// BreakerOpen reports whether c's circuit breaker is currently open or
// half-open (requests other than the probe are being rejected). Always
// false when breakers are disabled.
func (rt *Runtime) BreakerOpen(c *rc.Container) bool {
	if rt.breakers == nil {
		return false
	}
	rt.breakers.mu.Lock()
	defer rt.breakers.mu.Unlock()
	b := rt.breakers.m[c]
	return b != nil && b.state != breakerClosed
}

// BreakerOpens returns how many times c's breaker has opened (including
// reopens after a failed half-open probe). Zero when breakers are
// disabled or c never tripped.
func (rt *Runtime) BreakerOpens(c *rc.Container) uint64 {
	if rt.breakers == nil {
		return 0
	}
	return rt.breakers.opensOf(c)
}

// OpenBreakers returns the number of tenants whose breaker is currently
// open or half-open — the monitor's breaker-pressure signal.
func (rt *Runtime) OpenBreakers() int {
	if rt.breakers == nil {
		return 0
	}
	return rt.breakers.openCount()
}
