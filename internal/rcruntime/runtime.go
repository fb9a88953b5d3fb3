package rcruntime

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rescon/internal/rc"
)

// ErrBadConfig is returned by NewRuntime for invalid configurations.
var ErrBadConfig = errors.New("rcruntime: invalid config")

// NoDelay as Config.MaxDelay sheds over-budget requests immediately with
// 429 instead of holding them for the window to roll.
const NoDelay time.Duration = -1

// Config configures a Runtime. Root is required; zero values elsewhere
// take defaults. Validate reports problems as errors — the Runtime never
// panics on user input.
type Config struct {
	// Root is the top of the governed container hierarchy. Requests for
	// which the Binder returns no container are charged here.
	Root *rc.Container
	// Window is the limit-enforcement window (0 = DefaultWindow): a
	// subtree with Limit L may consume at most L×Window of CPU per
	// window.
	Window time.Duration
	// MaxDelay bounds how long an over-budget request is held for budget
	// before being shed with 429 Too Many Requests. 0 means one Window
	// (delay at most one roll); NoDelay sheds immediately.
	MaxDelay time.Duration
	// Policy is accept-time admission control, applied by Listener.
	Policy AcceptPolicy
}

// Validate reports the first problem with the configuration, wrapping
// ErrBadConfig, or nil.
func (c Config) Validate() error {
	if c.Root == nil {
		return fmt.Errorf("%w: Root is required", ErrBadConfig)
	}
	if c.Root.Destroyed() {
		return fmt.Errorf("%w: Root is destroyed", ErrBadConfig)
	}
	if c.Window < 0 {
		return fmt.Errorf("%w: negative Window %v", ErrBadConfig, c.Window)
	}
	if c.MaxDelay < 0 && c.MaxDelay != NoDelay {
		return fmt.Errorf("%w: negative MaxDelay %v (use NoDelay to shed immediately)", ErrBadConfig, c.MaxDelay)
	}
	return c.Policy.validate()
}

// Option customizes NewRuntime beyond the Config: the injected clock,
// the request→container Binder, and the per-request telemetry sink.
type Option func(*Runtime)

// WithClock injects the runtime's time source (virtual clocks make every
// admission and accounting decision deterministic in tests and in the
// rcbench live experiment). nil keeps the wall clock.
func WithClock(c Clock) Option {
	return func(rt *Runtime) {
		if c != nil {
			rt.clock = c
		}
	}
}

// WithBinder sets the request→container resolver. nil keeps the default
// binder, which charges every request to Config.Root.
func WithBinder(b Binder) Option {
	return func(rt *Runtime) {
		if b != nil {
			rt.binder = b
		}
	}
}

// WithTelemetrySink streams one RequestEvent per completed or shed
// request to s. nil keeps telemetry detached.
func WithTelemetrySink(s TelemetrySink) Option {
	return func(rt *Runtime) {
		if s != nil {
			rt.sink = s
		}
	}
}

// Request-outcome causes recorded in RequestEvent.Cause. Served
// requests carry an empty cause.
const (
	// CauseShed marks a 429: the subtree's window budget stayed
	// exhausted past MaxDelay.
	CauseShed = "shed"
	// CauseBreaker marks a 503 from an open per-tenant circuit breaker.
	CauseBreaker = "breaker"
	// CauseDrain marks a 503 issued while the runtime is draining.
	CauseDrain = "drain"
	// CausePanic marks a request whose handler panicked; the partial
	// work is still charged to the bound container.
	CausePanic = "panic"
)

// RequestEvent is one request's accounting record, delivered to the
// TelemetrySink when the middleware finishes with the request.
type RequestEvent struct {
	// Container is the name of the container charged when the request
	// completed (after any mid-request Rebind).
	Container string
	// Code is the HTTP status sent (429 for shed requests).
	Code int
	// Shed reports that the request was refused (budget, breaker or
	// drain) and never reached the handler.
	Shed bool
	// Cause classifies the outcome: one of the Cause* constants, or ""
	// for a normally served request.
	Cause string
	// Wall is the handler wall-clock charged into the hierarchy.
	Wall time.Duration
	// Delay is the admission delay endured before the handler ran (or
	// before the request was shed).
	Delay time.Duration
}

// TelemetrySink receives per-request accounting records. Implementations
// must be safe for concurrent use; they are called on the serving
// goroutine, so they should be fast.
type TelemetrySink interface {
	RecordRequest(RequestEvent)
}

type nopSink struct{}

func (nopSink) RecordRequest(RequestEvent) {}

// TallySink is a TelemetrySink that counts requests by cause into the
// matching Stats fields, so a run can reconcile its telemetry stream
// against the runtime's own counters.
type TallySink struct {
	mu sync.Mutex
	n  Stats // only Served, Shed, BreakerShed, DrainShed and Panics
}

// RecordRequest implements TelemetrySink.
func (t *TallySink) RecordRequest(ev RequestEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Cause {
	case CauseShed:
		t.n.Shed++
	case CauseBreaker:
		t.n.BreakerShed++
	case CauseDrain:
		t.n.DrainShed++
	case CausePanic:
		t.n.Panics++
		t.n.Served++
	default:
		t.n.Served++
	}
}

// Mismatch compares the tallies with s and describes the difference,
// or returns "" when every cause count agrees.
func (t *TallySink) Mismatch(s Stats) string {
	t.mu.Lock()
	n := t.n
	t.mu.Unlock()
	if n.Served == s.Served && n.Shed == s.Shed && n.BreakerShed == s.BreakerShed &&
		n.DrainShed == s.DrainShed && n.Panics == s.Panics {
		return ""
	}
	return fmt.Sprintf("served=%d shed=%d breaker=%d drain=%d panics=%d vs stats served=%d shed=%d breaker=%d drain=%d panics=%d",
		n.Served, n.Shed, n.BreakerShed, n.DrainShed, n.Panics, s.Served, s.Shed, s.BreakerShed, s.DrainShed, s.Panics)
}

// Stats is a snapshot of the runtime's request and accept counters.
type Stats struct {
	// Served counts requests that completed through the middleware
	// (including requests whose handler panicked and was recovered).
	Served uint64
	// Shed counts requests refused with 429 after exhausting MaxDelay.
	Shed uint64
	// BreakerShed counts requests refused with 503 by an open
	// per-tenant circuit breaker.
	BreakerShed uint64
	// DrainShed counts requests refused with 503 while draining.
	DrainShed uint64
	// Panics counts handler panics recovered by the middleware; the
	// partial work was still charged. Panicked requests also count in
	// Served, so Served+Shed+BreakerShed+DrainShed is the number of
	// requests that entered the middleware and left it.
	Panics uint64
	// Delayed counts served requests that waited for budget first.
	Delayed uint64
	// Accepted counts connections admitted by the policed listener.
	Accepted uint64
	// Refused counts connections refused (closed) at accept.
	Refused uint64
	// Inflight is the number of currently open governed connections.
	Inflight int64
	// InflightRequests is the number of requests currently inside a
	// handler — the quantity Drain waits to reach zero.
	InflightRequests int64
}

// Runtime binds resource containers to a live net/http server: Middleware
// accounts and polices requests, Listener polices accepts, and the whole
// hierarchy remains the ordinary rc.Container tree (snapshot it with
// rc.Capture, rebalance it with SetAttributes while the server runs).
// All methods are safe for concurrent use.
type Runtime struct {
	cfg      Config
	clock    Clock
	window   time.Duration
	maxDelay time.Duration // resolved: >= 0, 0 = shed immediately
	binder   Binder
	sink     TelemetrySink
	enf      *Enforcer

	// policy is the live AcceptPolicy; SetPolicy swaps it atomically so
	// the watchdog can tighten and restore it while the server runs.
	policy atomic.Pointer[AcceptPolicy]

	breakerCfg *BreakerConfig // set by WithBreakers
	breakers   *breakerSet    // built from breakerCfg; nil without it

	draining atomic.Bool

	lnMu      sync.Mutex
	listeners []*policedListener

	inflight    atomic.Int64
	reqInflight atomic.Int64
	served      atomic.Uint64
	shed        atomic.Uint64
	breakerShed atomic.Uint64
	drainShed   atomic.Uint64
	panics      atomic.Uint64
	delayed     atomic.Uint64
	accepted    atomic.Uint64
	refused     atomic.Uint64
}

// NewRuntime validates cfg and returns a runtime governing the
// hierarchy under cfg.Root.
func NewRuntime(cfg Config, opts ...Option) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rt := &Runtime{
		cfg:      cfg,
		clock:    RealClock{},
		window:   cfg.Window,
		maxDelay: cfg.MaxDelay,
		sink:     nopSink{},
	}
	for _, opt := range opts {
		opt(rt)
	}
	if rt.window <= 0 {
		rt.window = DefaultWindow
	}
	switch {
	case rt.maxDelay == NoDelay:
		rt.maxDelay = 0 // try-acquire: shed immediately
	case rt.maxDelay == 0:
		rt.maxDelay = rt.window
	}
	if rt.binder == nil {
		root := cfg.Root
		rt.binder = BinderFunc(func(*http.Request) *rc.Container { return root })
	}
	pol := cfg.Policy
	rt.policy.Store(&pol)
	if rt.breakerCfg != nil {
		rt.breakers = newBreakerSet(*rt.breakerCfg, rt.window)
	}
	rt.enf = New(rt.clock, rt.window)
	return rt, nil
}

// MustNewRuntime is NewRuntime that panics on an invalid configuration;
// for examples and tests with known-good configs.
func MustNewRuntime(cfg Config, opts ...Option) *Runtime {
	rt, err := NewRuntime(cfg, opts...)
	if err != nil {
		panic(err)
	}
	return rt
}

// Enforcer returns the underlying cooperative enforcer, for bracketing
// non-HTTP work (background jobs) against the same budgets.
func (rt *Runtime) Enforcer() *Enforcer { return rt.enf }

// Root returns the root of the governed hierarchy.
func (rt *Runtime) Root() *rc.Container { return rt.cfg.Root }

// Window returns the limit-enforcement window in effect.
func (rt *Runtime) Window() time.Duration { return rt.window }

// Policy returns the AcceptPolicy currently in effect (it may differ
// from Config.Policy after a SetPolicy, e.g. while the watchdog has
// emergency settings applied).
func (rt *Runtime) Policy() AcceptPolicy { return *rt.policy.Load() }

// SetPolicy swaps the live AcceptPolicy, validating it first. New
// accepts see the new policy immediately; established connections are
// untouched. This is the watchdog's actuation lever, and an operator's:
// tighten under attack, restore when calm.
func (rt *Runtime) SetPolicy(p AcceptPolicy) error {
	if err := p.validate(); err != nil {
		return err
	}
	rt.policy.Store(&p)
	return nil
}

// Stats returns a snapshot of the runtime's counters.
func (rt *Runtime) Stats() Stats {
	return Stats{
		Served:           rt.served.Load(),
		Shed:             rt.shed.Load(),
		BreakerShed:      rt.breakerShed.Load(),
		DrainShed:        rt.drainShed.Load(),
		Panics:           rt.panics.Load(),
		Delayed:          rt.delayed.Load(),
		Accepted:         rt.accepted.Load(),
		Refused:          rt.refused.Load(),
		Inflight:         rt.inflight.Load(),
		InflightRequests: rt.reqInflight.Load(),
	}
}
