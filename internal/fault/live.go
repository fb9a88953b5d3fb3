// Live fault injection: the package's deterministic fault schedules
// applied to a *real* net/http server instead of the simulated wire.
// LiveInjector wraps a net.Listener (connection resets, stalled reads)
// and an http.Handler (handler stalls, handler panics) so the rcruntime
// bridge can be driven through hostile conditions reproducibly — the
// livechaos experiment's chaos source.
//
// Determinism over real sockets requires two disciplines, both owned
// here. First, every fault decision is drawn when the unit of work
// arrives (one draw per class per accepted connection, one per served
// request), never inside Read — the kernel is free to segment a stream
// into any number of Read calls, and a draw per Read would make the
// schedule depend on TCP timing. Second, stalls sleep on an injected
// Sleeper (the runtime's Clock), so under a virtual clock a "stalled"
// read or handler advances simulated time instead of burning wall-clock.
// Drivers that issue requests sequentially (the livechaos closed loop)
// therefore see an identical fault schedule on every run with the same
// seed.

package fault

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"rescon/internal/sim"
)

// Live RNG fork labels, continuing the wire/disk label block. One
// stream per fault class: enabling panics never perturbs the reset
// schedule.
const (
	labelLiveReset  = 0xFA17D406
	labelLiveStall  = 0xFA17D407
	labelLiveHStall = 0xFA17D408
	labelLivePanic  = 0xFA17D409
)

// Live fault durations.
const (
	// LiveStallFor is the injected pre-read connection stall.
	LiveStallFor = 5 * time.Millisecond
	// DefaultLiveHandlerStallFor is the default injected handler stall.
	DefaultLiveHandlerStallFor = 20 * time.Millisecond
)

// ErrInjectedReset is the error a connection's Read returns when the
// injector resets it (the live analogue of a client RST mid-request).
var ErrInjectedReset = errors.New("fault: injected connection reset")

// injectedPanic is the value injected handler panics carry; the
// middleware above recovers it like any other handler panic.
const injectedPanic = "fault: injected handler panic"

// Sleeper is the injected time source stalls sleep on — satisfied by
// rcruntime's Clock, so virtual-time drivers stall in virtual time.
type Sleeper interface {
	Sleep(d time.Duration)
}

type realSleeper struct{}

func (realSleeper) Sleep(d time.Duration) { time.Sleep(d) }

// LiveConfig sets the per-class live fault probabilities. Zero rates
// disable a class; its RNG stream is never consulted.
type LiveConfig struct {
	// ResetRate is the probability an accepted connection is reset (its
	// first Read fails with ErrInjectedReset) before the request is read.
	ResetRate float64
	// StallRate is the probability an accepted connection's first Read is
	// preceded by a LiveStallFor sleep on the injector's Sleeper.
	StallRate float64
	// HandlerStallRate is the probability a request's handler is preceded
	// by a HandlerStallFor sleep — a runaway request, charged to whatever
	// container the request is bound to.
	HandlerStallRate float64
	// HandlerStallFor is the injected handler stall. Default 20 ms.
	HandlerStallFor time.Duration
	// PanicRate is the probability a request's handler panics instead of
	// running (recovered, and still charged, by rcruntime.Middleware).
	PanicRate float64
}

func (c LiveConfig) withDefaults() LiveConfig {
	if c.HandlerStallFor <= 0 {
		c.HandlerStallFor = DefaultLiveHandlerStallFor
	}
	return c
}

// LiveStats counts injected live faults. With a sequential driver the
// counts are a deterministic function of (seed, traffic) — the property
// the livechaos -check gate asserts.
type LiveStats struct {
	ConnResets    uint64
	ReadStalls    uint64
	HandlerStalls uint64
	HandlerPanics uint64
}

// String summarizes the live fault counts.
func (s LiveStats) String() string {
	return fmt.Sprintf("resets=%d readStalls=%d handlerStalls=%d panics=%d",
		s.ConnResets, s.ReadStalls, s.HandlerStalls, s.HandlerPanics)
}

// LiveInjector injects faults into a real server: wrap the listener
// with Listener and the handler with Middleware. Safe for concurrent
// use; for a byte-identical schedule across runs, drive the server from
// a sequential (closed-loop) client.
type LiveInjector struct {
	cfg   LiveConfig
	sleep Sleeper

	mu        sync.Mutex
	resetRNG  *sim.RNG
	stallRNG  *sim.RNG
	hstallRNG *sim.RNG
	panicRNG  *sim.RNG
	stats     LiveStats
}

// NewLive builds a live injector whose schedule is a deterministic
// function of seed and cfg. sleeper nil means wall-clock stalls.
func NewLive(seed int64, cfg LiveConfig, sleeper Sleeper) *LiveInjector {
	if sleeper == nil {
		sleeper = realSleeper{}
	}
	r := sim.NewRNG(seed)
	return &LiveInjector{
		cfg:       cfg.withDefaults(),
		sleep:     sleeper,
		resetRNG:  r.Fork(labelLiveReset),
		stallRNG:  r.Fork(labelLiveStall),
		hstallRNG: r.Fork(labelLiveHStall),
		panicRNG:  r.Fork(labelLivePanic),
	}
}

// Stats returns the live fault counts so far.
func (f *LiveInjector) Stats() LiveStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Config returns the injector's fault configuration.
func (f *LiveInjector) Config() LiveConfig { return f.cfg }

// connFate draws one accepted connection's fate: whether its first Read
// is reset, and any stall preceding it. All draws happen here, at
// accept time, so the schedule is independent of how the kernel chunks
// the stream into Read calls.
func (f *LiveInjector) connFate() (reset bool, stall time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.ResetRate > 0 && f.resetRNG.Float64() < f.cfg.ResetRate {
		f.stats.ConnResets++
		reset = true
	}
	if f.cfg.StallRate > 0 && f.stallRNG.Float64() < f.cfg.StallRate {
		f.stats.ReadStalls++
		stall = LiveStallFor
	}
	return reset, stall
}

// requestFate draws one request's fate: an injected handler stall
// and/or an injected panic.
func (f *LiveInjector) requestFate() (stall time.Duration, panics bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.HandlerStallRate > 0 && f.hstallRNG.Float64() < f.cfg.HandlerStallRate {
		f.stats.HandlerStalls++
		stall = f.cfg.HandlerStallFor
	}
	if f.cfg.PanicRate > 0 && f.panicRNG.Float64() < f.cfg.PanicRate {
		f.stats.HandlerPanics++
		panics = true
	}
	return stall, panics
}

// Listener wraps ln so each accepted connection carries its drawn
// fault fate. Layer it *under* the runtime's policed listener —
// rt.Listener(f.Listener(ln)) — so every connection the policy sees has
// its fate drawn in accept order, before the policy can refuse it; that
// keeps the draw sequence independent of the policy's decisions.
func (f *LiveInjector) Listener(ln net.Listener) net.Listener {
	return &faultListener{Listener: ln, f: f}
}

type faultListener struct {
	net.Listener
	f *LiveInjector
}

// Accept implements net.Listener, attaching the drawn fate to each
// connection.
func (l *faultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	reset, stall := l.f.connFate()
	if !reset && stall == 0 {
		return conn, nil
	}
	return &faultConn{Conn: conn, f: l.f, reset: reset, stall: stall}, nil
}

// faultConn applies a connection's predetermined fate on its first
// Read. The fate fields are touched only by the connection's serving
// goroutine (net/http reads a connection from one goroutine at a time).
type faultConn struct {
	net.Conn
	f     *LiveInjector
	reset bool
	stall time.Duration
}

// Read implements net.Conn, applying the injected stall and/or reset
// before the first real read.
func (c *faultConn) Read(p []byte) (int, error) {
	if c.stall > 0 {
		d := c.stall
		c.stall = 0
		c.f.sleep.Sleep(d)
	}
	if c.reset {
		c.reset = false
		_ = c.Conn.Close()
		return 0, ErrInjectedReset
	}
	return c.Conn.Read(p)
}

// Middleware wraps next with the handler fault classes: injected stalls
// (slept on the Sleeper, so they charge the bound container under
// rcruntime) and injected panics. Layer it *inside*
// rcruntime.Middleware — rt.Middleware(f.Middleware(mux)) — so panics
// are recovered and the stall's wall-clock is billed like any other
// handler work.
func (f *LiveInjector) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stall, panics := f.requestFate()
		if stall > 0 {
			f.sleep.Sleep(stall)
		}
		if panics {
			panic(injectedPanic)
		}
		next.ServeHTTP(w, r)
	})
}
