package fault

import (
	"fmt"

	"rescon/internal/sim"
)

// Checker is a runtime invariant checker for fault-injection runs: it
// verifies that the simulation's accounting stays consistent while faults
// push the system into rarely exercised paths. Experiments enable it to
// fail fast on drift instead of silently producing wrong curves.
//
// Every invariant is a named check (WatchCheck), and its name is the
// failure class of its violations: a violation reads
// "fault: invariant violated at <time>: <name>: <description>". The only
// built-in is monotonic-clock: the engine's clock and fired-event count
// never move backwards between checks (event-heap ordering). The
// accounting invariants over a simulated kernel's containers and queues
// are registered by kernel.WatchInvariants.
type Checker struct {
	eng *sim.Engine

	// FailFast makes a violation panic immediately with the violation
	// text, which fails the enclosing test or experiment on the exact
	// event that corrupted state. Default true.
	FailFast bool

	checkSrcs []namedCheck

	lastNow   sim.Time
	lastFired uint64

	checks     uint64
	violations []string
	ticker     *sim.Ticker
}

// NewChecker returns a fail-fast checker bound to the engine, with the
// monotonic-clock check registered.
func NewChecker(eng *sim.Engine) *Checker {
	ch := &Checker{eng: eng, FailFast: true, lastNow: eng.Now(), lastFired: eng.Fired()}
	ch.MustWatchCheck("monotonic-clock", ch.checkClock)
	return ch
}

// namedCheck is one invariant: fn returns "" while the invariant holds,
// or a description of the violation.
type namedCheck struct {
	name string
	fn   func() string
}

// WatchCheck adds a named invariant, evaluated at every check. The
// function returns "" while the invariant holds and a violation
// description otherwise; the name prefixes the recorded violation and is
// its failure class, which consumers (e.g. the chaos harness's shrinker)
// read back. Checks run in registration order, the built-in
// monotonic-clock first. A duplicate name is rejected with an error —
// silently overwriting (or shadowing) an existing invariant would make
// the earlier registration unreportable, which is exactly the failure
// mode a checker exists to prevent.
func (ch *Checker) WatchCheck(name string, fn func() string) error {
	if name == "" {
		return fmt.Errorf("fault: WatchCheck with empty name")
	}
	if fn == nil {
		return fmt.Errorf("fault: WatchCheck %q with nil function", name)
	}
	for _, nc := range ch.checkSrcs {
		if nc.name == name {
			return fmt.Errorf("fault: duplicate check name %q", name)
		}
	}
	ch.checkSrcs = append(ch.checkSrcs, namedCheck{name: name, fn: fn})
	return nil
}

// MustWatchCheck is WatchCheck that panics on error, for call sites
// whose names are unique by construction.
func (ch *Checker) MustWatchCheck(name string, fn func() string) {
	if err := ch.WatchCheck(name, fn); err != nil {
		panic(err)
	}
}

// Start checks periodically until Stop. A period of 0 defaults to 10 ms
// of virtual time — fine enough to localize drift, coarse enough to be
// cheap.
func (ch *Checker) Start(period sim.Duration) {
	if period <= 0 {
		period = 10 * sim.Millisecond
	}
	ch.Stop()
	ch.ticker = ch.eng.Every(period, ch.Check)
}

// Stop cancels periodic checking.
func (ch *Checker) Stop() {
	if ch.ticker != nil {
		ch.ticker.Stop()
		ch.ticker = nil
	}
}

// Checks returns how many times Check has run.
func (ch *Checker) Checks() uint64 { return ch.checks }

// Violations returns the violations recorded so far (only reachable with
// FailFast disabled).
func (ch *Checker) Violations() []string { return ch.violations }

// Check runs every invariant once, against the current state, and
// records at most one violation per check.
func (ch *Checker) Check() {
	ch.checks++
	for _, nc := range ch.checkSrcs {
		if msg := nc.fn(); msg != "" {
			v := fmt.Sprintf("fault: invariant violated at %v: %s: %s", ch.eng.Now(), nc.name, msg)
			if ch.FailFast {
				panic(v)
			}
			ch.violations = append(ch.violations, v)
		}
	}
}

// checkClock is the monotonic-clock invariant. A reading that moved
// backwards is not adopted, so the next check compares against the
// last good one.
func (ch *Checker) checkClock() string {
	var msg string
	if now := ch.eng.Now(); now < ch.lastNow {
		msg = fmt.Sprintf("clock moved backwards: %v -> %v", ch.lastNow, now)
	} else {
		ch.lastNow = now
	}
	if fired := ch.eng.Fired(); fired < ch.lastFired {
		if msg == "" {
			msg = fmt.Sprintf("fired-event count decreased: %d -> %d", ch.lastFired, fired)
		}
	} else {
		ch.lastFired = fired
	}
	return msg
}
