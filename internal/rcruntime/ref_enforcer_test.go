package rcruntime

import (
	"sync"
	"time"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

// refEnforcer is the map-based enforcer the package shipped before its
// window moved into the containers: a global snapshot table
// resnapshotted in full on every roll, a self-tuning prune sweep for
// destroyed containers, and a parked channel (plus a sleeping
// goroutine) per blocked wait. It is kept as the oracle of the
// differential test.
type refEnforcer struct {
	clock  Clock
	window time.Duration

	mu          sync.Mutex
	windowStart time.Time
	snapshots   map[*rc.Container]time.Duration
	waiters     map[*rc.Container][]chan struct{}
	pruneAt     int
}

const refMinPruneSize = 64

func newRef(clock Clock, window time.Duration) *refEnforcer {
	return &refEnforcer{
		clock:     clock,
		window:    window,
		snapshots: make(map[*rc.Container]time.Duration),
		waiters:   make(map[*rc.Container][]chan struct{}),
		pruneAt:   refMinPruneSize,
	}
}

func (e *refEnforcer) usage(c *rc.Container) time.Duration {
	return time.Duration(c.Usage().CPU())
}

func (e *refEnforcer) rollLocked(now time.Time) {
	if now.Sub(e.windowStart) < e.window {
		return
	}
	e.windowStart = now
	for c := range e.snapshots {
		if c.Destroyed() {
			delete(e.snapshots, c)
			continue
		}
		e.snapshots[c] = e.usage(c)
	}
	for c, ws := range e.waiters {
		for _, ch := range ws {
			close(ch)
		}
		delete(e.waiters, c)
	}
}

func (e *refEnforcer) overLimitLocked(c *rc.Container, now time.Time) *rc.Container {
	e.rollLocked(now)
	for p := c; p != nil; p = p.Parent() {
		l := p.Attributes().Limit
		if l <= 0 {
			continue
		}
		snap, ok := e.snapshots[p]
		if !ok {
			snap = e.usage(p)
			e.snapshots[p] = snap
		}
		// A Limit is a fraction of the parent's allocation: scale it by
		// every limited ancestor's, multiplied leaf to root.
		parentFrac := 1.0
		for q := p.Parent(); q != nil; q = q.Parent() {
			if ql := q.Attributes().Limit; ql > 0 {
				parentFrac *= ql
			}
		}
		if e.usage(p)-snap >= time.Duration(l*parentFrac*float64(e.window)) {
			return p
		}
	}
	return nil
}

func (e *refEnforcer) maybePruneLocked() {
	if len(e.snapshots) < e.pruneAt {
		return
	}
	for c := range e.snapshots {
		if c.Destroyed() {
			delete(e.snapshots, c)
		}
	}
	for c, ws := range e.waiters {
		if c.Destroyed() {
			for _, ch := range ws {
				close(ch)
			}
			delete(e.waiters, c)
		}
	}
	e.pruneAt = max(2*len(e.snapshots), refMinPruneSize)
}

func (e *refEnforcer) admit(c *rc.Container, maxWait time.Duration) (waited, ok bool) {
	var start time.Time
	started := false
	for {
		e.mu.Lock()
		now := e.clock.Now()
		if !started {
			start, started = now, true
		}
		e.maybePruneLocked()
		blocked := e.overLimitLocked(c, now)
		if blocked == nil {
			e.mu.Unlock()
			return waited, true
		}
		if maxWait >= 0 && now.Sub(start) >= maxWait {
			e.mu.Unlock()
			return waited, false
		}
		waited = true
		ch := make(chan struct{})
		e.waiters[blocked] = append(e.waiters[blocked], ch)
		wait := e.window - now.Sub(e.windowStart)
		if maxWait >= 0 {
			wait = min(wait, maxWait-now.Sub(start))
		}
		e.mu.Unlock()
		select {
		case <-ch:
		case <-e.sleepCh(wait):
		}
	}
}

func (e *refEnforcer) Charge(c *rc.Container, actual time.Duration) {
	if actual < 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !c.Destroyed() {
		c.ChargeCPU(rc.UserCPU, sim.Duration(actual), nil)
	}
}

func (e *refEnforcer) OverBudget(c *rc.Container) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c.Destroyed() {
		return false
	}
	return e.overLimitLocked(c, e.clock.Now()) != nil
}

func (e *refEnforcer) WindowRemaining() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return max(e.window-e.clock.Now().Sub(e.windowStart), 0)
}

func (e *refEnforcer) Sync(fn func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	fn()
}

func (e *refEnforcer) sleepCh(d time.Duration) <-chan struct{} {
	if d <= 0 {
		d = time.Millisecond
	}
	ch := make(chan struct{})
	go func() {
		e.clock.Sleep(d)
		close(ch)
	}()
	return ch
}
