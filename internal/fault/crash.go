package fault

import (
	"errors"

	"rescon/internal/sim"
)

// ErrCrashPlan is returned by StartCrasher for an unusable crash plan
// (non-positive MTBF).
var ErrCrashPlan = errors.New("fault: CrashPlan.MTBF must be positive")

// CrashPlan configures deterministic crash-and-restart cycles for a
// server worker: the worker stays up for an exponentially distributed
// interval with mean MTBF, crashes, and is restarted after a fixed
// Downtime — the classic fail-stop-and-recover model.
type CrashPlan struct {
	// MTBF is the mean time between crashes. Required.
	MTBF sim.Duration
	// Downtime is how long the worker stays down before restart.
	// Default 100 ms.
	Downtime sim.Duration
}

const labelCrash = 0xFA17C8A5

// Crasher drives one worker's crash schedule. The crash times come from
// an RNG stream forked off the engine seed, so the schedule is byte-
// identical across runs with the same seed.
type Crasher struct {
	eng      *sim.Engine
	rng      *sim.RNG
	plan     CrashPlan
	crash    func()
	restart  func()
	crashes  uint64
	restarts uint64
	stopped  bool
}

// StartCrasher begins the crash schedule: after each up-interval the
// crash callback runs (tear the worker down), and Downtime later the
// restart callback runs (bring a fresh worker up). A plan without a
// positive MTBF is a configuration error, reported as ErrCrashPlan
// rather than a panic so harnesses that randomize plans surface it as a
// finding.
func StartCrasher(eng *sim.Engine, plan CrashPlan, crash, restart func()) (*Crasher, error) {
	if plan.MTBF <= 0 {
		return nil, ErrCrashPlan
	}
	if plan.Downtime <= 0 {
		plan.Downtime = 100 * sim.Millisecond
	}
	c := &Crasher{
		eng:     eng,
		rng:     eng.Rand().Fork(labelCrash),
		plan:    plan,
		crash:   crash,
		restart: restart,
	}
	c.armCrash()
	return c, nil
}

func (c *Crasher) armCrash() {
	c.eng.After(c.rng.Exp(c.plan.MTBF), func() {
		if c.stopped {
			return
		}
		c.crashes++
		c.crash()
		c.eng.After(c.plan.Downtime, func() {
			if c.stopped {
				return
			}
			c.restarts++
			c.restart()
			c.armCrash()
		})
	})
}

// Crashes returns how many crashes have fired.
func (c *Crasher) Crashes() uint64 { return c.crashes }

// Restarts returns how many restarts have completed.
func (c *Crasher) Restarts() uint64 { return c.restarts }

// Stop ends the schedule; a worker currently down stays down.
func (c *Crasher) Stop() { c.stopped = true }
