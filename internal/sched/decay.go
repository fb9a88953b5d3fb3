package sched

import (
	"math"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

// decayTau is the time constant of the exponential usage decay: usage
// observed decayTau ago counts for 1/e of fresh usage. One second matches
// the coarse-grained feel of the 4.3BSD scheduler.
const decayTau = sim.Second

// niceUnit is the usage offset one nice level is worth, in decayed
// seconds. Positive nice makes a principal look busier, so it yields CPU.
const niceUnit = 0.05

// DecayScheduler is the baseline process scheduler: each process is one
// resource principal; the runnable entity whose principal has the least
// decayed CPU usage runs next. Interrupt-level processing is charged to
// whatever principal was running (see kernel.CPU), reproducing the
// misaccounting of paper §3.2/§5.6.
type DecayScheduler struct {
	set   entitySet
	decay decayMemo
}

// NewDecayScheduler returns a baseline scheduler.
func NewDecayScheduler() *DecayScheduler {
	return &DecayScheduler{}
}

// Register implements Scheduler.
func (s *DecayScheduler) Register(e *Entity) {
	if e.Proc == nil {
		panic("sched: DecayScheduler entity without a process principal")
	}
	s.set.register(e)
}

// Unregister implements Scheduler.
func (s *DecayScheduler) Unregister(e *Entity) { s.set.unregister(e) }

// SetRunnable implements Scheduler.
func (s *DecayScheduler) SetRunnable(e *Entity, runnable bool) { s.set.setRunnable(e, runnable) }

// decayMemo memoises the decay factors of the last two intervals,
// newest first. The decays of one Pick mostly share one of two
// intervals: the principals were last decayed together, except the one
// just charged. The same interval always gives the same factor, so the
// memo changes no result.
type decayMemo struct {
	dt     [2]sim.Duration
	factor [2]float64
}

// of returns the decay factor of an interval dt > 0.
func (m *decayMemo) of(dt sim.Duration) float64 {
	switch dt {
	case m.dt[0]:
		return m.factor[0]
	case m.dt[1]:
		return m.factor[1]
	}
	f := math.Exp(-dt.Seconds() / decayTau.Seconds())
	m.dt[0], m.dt[1] = dt, m.dt[0]
	m.factor[0], m.factor[1] = f, m.factor[0]
	return f
}

func (p *ProcPrincipal) decay(now sim.Time, m *decayMemo) {
	if now <= p.lastDecay {
		return
	}
	p.decayed *= m.of(now.Sub(p.lastDecay))
	p.lastDecay = now
}

// key is the scheduling key: lower runs first.
func (p *ProcPrincipal) key(now sim.Time, m *decayMemo) float64 {
	p.decay(now, m)
	return p.decayed + float64(p.Nice)*niceUnit
}

// Pick implements Scheduler: the runnable entity with the smallest
// principal key runs; ties break round-robin by least-recently-run, then
// by registration order (deterministic).
func (s *DecayScheduler) Pick(now sim.Time) *Entity {
	var best *Entity
	var bestKey float64
	for _, e := range s.set.runnable {
		if e.onCPU {
			continue
		}
		k := e.Proc.key(now, &s.decay)
		if best == nil || less(k, e, bestKey, best) {
			best, bestKey = e, k
		}
	}
	if best != nil {
		best.lastRun = now
	}
	return best
}

// less orders (key, entity) pairs: smaller key first; among near-equal
// keys, least-recently-run first, then registration order.
func less(k float64, e *Entity, bk float64, be *Entity) bool {
	const eps = 1e-12
	if k < bk-eps {
		return true
	}
	if k > bk+eps {
		return false
	}
	if e.lastRun != be.lastRun {
		return e.lastRun < be.lastRun
	}
	return e.seq < be.seq
}

// Charge implements Scheduler: usage lands on the entity's process
// principal; the container argument is ignored — the baseline system has
// no container principals.
func (s *DecayScheduler) Charge(e *Entity, _ *rc.Container, d sim.Duration, now sim.Time) {
	p := e.Proc
	p.decay(now, &s.decay)
	p.decayed += d.Seconds()
	p.total += d
}

// Bind implements Scheduler as a no-op: the baseline has no scheduler
// bindings.
func (s *DecayScheduler) Bind(e *Entity, c *rc.Container, now sim.Time) { e.Resource = c }

// ResetBinding implements Scheduler as a no-op.
func (s *DecayScheduler) ResetBinding(*Entity) {}

// NextRelease implements Scheduler: the baseline never throttles.
func (s *DecayScheduler) NextRelease(sim.Time) (sim.Time, bool) { return 0, false }

// RunnableCount implements Scheduler: the current run-queue depth.
func (s *DecayScheduler) RunnableCount() int { return s.set.runnableCount() }
