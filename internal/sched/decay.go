package sched

import (
	"cmp"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

// decayHalfLife is the period of the usage decay: CPU usage halves once
// at every multiple of it, as 4.3BSD's schedcpu decays p_estcpu once per
// tick of a fixed period. 693 ms is τ·ln 2 for τ = 1 s, so usage ages at
// the rate of a continuous decay e^{−t/τ}, which matches the
// coarse-grained feel of the 4.3BSD scheduler.
const decayHalfLife = 693 * sim.Millisecond

// decayEpoch returns the decay epoch of now: how many half-lives have
// passed since time 0.
func decayEpoch(now sim.Time) uint32 { return uint32(now / sim.Time(decayHalfLife)) }

// decayed returns CPU usage that was ns nanoseconds as of decay epoch ep,
// read at epoch k ≥ ep: halved once per boundary in between. Catching up
// lazily is exact, since (x>>a)>>b == x>>(a+b): the value read at k does
// not depend on when, or how often, it was caught up before. A shift of
// 64 or more gives 0. Usage halves every half-life, so decayed usage
// stays below 2·decayHalfLife per processor and never overflows.
func decayed(ns uint64, ep, k uint32) uint64 { return ns >> (k - ep) }

// niceUnit is the usage offset one nice level is worth. Positive nice
// makes a principal look busier, so it yields CPU.
const niceUnit = 50 * sim.Millisecond

// DecayScheduler is the baseline process scheduler: each process is one
// resource principal; the runnable entity whose principal has the least
// decayed CPU usage runs next. Interrupt-level processing is charged to
// whatever principal was running (see kernel.CPU), reproducing the
// misaccounting of paper §3.2/§5.6.
type DecayScheduler struct {
	set entitySet
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

// key is the scheduling key at decay epoch k: lower runs first.
func (p *ProcPrincipal) key(k uint32) int64 {
	return int64(decayed(p.usage, p.ep, k)) + int64(p.Nice)*int64(niceUnit)
}

// Pick implements Scheduler: the runnable entity with the smallest
// principal key runs; ties break round-robin by least-recently-run, then
// by registration order (deterministic).
func (s *DecayScheduler) Pick(now sim.Time) *Entity {
	k := decayEpoch(now)
	var best *Entity
	var bestKey int64
	for _, e := range s.set.runnable {
		if e.onCPU {
			continue
		}
		key := e.Proc.key(k)
		if best == nil || less(cmp.Compare(key, bestKey), e, best) {
			best, bestKey = e, key
		}
	}
	if best != nil {
		best.lastRun = now
	}
	return best
}

// less orders two candidates whose keys compare as c (the sign of the
// first's key minus the second's): smaller key first; among equal keys,
// least-recently-run first, then registration order. Keys are exact, so
// this is a strict total order and the winner of a scan does not depend
// on the order of the candidates.
func less(c int, e, be *Entity) bool {
	if c != 0 {
		return c < 0
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
	k := decayEpoch(now)
	p := e.Proc
	p.usage, p.ep = decayed(p.usage, p.ep, k)+uint64(d), k
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
