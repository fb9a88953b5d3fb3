package sched

import (
	"rescon/internal/rc"
	"rescon/internal/sim"
)

// LeafPolicy selects how time-share (normal-class) containers share the
// CPU left over by guarantees and caps. The paper positions containers
// as policy-agnostic (§4.3: "the container mechanism supports a large
// variety of scheduling models"); these are two of them.
type LeafPolicy int

const (
	// PolicyDecayUsage is the default: priority-weighted decayed-usage
	// time sharing, in the spirit of the 4.3BSD scheduler.
	PolicyDecayUsage LeafPolicy = iota
	// PolicyLottery is lottery scheduling [Waldspurger & Weihl, OSDI 94]:
	// each runnable entity holds tickets equal to the best weight among
	// its eligible binding containers, and a deterministic pseudo-random
	// draw picks the winner. Proportional share emerges statistically.
	PolicyLottery
)

// SetLeafPolicy selects the time-share policy; PolicyLottery draws from
// a deterministic stream seeded with seed.
func (s *ContainerScheduler) SetLeafPolicy(p LeafPolicy, seed int64) {
	s.policy = p
	s.rng = sim.NewRNG(seed)
}

// lotteryPick draws one entity from the normal-class candidates with
// probability proportional to its ticket count.
func (s *ContainerScheduler) lotteryPick(cands []*Entity, tickets []float64) *Entity {
	var total float64
	for _, t := range tickets {
		total += t
	}
	if total <= 0 {
		return cands[0]
	}
	draw := s.rng.Float64() * total
	for i, t := range tickets {
		draw -= t
		if draw < 0 {
			return cands[i]
		}
	}
	return cands[len(cands)-1]
}

// tickets returns the entity's ticket count: the largest weight among the
// eligible (live, unthrottled) containers it is classed by or falls back to.
func (s *ContainerScheduler) tickets(e *Entity, now sim.Time) float64 {
	best := 0.0
	consider := func(c *rc.Container) {
		if c == nil || c.Destroyed() {
			return
		}
		st := s.attrs(c)
		if st.chainCapped && s.throttled(c) {
			return
		}
		best = max(best, float64(st.weight))
	}
	if p := e.pending; p != nil {
		for _, c := range p.list {
			consider(c)
		}
		consider(e.Resource)
	} else {
		for _, b := range e.binding {
			consider(b.c)
		}
	}
	consider(e.fallback())
	return best
}
