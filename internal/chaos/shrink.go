package chaos

import (
	"slices"

	"rescon/internal/fault"
	"rescon/internal/sim"
)

// emptyFaults is the zero fault schedule, for comparison and reset.
var emptyFaults fault.Config

// shrinkMaxRuns bounds the number of candidate executions one Shrink
// call may spend — a backstop against pathological plateaus, set far
// above what real failures need.
const shrinkMaxRuns = 200

// minHorizon is the shortest horizon Shrink will try: below a quarter
// second most scenarios cannot accumulate enough work to reach the
// interesting states, so shrinking further just produces flaky repros.
const minHorizon = 250 * sim.Millisecond

// shrinker is the greedy delta-debugging driver behind Shrink and
// ShrinkLive. Each scenario type supplies its ordered candidate passes;
// a pass derives candidates from cur and hands each to try, and a
// candidate that still fails the same way becomes cur.
type shrinker[S any] struct {
	cur     S
	fails   func(S) bool
	reduced bool
}

// try adopts cand as the current scenario if it still fails.
func (s *shrinker[S]) try(cand S) {
	if s.fails(cand) {
		s.cur, s.reduced = cand, true
	}
}

// edit tries the current scenario with one change applied to a copy.
func (s *shrinker[S]) edit(change func(*S)) {
	cand := s.cur
	change(&cand)
	s.try(cand)
}

// shrink runs passes over sc round after round until a whole round
// accepts no candidate, spending at most shrinkMaxRuns executions. A
// candidate fails the same way when its run records a violation of
// class; determinism failures only manifest across a double run, so
// that class runs candidates through checked, every other class through
// a single run.
func shrink[S any, R outcome](sc S, class string, run, checked func(S) (R, error), passes func(*shrinker[S])) S {
	if class == "determinism" {
		run = checked
	}
	runs := 0
	s := &shrinker[S]{cur: sc, fails: func(c S) bool {
		if runs >= shrinkMaxRuns {
			return false
		}
		runs++
		r, err := run(c)
		if err != nil {
			return false
		}
		vs, _ := r.verdict()
		return vs.FailsWith(class)
	}}
	for s.reduced = true; s.reduced; {
		s.reduced = false
		passes(s)
	}
	return s.cur
}

// Shrink greedily minimizes a failing scenario while preserving its
// failure class (see Classify): it repeatedly tries removing workloads,
// container subtrees, the crash plan and fault schedule, and halving
// workload sizes and the horizon, keeping every candidate that still
// fails the same way, until no single reduction does. The result is the
// minimal repro to ship in a bug report.
func Shrink(sc Scenario, class string) Scenario {
	return shrink(sc, class, Run, RunChecked, scenarioPasses)
}

// scenarioPasses proposes Shrink's candidates, in order.
func scenarioPasses(s *shrinker[Scenario]) {
	// Remove whole workloads, last-to-first so indices stay valid.
	for i := len(s.cur.Workloads) - 1; i >= 0; i-- {
		s.edit(func(c *Scenario) { c.Workloads = slices.Delete(slices.Clone(c.Workloads), i, i+1) })
	}
	// Halve workload sizes.
	for i := range s.cur.Workloads {
		if w := s.cur.Workloads[i]; w.Count > 1 || w.Rate > 100 {
			s.edit(func(c *Scenario) {
				c.Workloads = slices.Clone(c.Workloads)
				w := &c.Workloads[i]
				if w.Count > 1 {
					w.Count /= 2
				}
				if w.Rate > 100 {
					w.Rate /= 2
				}
			})
		}
	}
	// Remove container subtrees, last-to-first.
	for i := len(s.cur.Containers) - 1; i >= 0; i-- {
		if cand, ok := dropContainer(s.cur, i); ok {
			s.try(cand)
		}
	}
	// Strip scenario-level knobs.
	if s.cur.Crash != nil {
		s.edit(func(c *Scenario) { c.Crash = nil })
	}
	if s.cur.Faults != (emptyFaults) {
		s.edit(func(c *Scenario) { c.Faults = emptyFaults })
	}
	if s.cur.Policing {
		s.edit(func(c *Scenario) { c.Policing = false })
	}
	// Disarm the adaptive rebalancer — legal only when no mutation
	// requires it (a rebalance mutation without the spec fails
	// Validate, and the failure it plants obviously needs the
	// controller to exist).
	if s.cur.Rebalance != nil && !isRebalanceMutation(s.cur.Mutation) {
		s.edit(func(c *Scenario) { c.Rebalance = nil })
	}
	if s.cur.CPUs > 1 {
		s.edit(func(c *Scenario) { c.CPUs = 1 })
	}
	if s.cur.Horizon/2 >= minHorizon {
		s.edit(func(c *Scenario) { c.Horizon /= 2 })
	}
}

// dropContainer removes spec idx and its whole subtree, remapping the
// surviving specs' parent indices. It reports false when nothing
// changed (idx out of range).
func dropContainer(sc Scenario, idx int) (Scenario, bool) {
	if idx < 0 || idx >= len(sc.Containers) {
		return sc, false
	}
	drop := make(map[int]bool, len(sc.Containers))
	drop[idx] = true
	for i := idx + 1; i < len(sc.Containers); i++ {
		if p := sc.Containers[i].Parent; p >= 0 && drop[p] {
			drop[i] = true
		}
	}
	newIdx := make(map[int]int, len(sc.Containers))
	out := make([]ContainerSpec, 0, len(sc.Containers)-len(drop))
	for i, cs := range sc.Containers {
		if drop[i] {
			continue
		}
		newIdx[i] = len(out)
		out = append(out, cs)
	}
	for j := range out {
		if out[j].Parent >= 0 {
			out[j].Parent = newIdx[out[j].Parent]
		}
	}
	cand := sc
	cand.Containers = out
	return cand, true
}
