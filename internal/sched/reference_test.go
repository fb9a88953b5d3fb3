package sched

import (
	"fmt"
	"math"
	"testing"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

// refScheduler is the container scheduler's decision path without its
// shortcuts: every evaluation walks each binding container's whole
// ancestor chain for limits and shares, recomputes the budgets and
// shares from the attributes, reads the weight from the attributes,
// computes every decay factor afresh and prunes in a pass of its own. It
// shares the embedded scheduler's window and registration state, and
// TestPickMatchesReference drives it beside a ContainerScheduler over a
// twin container tree.
type refScheduler struct{ *ContainerScheduler }

func (s refScheduler) capBudget(c *rc.Container) sim.Duration {
	l := c.Attributes().Limit
	if l <= 0 {
		return -1
	}
	parentFrac := 1.0
	for _, p := range c.Ancestors()[1:] {
		if pl := p.Attributes().Limit; pl > 0 {
			parentFrac *= pl
		}
	}
	return sim.Duration(l * parentFrac * float64(s.Window) * float64(s.Capacity))
}

func (s refScheduler) effShare(c *rc.Container) float64 {
	f := c.Attributes().Share
	if f <= 0 {
		return 0
	}
	for _, p := range c.Ancestors()[1:] {
		if sh := p.Attributes().Share; sh > 0 {
			f *= sh
		}
	}
	return f
}

func (s refScheduler) throttled(c *rc.Container) bool {
	for _, p := range c.Ancestors() {
		s.state(p)
		b := s.capBudget(p)
		if b >= 0 && s.windowUsage(p) >= b {
			return true
		}
	}
	return false
}

func (s refScheduler) pathDeficit(c *rc.Container, now sim.Time) sim.Duration {
	elapsed := now.Sub(s.windowStart)
	var max sim.Duration
	for _, p := range c.Ancestors() {
		s.state(p)
		sh := s.effShare(p)
		if sh <= 0 {
			continue
		}
		if d := sim.Duration(sh*float64(elapsed)*float64(s.Capacity)) - s.windowUsage(p); d > max {
			max = d
		}
	}
	return max
}

func (s refScheduler) decayed(c *rc.Container, now sim.Time) float64 {
	st := s.state(c)
	if now > st.lastDecay {
		st.decayed *= math.Exp(-now.Sub(st.lastDecay).Seconds() / decayTau.Seconds())
		st.lastDecay = now
	}
	return st.decayed
}

func (s refScheduler) evaluate(e *Entity, now sim.Time) (schedClass, float64) {
	cls := classNone
	bestDeficit := sim.Duration(0)
	bestKey := math.Inf(1)
	consider := func(c *rc.Container) {
		if c.Destroyed() || s.throttled(c) {
			return
		}
		if d := s.pathDeficit(c, now); d > 0 {
			cls = min(cls, classGuarantee)
			bestDeficit = max(bestDeficit, d)
			return
		}
		if w := weight(c); w > 0 {
			cls = min(cls, classNormal)
			bestKey = min(bestKey, s.decayed(c, now)/w)
		} else {
			cls = min(cls, classIdle)
			bestKey = min(bestKey, s.decayed(c, now))
		}
	}
	if e.DynamicBinding != nil {
		for _, c := range e.DynamicBinding() {
			if c != nil {
				consider(c)
			}
		}
		if e.Resource != nil {
			consider(e.Resource)
		}
	} else {
		if len(e.binding) == 0 {
			consider(e.Fallback)
		}
		for _, b := range e.binding {
			consider(b.c)
		}
	}
	switch cls {
	case classGuarantee:
		return cls, -bestDeficit.Seconds()
	case classNormal, classIdle:
		return cls, bestKey
	}
	return classNone, 0
}

func (s refScheduler) prune(e *Entity, now sim.Time) {
	keep := func(b bindingEntry) bool {
		if b.c.Destroyed() {
			return false
		}
		return s.DisablePruning || b.c == e.Resource || now.Sub(b.last) <= s.PruneAge
	}
	var kept []bindingEntry
	var newest bindingEntry
	for _, b := range e.binding {
		if b.c.Destroyed() {
			continue
		}
		if newest.c == nil || b.last > newest.last {
			newest = b
		}
		if keep(b) {
			kept = append(kept, b)
		}
	}
	if len(kept) == 0 && newest.c != nil {
		kept = append(kept, newest)
	}
	e.binding = kept
}

func (s refScheduler) bind(e *Entity, c *rc.Container, now sim.Time) {
	e.Resource = c
	s.registerChain(c)
	found := false
	for i := range e.binding {
		if e.binding[i].c == c {
			e.binding[i].last, found = now, true
		}
	}
	if !found {
		e.binding = append(e.binding, bindingEntry{c: c, last: now})
	}
	s.prune(e, now)
}

func (s refScheduler) charge(c *rc.Container, d sim.Duration, now sim.Time) {
	s.registerChain(c)
	s.decayed(c, now)
	s.state(c).decayed += d.Seconds()
}

func (s refScheduler) pick(now sim.Time) *Entity {
	s.rollWindow(now)
	s.sawThrottled = false
	var best *Entity
	bestClass := classNone
	var bestKey float64
	for _, e := range s.set.runnable {
		if e.onCPU {
			continue
		}
		s.prune(e, now)
		cls, key := s.evaluate(e, now)
		if cls == classNone {
			s.sawThrottled = true
			continue
		}
		if best == nil || cls < bestClass || (cls == bestClass && less(key, e, bestKey, best)) {
			best, bestClass, bestKey = e, cls, key
		}
	}
	if best != nil && bestClass == classNormal && s.policy == PolicyLottery {
		var cands []*Entity
		var tickets []float64
		for _, e := range s.set.runnable {
			if e.onCPU {
				continue
			}
			if cls, _ := s.evaluate(e, now); cls != classNormal {
				continue
			}
			if t := s.tickets(e); t > 0 {
				cands = append(cands, e)
				tickets = append(tickets, t)
			}
		}
		best = nil
		if len(cands) > 0 {
			best = s.lotteryPick(cands, tickets)
		}
	}
	if best != nil {
		best.lastRun = now
	}
	return best
}

func (s refScheduler) tickets(e *Entity) float64 {
	best := 0.0
	consider := func(c *rc.Container) {
		if c != nil && !c.Destroyed() && !s.throttled(c) {
			best = max(best, weight(c))
		}
	}
	switch {
	case e.DynamicBinding != nil:
		for _, c := range e.DynamicBinding() {
			consider(c)
		}
		consider(e.Resource)
	case len(e.binding) == 0:
		consider(e.Fallback)
	default:
		for _, b := range e.binding {
			consider(b.c)
		}
	}
	return best
}

func (s refScheduler) sliceBudget(c *rc.Container, now sim.Time) sim.Duration {
	s.rollWindow(now)
	budget := s.quantum
	for _, p := range c.Ancestors() {
		s.state(p)
		if b := s.capBudget(p); b >= 0 {
			budget = min(budget, b-s.windowUsage(p))
		}
	}
	return max(budget, 0)
}

// twinWorld is one of the two identically built worlds of the
// differential test: a scheduler, its containers and its entities, both
// indexed the same way in either world.
type twinWorld struct {
	s     *ContainerScheduler
	conts []*rc.Container
	ents  []*Entity
	index map[*rc.Container]int
}

func (w *twinWorld) add(parent int, class rc.Class, attrs rc.Attributes) error {
	var p *rc.Container
	if parent >= 0 {
		p = w.conts[parent]
	}
	c, err := rc.New(p, class, fmt.Sprintf("c%d", len(w.conts)), attrs)
	if err != nil {
		return err
	}
	w.index[c] = len(w.conts)
	w.conts = append(w.conts, c)
	return nil
}

// differential drives a ContainerScheduler and a refScheduler through one
// seeded operation sequence over twin trees, failing at the first
// diverging decision.
type differential struct {
	t        *testing.T
	rng      *sim.RNG
	fast     twinWorld
	ref      twinWorld
	pending  []int // container indices the network entity has work for
	fallback map[int]bool
	now      sim.Time
	step     int
}

func (d *differential) fatalf(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("step %d at %v: %s", d.step, d.now, fmt.Sprintf(format, args...))
}

func (d *differential) randAttrs(class rc.Class) rc.Attributes {
	var a rc.Attributes
	a.Priority = d.rng.Intn(5)
	if class == rc.FixedShare {
		if d.rng.Intn(2) == 0 {
			a.Limit = 0.05 + 0.95*d.rng.Float64()
		}
		if d.rng.Intn(2) == 0 {
			a.Share = 0.01 + 0.4*d.rng.Float64()
			if a.Limit > 0 && a.Share > a.Limit {
				a.Share = a.Limit
			}
		}
	}
	return a
}

// both applies one operation to the two worlds and requires the same
// outcome.
func (d *differential) both(what string, op func(w *twinWorld) error) {
	d.t.Helper()
	ef, er := op(&d.fast), op(&d.ref)
	if (ef == nil) != (er == nil) {
		d.fatalf("%s: errors diverge: %v vs %v", what, ef, er)
	}
}

// addContainer adds a random container under a random live fixed-share
// parent (or at top level), keeping the tree within depth 4.
func (d *differential) addContainer() {
	parent := -1
	if n := len(d.fast.conts); n > 0 && d.rng.Intn(4) != 0 {
		i := d.rng.Intn(n)
		if c := d.fast.conts[i]; c.Class() == rc.FixedShare && !c.Destroyed() && c.Depth() < 3 {
			parent = i
		}
	}
	class := rc.TimeShare
	if d.rng.Intn(2) == 0 {
		class = rc.FixedShare
	}
	attrs := d.randAttrs(class)
	d.both("add", func(w *twinWorld) error { return w.add(parent, class, attrs) })
}

func (d *differential) liveContainer() (int, bool) {
	i := d.rng.Intn(len(d.fast.conts))
	return i, !d.fast.conts[i].Destroyed()
}

func (d *differential) run(steps int) {
	for d.step = 0; d.step < steps; d.step++ {
		d.op()
		d.check()
	}
}

func (d *differential) op() {
	switch r := d.rng.Intn(100); {
	case r < 20: // time passes: mostly within a window, sometimes past it or the pruning age
		dt := sim.Duration(d.rng.Intn(int(3 * sim.Millisecond)))
		switch d.rng.Intn(10) {
		case 0:
			dt += DefaultWindow
		case 1:
			dt += DefaultPruneAge
		}
		d.now = d.now.Add(dt)
	case r < 40: // a thread serves a container
		e := d.rng.Intn(len(d.fast.ents))
		if i, ok := d.liveContainer(); ok {
			d.fast.s.Bind(d.fast.ents[e], d.fast.conts[i], d.now)
			refScheduler{d.ref.s}.bind(d.ref.ents[e], d.ref.conts[i], d.now)
		}
	case r < 60: // a slice runs and is charged to the thread's resource binding
		e := d.rng.Intn(len(d.fast.ents))
		dur := sim.Duration(1 + d.rng.Intn(int(2*sim.Millisecond)))
		cf, cr := d.fast.ents[e].Resource, d.ref.ents[e].Resource
		cf.ChargeCPU(rc.UserCPU, dur)
		cr.ChargeCPU(rc.UserCPU, dur)
		d.fast.s.Charge(d.fast.ents[e], cf, dur, d.now)
		refScheduler{d.ref.s}.charge(cr, dur, d.now)
	case r < 72: // attributes change, on a leaf or an ancestor
		i, ok := d.liveContainer()
		if !ok {
			return
		}
		attrs := d.randAttrs(d.fast.conts[i].Class())
		d.both("set attributes", func(w *twinWorld) error { return w.conts[i].SetAttributes(attrs) })
	case r < 78: // a container moves, or detaches (p == i)
		i, ok := d.liveContainer()
		p, pok := d.liveContainer()
		if d.rng.Intn(4) == 0 {
			p = i
		}
		if !ok || !pok || d.fallback[i] {
			return
		}
		d.both("set parent", func(w *twinWorld) error {
			if p == i {
				return w.conts[i].SetParent(nil)
			}
			return w.conts[i].SetParent(w.conts[p])
		})
	case r < 83: // a container is released
		i, ok := d.liveContainer()
		if !ok || d.fallback[i] {
			return
		}
		d.both("release", func(w *twinWorld) error { return w.conts[i].Release() })
	case r < 88:
		d.addContainer()
	case r < 94: // the network thread's pending work changes
		d.pending = d.pending[:0]
		for n := d.rng.Intn(4); n > 0; n-- {
			d.pending = append(d.pending, d.rng.Intn(len(d.fast.conts)))
		}
	default: // a thread blocks or wakes
		e := d.rng.Intn(len(d.fast.ents))
		on := !d.fast.ents[e].Runnable()
		d.fast.s.SetRunnable(d.fast.ents[e], on)
		d.ref.s.SetRunnable(d.ref.ents[e], on)
	}
}

// check compares one whole scheduling decision: the pick, the next
// release, every entity's class and key, every binding, and every
// container's slice budget.
func (d *differential) check() {
	d.t.Helper()
	pf, pr := d.fast.s.Pick(d.now), refScheduler{d.ref.s}.pick(d.now)
	if (pf == nil) != (pr == nil) || (pf != nil && pf.ID != pr.ID) {
		d.fatalf("picked %v, reference picked %v", pf, pr)
	}
	tf, okf := d.fast.s.NextRelease(d.now)
	tr, okr := d.ref.s.NextRelease(d.now)
	if tf != tr || okf != okr {
		d.fatalf("next release %v %v, reference %v %v", tf, okf, tr, okr)
	}
	for i, ef := range d.fast.ents {
		er := d.ref.ents[i]
		cf, kf := d.fast.s.evaluate(ef, d.now, true)
		refScheduler{d.ref.s}.prune(er, d.now)
		cr, kr := refScheduler{d.ref.s}.evaluate(er, d.now)
		if cf != cr || math.Float64bits(kf) != math.Float64bits(kr) {
			d.fatalf("entity %d: class %d key %v, reference class %d key %v", i, cf, kf, cr, kr)
		}
		if len(ef.binding) != len(er.binding) {
			d.fatalf("entity %d: binding of %d, reference %d", i, len(ef.binding), len(er.binding))
		}
		for j, b := range ef.binding {
			if rb := er.binding[j]; d.fast.index[b.c] != d.ref.index[rb.c] || b.last != rb.last {
				d.fatalf("entity %d: binding entry %d differs", i, j)
			}
		}
	}
	for i, c := range d.fast.conts {
		bf := d.fast.s.SliceBudget(c, d.now)
		if br := (refScheduler{d.ref.s}).sliceBudget(d.ref.conts[i], d.now); bf != br {
			d.fatalf("container %d: slice budget %v, reference %v", i, bf, br)
		}
	}
}

func newDifferential(t *testing.T, seed int64) *differential {
	d := &differential{t: t, rng: sim.NewRNG(seed), fallback: map[int]bool{}}
	capacity := 1 + d.rng.Intn(2)
	lottery := d.rng.Intn(3) == 0
	noPrune := d.rng.Intn(8) == 0
	for _, w := range []*twinWorld{&d.fast, &d.ref} {
		w.s = NewContainerScheduler()
		w.s.Capacity = capacity
		w.s.DisablePruning = noPrune
		if lottery {
			w.s.SetLeafPolicy(PolicyLottery, seed)
		}
		w.index = map[*rc.Container]int{}
	}
	for n := 6 + d.rng.Intn(14); n > 0; n-- {
		d.addContainer()
	}
	nEnts := 2 + d.rng.Intn(5)
	for e := 0; e < nEnts; e++ {
		fb := len(d.fast.conts)
		d.fallback[fb] = true
		prio := d.rng.Intn(3)
		d.both("fallback", func(w *twinWorld) error {
			return w.add(-1, rc.TimeShare, rc.Attributes{Priority: prio})
		})
		first, _ := d.liveContainer()
		network := e == 0 && d.rng.Intn(2) == 0
		for _, w := range []*twinWorld{&d.fast, &d.ref} {
			ent := &Entity{ID: uint64(e + 1), Fallback: w.conts[fb]}
			if network {
				var buf []*rc.Container
				ent.DynamicBinding = func() []*rc.Container {
					buf = buf[:0]
					for _, i := range d.pending {
						buf = append(buf, w.conts[i])
					}
					return buf
				}
			}
			w.s.Register(ent)
			w.s.SetRunnable(ent, true)
			w.ents = append(w.ents, ent)
		}
		d.fast.s.Bind(d.fast.ents[e], d.fast.conts[first], 0)
		refScheduler{d.ref.s}.bind(d.ref.ents[e], d.ref.conts[first], 0)
	}
	return d
}

// TestPickMatchesReference is the differential test of the Pick path's
// shortcuts (chain flags and weight cached under the rc epoch, the
// two-slot decay memo, prune folded into evaluate): over seeded random
// trees and operation sequences — binds, charges, attribute changes on
// leaves and ancestors, reparenting, releases, time steps across the
// window and the pruning age — every decision must match refScheduler
// bit for bit.
func TestPickMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		newDifferential(t, seed).run(300)
	}
}
