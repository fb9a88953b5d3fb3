package sched

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"testing"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

// refScheduler is the container scheduler's decision path without its
// shortcuts: every evaluation walks each binding container's whole
// ancestor chain for limits and shares, recomputes the budgets and
// shares from the attributes, reads the weight from the attributes,
// halves every leaf's usage eagerly at each decay epoch boundary, one
// boundary at a time, compares keys with big-integer products, caches no
// entity's key and prunes in a pass of its own. It keeps its own eager limit window: a snapshot of each
// registered container's usage, taken at registration and re-taken for
// every container at each roll. TestPickMatchesReference drives it
// beside a ContainerScheduler over a twin container tree. The network entity net
// is classed by netPending, a list rebuilt at every call, and its
// resource binding, or its fallback when that is nil or destroyed; it
// records no scheduler binding.
type refScheduler struct {
	*ContainerScheduler
	// usage is each charged leaf's decayed CPU usage in nanoseconds as
	// of decay epoch ep.
	usage      map[*rc.Container]uint64
	ep         uint32
	snapshot   map[*rc.Container]sim.Duration
	net        *Entity
	netPending func() []*rc.Container
	// skipNetFallback plants a bug: the network entity never falls back.
	skipNetFallback bool
}

func newRefScheduler(s *ContainerScheduler) *refScheduler {
	return &refScheduler{
		ContainerScheduler: s,
		usage:              map[*rc.Container]uint64{},
		snapshot:           map[*rc.Container]sim.Duration{},
	}
}

// state registers c in the reference's window.
func (s *refScheduler) state(c *rc.Container) {
	if _, ok := s.snapshot[c]; !ok {
		s.snapshot[c] = c.Usage().CPU()
	}
}

// registerChain registers c and all its ancestors.
func (s *refScheduler) registerChain(c *rc.Container) {
	for p := c; p != nil; p = p.Parent() {
		s.state(p)
	}
}

// rollWindow starts a new window if the current one expired: every
// registered container's snapshot is re-taken, and destroyed ones are
// forgotten.
func (s *refScheduler) rollWindow(now sim.Time) {
	if now.Sub(s.windowStart) < DefaultWindow {
		return
	}
	for c := range s.snapshot {
		if c.Destroyed() {
			delete(s.snapshot, c)
			continue
		}
		s.snapshot[c] = c.Usage().CPU()
	}
	s.windowStart = now
}

// windowUsage returns the CPU consumed by c's subtree in the current
// window.
func (s *refScheduler) windowUsage(c *rc.Container) sim.Duration {
	return max(c.Usage().CPU()-s.snapshot[c], 0)
}

func (s *refScheduler) capBudget(c *rc.Container) sim.Duration {
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
	return sim.Duration(l * parentFrac * float64(DefaultWindow) * float64(s.Capacity))
}

func (s *refScheduler) effShare(c *rc.Container) float64 {
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

func (s *refScheduler) throttled(c *rc.Container) bool {
	for _, p := range c.Ancestors() {
		s.state(p)
		b := s.capBudget(p)
		if b >= 0 && s.windowUsage(p) >= b {
			return true
		}
	}
	return false
}

func (s *refScheduler) pathDeficit(c *rc.Container, now sim.Time) sim.Duration {
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

// age halves every leaf's usage once for each decay epoch boundary
// between the last one it crossed and now.
func (s *refScheduler) age(now sim.Time) {
	for k := uint32(int64(now) / int64(decayHalfLife)); s.ep < k; s.ep++ {
		for c, u := range s.usage {
			s.usage[c] = u / 2
		}
	}
}

// refCmp returns the sign of a − b for two keys, by big-integer cross
// products.
func refCmp(a, b key) int {
	x := new(big.Int).Mul(new(big.Int).SetUint64(a.u), new(big.Int).SetUint64(b.w))
	y := new(big.Int).Mul(new(big.Int).SetUint64(b.u), new(big.Int).SetUint64(a.w))
	return x.Cmp(y)
}

func (s *refScheduler) evaluate(e *Entity, now sim.Time) (schedClass, key) {
	cls := classNone
	bestDeficit := sim.Duration(0)
	var bestKey key
	found := false
	consider := func(c *rc.Container) {
		if c == nil || c.Destroyed() || s.throttled(c) {
			return
		}
		if d := s.pathDeficit(c, now); d > 0 {
			cls = min(cls, classGuarantee)
			bestDeficit = max(bestDeficit, d)
			return
		}
		k := key{s.usage[c], 1}
		if w := weight(c); w > 0 {
			cls = min(cls, classNormal)
			k.w = w
		} else {
			cls = min(cls, classIdle)
		}
		if !found || refCmp(k, bestKey) < 0 {
			bestKey, found = k, true
		}
	}
	if e == s.net {
		for _, c := range s.netPending() {
			consider(c)
		}
		consider(s.netResource(e))
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
		return cls, key{math.MaxUint64 - uint64(bestDeficit), 1}
	case classNormal, classIdle:
		return cls, bestKey
	}
	return classNone, key{}
}

// netResource is the container the network entity is classed by
// besides its pending work: its resource binding, or its fallback when
// the resource binding is nil or destroyed.
func (s *refScheduler) netResource(e *Entity) *rc.Container {
	if (e.Resource == nil || e.Resource.Destroyed()) && !s.skipNetFallback {
		return e.Fallback
	}
	return e.Resource
}

func (s *refScheduler) prune(e *Entity, now sim.Time) {
	keep := func(b bindingEntry) bool {
		if b.c.Destroyed() {
			return false
		}
		return s.DisablePruning || b.c == e.Resource || now.Sub(b.last) <= DefaultPruneAge
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

func (s *refScheduler) bind(e *Entity, c *rc.Container, now sim.Time) {
	e.Resource = c
	s.registerChain(c)
	if e == s.net {
		return
	}
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

func (s *refScheduler) charge(c *rc.Container, d sim.Duration, now sim.Time) {
	s.registerChain(c)
	s.age(now)
	s.usage[c] += uint64(d)
}

func (s *refScheduler) pick(now sim.Time) *Entity {
	s.rollWindow(now)
	s.age(now)
	s.sawThrottled = false
	var best *Entity
	bestClass := classNone
	var bestKey key
	for _, e := range s.set.runnable {
		if e.onCPU {
			continue
		}
		s.prune(e, now)
		cls, k := s.evaluate(e, now)
		if cls == classNone {
			s.sawThrottled = true
			continue
		}
		if best == nil || cls < bestClass || (cls == bestClass && less(refCmp(k, bestKey), e, best)) {
			best, bestClass, bestKey = e, cls, k
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

func (s *refScheduler) tickets(e *Entity) float64 {
	best := 0.0
	consider := func(c *rc.Container) {
		if c != nil && !c.Destroyed() && !s.throttled(c) {
			best = max(best, float64(weight(c)))
		}
	}
	switch {
	case e == s.net:
		for _, c := range s.netPending() {
			consider(c)
		}
		consider(s.netResource(e))
	case len(e.binding) == 0:
		consider(e.Fallback)
	default:
		for _, b := range e.binding {
			consider(b.c)
		}
	}
	return best
}

func (s *refScheduler) sliceBudget(c *rc.Container, now sim.Time) sim.Duration {
	s.rollWindow(now)
	budget := DefaultQuantum
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

// failer is the part of testing.T the differential test reports through,
// so that a planted-bug test can catch the failure.
type failer interface {
	Helper()
	Fatalf(format string, args ...any)
}

// differential drives a ContainerScheduler and a refScheduler through one
// seeded operation sequence over twin trees, failing at the first
// diverging decision.
type differential struct {
	t    failer
	rng  *sim.RNG
	fast twinWorld
	ref  twinWorld
	refs *refScheduler // the reference policy over ref's scheduler
	// pending lists the container indices the network entity has work
	// for, in the order of set, the fast world's pending set; drained
	// lists indices drained from it, most recent last.
	pending []int
	drained []int
	set     *PendingSet
	// staleDrain plants a bug: a drain leaves the set without dropping
	// the entity's cached key.
	staleDrain bool
	// unwindowed plants a bug: the fast world charges without its
	// scheduler's window.
	unwindowed bool
	fallback   map[int]bool
	// netFallbacks counts the checks at which the network entity's
	// resource binding was destroyed, so that it fell back.
	netFallbacks int
	now          sim.Time
	step         int
	// jumps makes some time steps seconds long, and a few longer than
	// 64 half-lives, so the run crosses many decay epoch boundaries.
	jumps bool
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
		if d.jumps && d.rng.Intn(2) == 0 {
			dt += sim.Duration(100+d.rng.Intn(3900)) * sim.Millisecond
			if d.rng.Intn(10) == 0 {
				dt += sim.Duration(30+d.rng.Intn(60)) * sim.Second
			}
		}
		d.now = d.now.Add(dt)
	case r < 40: // a thread serves a container
		e := d.rng.Intn(len(d.fast.ents))
		if i, ok := d.liveContainer(); ok {
			d.fast.s.Bind(d.fast.ents[e], d.fast.conts[i], d.now)
			d.refs.bind(d.ref.ents[e], d.ref.conts[i], d.now)
		}
	case r < 60: // a slice runs and is charged to the thread's resource binding
		e := d.rng.Intn(len(d.fast.ents))
		dur := sim.Duration(1 + d.rng.Intn(int(2*sim.Millisecond)))
		cf, cr := d.fast.ents[e].Resource, d.ref.ents[e].Resource
		w := d.fast.s.Window()
		if d.unwindowed {
			w = nil
		}
		cf.ChargeCPU(rc.UserCPU, dur, w)
		cr.ChargeCPU(rc.UserCPU, dur, nil)
		d.fast.s.Charge(d.fast.ents[e], cf, dur, d.now)
		d.refs.charge(cr, dur, d.now)
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
	case r < 83: // a container is released, often the network entity's resource binding
		i, ok := d.liveContainer()
		if d.set != nil && d.rng.Intn(2) == 0 {
			res := d.fast.ents[0].Resource
			i, ok = d.fast.index[res], !res.Destroyed()
		}
		if !ok || d.fallback[i] {
			return
		}
		d.both("release", func(w *twinWorld) error { return w.conts[i].Release() })
	case r < 88:
		d.addContainer()
	case r < 94: // the network thread's pending work changes
		if d.set != nil {
			for n := 1 + d.rng.Intn(3); n > 0; n-- {
				d.changePending()
			}
		}
	default: // a thread blocks or wakes
		e := d.rng.Intn(len(d.fast.ents))
		on := !d.fast.ents[e].Runnable()
		d.fast.s.SetRunnable(d.fast.ents[e], on)
		d.ref.s.SetRunnable(d.ref.ents[e], on)
	}
}

// changePending makes one change to the network entity's pending set, as
// the kernel's protocol queue does: a container gains a queue and is
// added at the end, one drains and leaves, or a drained one is added at
// the end again (a partly processed packet parked back, requeueFront).
func (d *differential) changePending() {
	switch d.rng.Intn(3) {
	case 0:
		if i := d.rng.Intn(len(d.fast.conts)); !slices.Contains(d.pending, i) {
			d.addPending(i)
		}
	case 1:
		if len(d.pending) == 0 {
			return
		}
		j := d.rng.Intn(len(d.pending))
		i := d.pending[j]
		d.pending = slices.Delete(d.pending, j, j+1)
		d.drained = append(d.drained, i)
		c := d.fast.conts[i]
		if !d.staleDrain {
			d.set.Remove(c)
			return
		}
		k := slices.Index(d.set.list, c)
		d.set.list = slices.Delete(d.set.list, k, k+1)
		if k < d.set.folded {
			d.set.folded--
		}
	case 2:
		if n := len(d.drained); n > 0 && !slices.Contains(d.pending, d.drained[n-1]) {
			d.addPending(d.drained[n-1])
			d.drained = d.drained[:n-1]
		}
	}
}

func (d *differential) addPending(i int) {
	d.pending = append(d.pending, i)
	d.set.Add(d.fast.conts[i])
}

// check compares one whole scheduling decision: the pick, the next
// release, every entity's class and key, every binding, and every
// container's slice budget. Keys are fractions, and two leaves with the
// same ratio represent one key two ways (4/2 and 2/1), so keys must be
// equal as numbers, exactly.
func (d *differential) check() {
	d.t.Helper()
	pf, pr := d.fast.s.Pick(d.now), d.refs.pick(d.now)
	if (pf == nil) != (pr == nil) || (pf != nil && pf.ID != pr.ID) {
		d.fatalf("picked %v, reference picked %v", pf, pr)
	}
	tf, okf := d.fast.s.NextRelease(d.now)
	tr, okr := d.ref.s.NextRelease(d.now)
	if tf != tr || okf != okr {
		d.fatalf("next release %v %v, reference %v %v", tf, okf, tr, okr)
	}
	if d.set != nil && d.fast.ents[0].Resource.Destroyed() {
		d.netFallbacks++
	}
	for i, ef := range d.fast.ents {
		er := d.ref.ents[i]
		cf, kf := d.fast.s.evaluate(ef, d.now, true)
		d.refs.prune(er, d.now)
		cr, kr := d.refs.evaluate(er, d.now)
		if cf != cr || refCmp(kf, kr) != 0 {
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
		if br := d.refs.sliceBudget(d.ref.conts[i], d.now); bf != br {
			d.fatalf("container %d: slice budget %v, reference %v", i, bf, br)
		}
	}
}

func newDifferential(t failer, seed int64) *differential {
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
	d.refs = newRefScheduler(d.ref.s)
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
			if network && w == &d.fast {
				d.set = NewPendingSet(ent)
			} else if network {
				d.refs.net = ent
				d.refs.netPending = func() []*rc.Container {
					var out []*rc.Container
					for _, i := range d.pending {
						out = append(out, w.conts[i])
					}
					return out
				}
			}
			w.s.Register(ent)
			w.s.SetRunnable(ent, true)
			w.ents = append(w.ents, ent)
		}
		d.fast.s.Bind(d.fast.ents[e], d.fast.conts[first], 0)
		d.refs.bind(d.ref.ents[e], d.ref.conts[first], 0)
	}
	return d
}

// TestPickMatchesReference is the differential test of the Pick path's
// shortcuts (chain flags and weight cached under the rc epoch, usage
// decayed lazily by shifts, the per-entity key cache, prune folded into
// evaluate and skipped while nothing can age out): over seeded random
// trees and operation sequences — binds, charges, attribute changes on
// leaves and ancestors, reparenting, releases, time steps across the
// window and the pruning age — every decision must match refScheduler
// exactly: the same pick, next release, classes, keys, bindings and
// slice budgets. The network entity's pending set changes by push, as the
// kernel's protocol queue changes it, and the reference rebuilds it; its
// resource binding is often released, so that it falls back.
func TestPickMatchesReference(t *testing.T) {
	fallbacks := 0
	for seed := int64(1); seed <= 150; seed++ {
		d := newDifferential(t, seed)
		d.run(300)
		fallbacks += d.netFallbacks
	}
	if fallbacks < 1000 {
		t.Fatalf("the network entity fell back at %d checks, want at least 1000", fallbacks)
	}
}

// divergence is what plantedFailer panics with on a failed check.
type divergence string

// plantedFailer turns the differential test's first failure into a
// divergence panic, so a planted-bug test can catch it.
type plantedFailer struct{}

func (plantedFailer) Helper() {}
func (plantedFailer) Fatalf(format string, args ...any) {
	panic(divergence(fmt.Sprintf(format, args...)))
}

// Planted bug: a drain that takes the key leaf out of the network
// entity's pending set without dropping its cached key keeps scheduling
// it by a leaf it no longer serves, and the differential test catches it.
func TestPickMatchesReferenceCatchesStaleDrain(t *testing.T) {
	wantDivergence(t, "drains that keep the cached key", func(d *differential) { d.staleDrain = true })
}

// Planted bug: charges that bypass the scheduler's window never move a
// container's snapshot past a roll, so its window usage reads 0 however
// much it is charged: caps stop throttling and guarantees read as
// unmet. The differential test, whose reference keeps its own eager
// window, catches it.
func TestPickMatchesReferenceCatchesUnwindowedCharge(t *testing.T) {
	wantDivergence(t, "charges outside the window", func(d *differential) { d.unwindowed = true })
}

// Planted bug: a scheduler whose network entity does not fall back when
// its resource binding is destroyed leaves it out of the class its
// fallback gives it, and the differential test catches it. The bug is
// planted in the reference, so the scheduler under test must apply the
// fallback to diverge from it.
func TestPickMatchesReferenceCatchesSkippedFallback(t *testing.T) {
	wantDivergence(t, "a reference that skips the network fallback", func(d *differential) { d.refs.skipNetFallback = true })
}

// wantDivergence requires the differential test, with the bug plant
// plants, to diverge for some seed.
func wantDivergence(t *testing.T, what string, plant func(*differential)) {
	t.Helper()
	for seed := int64(1); seed <= 150; seed++ {
		if msg := runPlanted(seed, plant); msg != "" {
			t.Logf("seed %d: %s", seed, msg)
			return
		}
	}
	t.Fatalf("no seed diverged with %s", what)
}

// runPlanted runs the differential test for seed with the bug plant
// plants and returns its first failure, or "" when every decision
// matched.
func runPlanted(seed int64, plant func(*differential)) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			div, ok := r.(divergence)
			if !ok {
				panic(r)
			}
			msg = string(div)
		}
	}()
	d := newDifferential(plantedFailer{}, seed)
	plant(d)
	d.run(300)
	return ""
}

// TestPickMatchesReferenceAcrossEpochs runs the differential test with
// time steps of seconds mixed in, and a few past 64 half-lives, so that
// every run crosses at least 50 decay epoch boundaries: the scheduler's
// lazy shifts must match the reference's eager halving at each of them.
func TestPickMatchesReferenceAcrossEpochs(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		d := newDifferential(t, seed)
		d.jumps = true
		d.run(400)
		if n := decayEpoch(d.now); n < 50 {
			t.Fatalf("seed %d: %d decay epoch boundaries in %v, want at least 50", seed, n, d.now)
		}
	}
}
