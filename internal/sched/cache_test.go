package sched

import (
	"testing"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

// The tests below plant one stale-cache scenario per input that must
// invalidate an entity's cached class and key (see
// ContainerScheduler.evaluate). Each builds two entities, fills their
// caches with a Pick, applies the input, and requires the pick a fresh
// evaluation makes, which a stale cache gets wrong.

func cacheLeaf(prio int) *rc.Container {
	return rc.MustNew(nil, rc.TimeShare, "leaf", rc.Attributes{Priority: prio})
}

// cacheEntity registers a runnable entity bound to leaves, in order, at
// now; the last leaf is its resource binding.
func cacheEntity(s *ContainerScheduler, id uint64, now sim.Time, leaves ...*rc.Container) *Entity {
	e := &Entity{ID: id}
	s.Register(e)
	for _, c := range leaves {
		s.Bind(e, c, now)
	}
	s.SetRunnable(e, true)
	return e
}

// pickFilling picks at now, requires want, and requires every entity's
// key to be cached afterwards, so the input that follows meets a full
// cache.
func pickFilling(t *testing.T, s *ContainerScheduler, now sim.Time, want *Entity, ents ...*Entity) {
	t.Helper()
	wantPick(t, s, now, want)
	for _, e := range ents {
		if e.keyEpoch != s.epoch {
			t.Fatalf("%v: key not cached after Pick", e)
		}
	}
}

func wantPick(t *testing.T, s *ContainerScheduler, now sim.Time, want *Entity) {
	t.Helper()
	if got := s.Pick(now); got != want {
		t.Fatalf("Pick at %v = %v, want %v", now, got, want)
	}
}

func TestCacheArgminLeafCharged(t *testing.T) {
	s := NewContainerScheduler()
	a1, b1 := cacheLeaf(1), cacheLeaf(1)
	a := cacheEntity(s, 1, 0, a1)
	b := cacheEntity(s, 2, 0, b1)
	s.Charge(b, b1, 10*sim.Millisecond, 0)
	pickFilling(t, s, 0, a, a, b)
	s.Charge(a, a1, 50*sim.Millisecond, 0)
	wantPick(t, s, 0, b)
}

func TestCacheNonArgminPriorityRaised(t *testing.T) {
	s := NewContainerScheduler()
	a1, a2, b1 := cacheLeaf(1), cacheLeaf(1), cacheLeaf(1)
	a := cacheEntity(s, 1, 0, a1, a2)
	b := cacheEntity(s, 2, 0, b1)
	s.Charge(a, a1, 10*sim.Millisecond, 0)
	s.Charge(a, a2, 40*sim.Millisecond, 0)
	s.Charge(b, b1, 5*sim.Millisecond, 0)
	pickFilling(t, s, 0, b, a, b)
	// a2's key falls from 40 ms to 4 ms per unit weight, below b's 5 ms.
	if err := a2.SetAttributes(rc.Attributes{Priority: 10}); err != nil {
		t.Fatal(err)
	}
	wantPick(t, s, 0, a)
}

func TestCacheOnlyNormalLeafReleased(t *testing.T) {
	s := NewContainerScheduler()
	idle, normal, b1 := cacheLeaf(0), cacheLeaf(1), cacheLeaf(1)
	a := cacheEntity(s, 1, 0, idle, normal)
	b := cacheEntity(s, 2, 0, b1)
	s.Charge(b, b1, 10*sim.Millisecond, 0)
	pickFilling(t, s, 0, a, a, b)
	// a is left with its idle-class leaf only.
	if err := normal.Release(); err != nil {
		t.Fatal(err)
	}
	wantPick(t, s, 0, b)
}

func TestCachePruneDeadlinePassed(t *testing.T) {
	s := NewContainerScheduler()
	old, cur, b1 := cacheLeaf(1), cacheLeaf(1), cacheLeaf(1)
	t1 := sim.Time(10 * sim.Millisecond)
	a := cacheEntity(s, 1, 0, old)
	s.Bind(a, cur, t1)
	b := cacheEntity(s, 2, 0, b1)
	s.Charge(a, cur, 20*sim.Millisecond, t1)
	s.Charge(b, b1, 10*sim.Millisecond, t1)
	pickFilling(t, s, t1, a, a, b)
	// old, the zero-usage leaf that gave a its key, ages out of a's
	// binding; cur's usage is above b's.
	now := sim.Time(DefaultPruneAge + sim.Millisecond) // old was bound at 0
	wantPick(t, s, now, b)
	if len(a.binding) != 1 || a.binding[0].c != cur {
		t.Fatalf("binding %v after the pruning age, want only the resource binding", a.Binding())
	}
}

func TestCacheEpochBoundary(t *testing.T) {
	s := NewContainerScheduler()
	a1, b1, c := cacheLeaf(1), cacheLeaf(1), cacheLeaf(1)
	a := cacheEntity(s, 1, 0, a1)
	b := cacheEntity(s, 2, 0, b1)
	s.Charge(a, a1, 10*sim.Millisecond, 0)
	s.Charge(b, b1, 12*sim.Millisecond, 0)
	pickFilling(t, s, 0, a, a, b)
	// One half-life on, a1 has decayed to 5 ms and b1 to 6 ms, 7 ms
	// after a charge of 1 ms. a's cached key, read before the boundary,
	// is still 10 ms, above c's 8 ms, which Bind folds into it; reused,
	// it would key a at 8 ms and b would run. (a1 is bound again first,
	// so that it does not age out.)
	t1 := sim.Time(decayHalfLife)
	s.Charge(b, b1, sim.Millisecond, t1)
	s.Charge(a, c, 8*sim.Millisecond, t1)
	s.Bind(a, a1, t1)
	s.Bind(a, c, t1)
	wantPick(t, s, t1, a)
}

func TestCacheBindFreshLeaf(t *testing.T) {
	s := NewContainerScheduler()
	a1, b1 := cacheLeaf(1), cacheLeaf(1)
	a := cacheEntity(s, 1, 0, a1)
	b := cacheEntity(s, 2, 0, b1)
	s.Charge(a, a1, 20*sim.Millisecond, 0)
	s.Charge(b, b1, 10*sim.Millisecond, 0)
	pickFilling(t, s, 0, b, a, b)
	s.Bind(a, cacheLeaf(1), 0)
	if a.keyEpoch != s.epoch {
		t.Fatal("Bind of an uncapped leaf dropped the cached key instead of folding the leaf in")
	}
	wantPick(t, s, 0, a)
}

// pendingEntity registers a runnable entity classed by a pending set of
// leaves, in order, with resource binding res.
func pendingEntity(s *ContainerScheduler, id uint64, res *rc.Container, leaves ...*rc.Container) (*Entity, *PendingSet) {
	e := &Entity{ID: id}
	set := NewPendingSet(e)
	for _, c := range leaves {
		set.Add(c)
	}
	s.Register(e)
	s.Bind(e, res, 0)
	s.SetRunnable(e, true)
	return e, set
}

func TestCachePendingAdd(t *testing.T) {
	s := NewContainerScheduler()
	res, c1, a1, b1 := cacheLeaf(1), cacheLeaf(1), cacheLeaf(1), cacheLeaf(1)
	b := cacheEntity(s, 1, 0, b1)
	a, set := pendingEntity(s, 2, res, c1)
	s.Charge(a, res, 100*sim.Millisecond, 0)
	s.Charge(a, c1, 100*sim.Millisecond, 0)
	s.Charge(b, b1, 50*sim.Millisecond, 0)
	pickFilling(t, s, 0, b, a, b)
	set.Add(a1) // never charged: key 0
	wantPick(t, s, 0, a)
}

func TestCachePendingKeyLeafDrained(t *testing.T) {
	s := NewContainerScheduler()
	res, a1, c1, b1 := cacheLeaf(1), cacheLeaf(1), cacheLeaf(1), cacheLeaf(1)
	b := cacheEntity(s, 1, 0, b1)
	a, set := pendingEntity(s, 2, res, a1, c1)
	s.Charge(a, res, 100*sim.Millisecond, 0)
	s.Charge(a, a1, 1*sim.Millisecond, 0)
	s.Charge(a, c1, 100*sim.Millisecond, 0)
	s.Charge(b, b1, 50*sim.Millisecond, 0)
	pickFilling(t, s, 0, a, a, b)
	set.Remove(a1)
	wantPick(t, s, 0, b)
}

// The idle leaf gives the network entity its key and the normal leaf its
// class; once the normal leaf drains, the entity is in the idle class.
func TestCachePendingOnlyNormalLeafDrained(t *testing.T) {
	s := NewContainerScheduler()
	idle, n1, b1 := cacheLeaf(0), cacheLeaf(1), cacheLeaf(1)
	b := cacheEntity(s, 1, 0, b1)
	a, set := pendingEntity(s, 2, idle, n1)
	s.Charge(a, idle, 1*sim.Millisecond, 0)
	s.Charge(a, n1, 100*sim.Millisecond, 0)
	s.Charge(b, b1, 50*sim.Millisecond, 0)
	pickFilling(t, s, 0, a, a, b)
	set.Remove(n1)
	wantPick(t, s, 0, b)
}
