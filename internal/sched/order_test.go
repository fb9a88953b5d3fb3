package sched

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

// candidate is one scan candidate of the order property tests: a key and
// the entity whose lastRun and seq break ties.
type candidate[K any] struct {
	k K
	e *Entity
}

// orderViolation returns the first violation of a strict weak order by
// Pick's comparison (cmpKey on the keys, then less) over cs, or "".
func orderViolation[K any](cs []candidate[K], cmpKey func(a, b K) int) string {
	lt := func(a, b candidate[K]) bool { return less(cmpKey(a.k, b.k), a.e, b.e) }
	incomparable := func(a, b candidate[K]) bool { return !lt(a, b) && !lt(b, a) }
	show := func(c candidate[K]) string { return fmt.Sprintf("(%v, %v, %d)", c.k, c.e.lastRun, c.e.seq) }
	for _, a := range cs {
		if lt(a, a) {
			return "not irreflexive: " + show(a)
		}
		for _, b := range cs {
			if lt(a, b) && lt(b, a) {
				return "not asymmetric: " + show(a) + " " + show(b)
			}
			for _, c := range cs {
				if lt(a, b) && lt(b, c) && !lt(a, c) {
					return "not transitive: " + show(a) + " < " + show(b) + " < " + show(c)
				}
				if incomparable(a, b) && incomparable(b, c) && !incomparable(a, c) {
					return "incomparability not transitive: " + show(a) + " " + show(b) + " " + show(c)
				}
			}
		}
	}
	return ""
}

// shuffled returns a random permutation of s.
func shuffled[T any](rng *sim.RNG, s []T) []T {
	out := make([]T, len(s))
	for i, j := range rng.Perm(len(s)) {
		out[i] = s[j]
	}
	return out
}

// scanWinner returns the winner of a Pick-style scan over cs in order.
func scanWinner[K any](cs []candidate[K], cmpKey func(a, b K) int) *Entity {
	best := cs[0]
	for _, c := range cs[1:] {
		if less(cmpKey(c.k, best.k), c.e, best.e) {
			best = c
		}
	}
	return best.e
}

// orderFailure draws rounds of random candidates with keys from newKey
// and ties on lastRun, and returns the first round's violation of a
// strict weak order, or of a scan winner that depends on the order of
// the candidates, or "".
func orderFailure[K any](seed int64, newKey func(*sim.RNG) K, cmpKey func(a, b K) int) string {
	rng := sim.NewRNG(seed)
	for round := 0; round < 200; round++ {
		cs := make([]candidate[K], 10)
		for i := range cs {
			e := &Entity{seq: uint64(i), lastRun: sim.Time(rng.Intn(3))}
			cs[i] = candidate[K]{newKey(rng), e}
		}
		if msg := orderViolation(cs, cmpKey); msg != "" {
			return msg
		}
		want := scanWinner(cs, cmpKey)
		for n := 0; n < 20; n++ {
			if got := scanWinner(shuffled(rng, cs), cmpKey); got != want {
				return fmt.Sprintf("scan winner seq %d, after a shuffle seq %d", want.seq, got.seq)
			}
		}
	}
	return ""
}

// The container scheduler's keys (usage over weight, compared as exact
// products, with small values so that equal ratios such as 4/2 and 2/1
// are common) and the baseline's integer keys, broken by lastRun and
// seq, form a strict weak order, and a scan's winner does not depend on
// the order of the candidates.
func TestLessIsStrictWeakOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		if msg := orderFailure(seed, func(r *sim.RNG) key {
			return key{uint64(r.Intn(13)), uint64(1 + r.Intn(4))}
		}, key.cmp); msg != "" {
			t.Fatalf("container keys, seed %d: %s", seed, msg)
		}
		if msg := orderFailure(seed, func(r *sim.RNG) int64 {
			return int64(r.Intn(7) - 3)
		}, cmp.Compare[int64]); msg != "" {
			t.Fatalf("baseline keys, seed %d: %s", seed, msg)
		}
	}
}

// Planted bug: float keys that tie within an absolute 1e-12 are not a
// strict weak order (a ≈ b and b ≈ c, yet a < c), and the property test
// catches it.
func TestLessOrderCatchesEpsilonKey(t *testing.T) {
	epsCmp := func(a, b float64) int {
		const eps = 1e-12
		switch {
		case a < b-eps:
			return -1
		case a > b+eps:
			return 1
		}
		return 0
	}
	for seed := int64(1); seed <= 20; seed++ {
		if msg := orderFailure(seed, func(r *sim.RNG) float64 {
			return float64(r.Intn(6)) * 0.6e-12
		}, epsCmp); msg != "" {
			t.Logf("seed %d: %s", seed, msg)
			return
		}
	}
	t.Fatal("no seed caught the 1e-12 tie window")
}

// pickUnderShuffles picks at now with the runnable list in its own order
// and in shuffles of it, restoring every lastRun before each Pick, and
// requires one winner.
func pickUnderShuffles(t *testing.T, rng *sim.RNG, s Scheduler, set *entitySet, now sim.Time) {
	t.Helper()
	order := slices.Clone(set.runnable)
	lastRuns := make([]sim.Time, len(order))
	for i, e := range order {
		lastRuns[i] = e.lastRun
	}
	defer func() { set.runnable = order }()
	var want *Entity
	for n := 0; n < 20; n++ {
		perm := slices.Clone(order)
		if n > 0 {
			perm = shuffled(rng, order)
		}
		for i, e := range order {
			e.lastRun = lastRuns[i]
		}
		set.runnable = perm
		got := s.Pick(now)
		if n == 0 {
			want = got
		} else if got != want {
			t.Fatalf("Pick at %v = %v in seq order, %v after a shuffle", now, want, got)
		}
	}
}

// Pick's winner does not change when the runnable list is shuffled, for
// either scheduler, with keys that tie often: usage a small multiple of
// the weight (or the nice offset), read fresh and after decay epoch
// boundaries, and lastRun ties.
func TestPickIgnoresRunnableOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		cs := NewContainerScheduler()
		ds := NewDecayScheduler()
		for i := 0; i < 10; i++ {
			prio := 1 + rng.Intn(4)
			leaf := rc.MustNew(nil, rc.TimeShare, fmt.Sprintf("c%d", i), rc.Attributes{Priority: prio})
			if rng.Intn(4) == 0 {
				leaf = rc.MustNew(nil, rc.TimeShare, fmt.Sprintf("idle%d", i), rc.Attributes{})
			}
			e := leafEntity(uint64(i+1), leaf, cs)
			cs.Charge(e, leaf, sim.Duration(rng.Intn(4)*prio)*sim.Millisecond, 0)
			e.lastRun = sim.Time(rng.Intn(3))

			p := &ProcPrincipal{Nice: rng.Intn(3)}
			d := &Entity{ID: uint64(i + 1), Proc: p}
			ds.Register(d)
			ds.SetRunnable(d, true)
			ds.Charge(d, nil, sim.Duration(rng.Intn(3))*niceUnit, 0)
			d.lastRun = sim.Time(rng.Intn(3))
		}
		for _, now := range []sim.Time{3, sim.Time(decayHalfLife), sim.Time(3 * decayHalfLife)} {
			pickUnderShuffles(t, rng, cs, &cs.set, now)
			pickUnderShuffles(t, rng, ds, &ds.set, now)
		}
	}
}
