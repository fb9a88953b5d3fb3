package sched

// Randomized invariant tests: build random container hierarchies and
// workloads, drive the scheduler, and check the §4 contracts hold for
// every configuration — caps never exceeded, guarantees met when the
// holder is saturated, work conservation, idle-class starvation.

import (
	"fmt"
	"testing"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

type fuzzCase struct {
	ents    []*Entity
	limits  map[*rc.Container]float64 // capped subtrees
	shares  map[*rc.Container]float64 // guaranteed subtrees
	idle    map[*Entity]bool
	nNormal int
}

// buildRandomCase creates 2–6 top-level groups, each either capped,
// guaranteed, or plain, with 1–3 leaf entities.
func buildRandomCase(rng *sim.RNG, s *ContainerScheduler) *fuzzCase {
	fc := &fuzzCase{
		limits: map[*rc.Container]float64{},
		shares: map[*rc.Container]float64{},
		idle:   map[*Entity]bool{},
	}
	nGroups := 2 + rng.Intn(5)
	shareLeft := 0.9
	var id uint64
	for g := 0; g < nGroups; g++ {
		kind := rng.Intn(3)
		var parent *rc.Container
		switch kind {
		case 0: // capped
			limit := 0.05 + 0.3*rng.Float64()
			parent = rc.MustNew(nil, rc.FixedShare, fmt.Sprintf("cap-%d", g),
				rc.Attributes{Limit: limit})
			fc.limits[parent] = limit
		case 1: // guaranteed
			share := 0.05 + 0.25*rng.Float64()
			if share > shareLeft {
				share = shareLeft / 2
			}
			if share < 0.01 {
				kind = 2
			} else {
				shareLeft -= share
				parent = rc.MustNew(nil, rc.FixedShare, fmt.Sprintf("share-%d", g),
					rc.Attributes{Share: share})
				fc.shares[parent] = share
			}
		}
		nLeaves := 1 + rng.Intn(3)
		for l := 0; l < nLeaves; l++ {
			prio := rng.Intn(4) // 0..3; 0 = idle class (only for plain leaves)
			if parent != nil && prio == 0 {
				prio = 1
			}
			leaf := rc.MustNew(parent, rc.TimeShare, fmt.Sprintf("leaf-%d-%d", g, l),
				rc.Attributes{Priority: prio})
			id++
			e := &Entity{ID: id}
			s.Register(e)
			s.Bind(e, leaf, 0)
			s.SetRunnable(e, true)
			if prio == 0 && parent == nil {
				fc.idle[e] = true
			} else {
				fc.nNormal++
			}
			fc.ents = append(fc.ents, e)
		}
	}
	return fc
}

func TestSchedulerInvariantsRandomized(t *testing.T) {
	const total = 10 * sim.Second
	for trial := 0; trial < 25; trial++ {
		rng := sim.NewRNG(int64(1000 + trial))
		s := NewContainerScheduler()
		fc := buildRandomCase(rng, s)
		got := drive(s, total)

		var consumed sim.Duration
		for _, e := range fc.ents {
			consumed += got[e]
		}
		// Work conservation: with any unlimited runnable entity the
		// machine must not idle (beyond cap-window rounding).
		unlimitedRunnable := false
		for _, e := range fc.ents {
			c := e.Resource
			capped := false
			for p := c; p != nil; p = p.Parent() {
				if p.Attributes().Limit > 0 {
					capped = true
				}
			}
			if !capped {
				unlimitedRunnable = true
			}
		}
		if unlimitedRunnable && consumed < total*99/100 {
			t.Fatalf("trial %d: machine idled with unlimited work: %v of %v", trial, consumed, total)
		}

		// Caps: subtree usage never exceeds limit (+one window of slack).
		for c, limit := range fc.limits {
			used := c.Usage().CPU()
			budget := sim.Duration(limit*float64(total)) + DefaultWindow
			if used > budget {
				t.Fatalf("trial %d: cap %0.2f exceeded: used %v of %v", trial, limit, used, total)
			}
		}

		// Guarantees: when the machine is fully consumed and shares are
		// feasible, each guaranteed subtree gets at least its share (with
		// 5% slack for windowing).
		if consumed >= total*99/100 {
			for c, share := range fc.shares {
				used := c.Usage().CPU()
				want := sim.Duration(share * float64(total) * 0.95)
				if used < want {
					t.Fatalf("trial %d: guarantee %.2f unmet: got %v of %v", trial, share, used, total)
				}
			}
		}

		// Idle class: starved whenever normal work saturates the machine.
		if fc.nNormal > 0 && consumed >= total*99/100 {
			for e := range fc.idle {
				if got[e] > total/100 {
					t.Fatalf("trial %d: idle-class entity got %v with normal work pending", trial, got[e])
				}
			}
		}
	}
}

func TestSchedulerInvariantsLottery(t *testing.T) {
	const total = 5 * sim.Second
	for trial := 0; trial < 10; trial++ {
		rng := sim.NewRNG(int64(7000 + trial))
		s := NewContainerScheduler()
		s.SetLeafPolicy(PolicyLottery, int64(trial))
		fc := buildRandomCase(rng, s)
		got := drive(s, total)
		for c, limit := range fc.limits {
			used := c.Usage().CPU()
			if used > sim.Duration(limit*float64(total))+DefaultWindow {
				t.Fatalf("trial %d: lottery broke cap %.2f: used %v", trial, limit, used)
			}
		}
		var consumed sim.Duration
		for _, e := range fc.ents {
			consumed += got[e]
		}
		if consumed >= total*99/100 {
			for c, share := range fc.shares {
				if c.Usage().CPU() < sim.Duration(share*float64(total)*0.95) {
					t.Fatalf("trial %d: lottery broke guarantee %.2f", trial, share)
				}
			}
		}
	}
}
