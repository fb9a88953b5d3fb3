package sched

import (
	"math"
	"testing"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

// drive simulates a minimal CPU loop for total virtual time: pick, run a
// (possibly budget-clipped) slice, charge it to the entity's current
// resource binding. It returns per-entity CPU received.
func drive(s Scheduler, total sim.Duration) map[*Entity]sim.Duration {
	got := make(map[*Entity]sim.Duration)
	now := sim.Time(0)
	end := sim.Time(total)
	for now < end {
		e := s.Pick(now)
		if e == nil {
			next, ok := s.NextRelease(now)
			if !ok || next <= now {
				// Nothing will ever run again; idle to the end.
				break
			}
			if next > end {
				next = end
			}
			now = next
			continue
		}
		slice := DefaultQuantum
		cs, _ := s.(*ContainerScheduler)
		if cs != nil && e.Resource != nil {
			if sb := cs.SliceBudget(e.Resource, now); sb < slice {
				slice = sb
			}
		}
		if rem := end.Sub(now); rem < slice {
			slice = rem
		}
		now = now.Add(slice)
		if e.Resource != nil {
			e.Resource.ChargeCPU(rc.UserCPU, slice, cs.Window())
		}
		s.Charge(e, e.Resource, slice, now)
		got[e] += slice
	}
	return got
}

func frac(d, total sim.Duration) float64 { return float64(d) / float64(total) }

func within(t *testing.T, got, want, tol float64, label string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %.4f, want %.4f ± %.4f", label, got, want, tol)
	}
}

// --- DecayScheduler ---

func TestDecayEqualShares(t *testing.T) {
	s := NewDecayScheduler()
	a := &Entity{ID: 1, Name: "a", Proc: NewProcPrincipal("A")}
	b := &Entity{ID: 2, Name: "b", Proc: NewProcPrincipal("B")}
	s.Register(a)
	s.Register(b)
	s.SetRunnable(a, true)
	s.SetRunnable(b, true)
	got := drive(s, 10*sim.Second)
	within(t, frac(got[a], 10*sim.Second), 0.5, 0.02, "A share")
	within(t, frac(got[b], 10*sim.Second), 0.5, 0.02, "B share")
}

func TestDecayEqualSharesManyProcs(t *testing.T) {
	s := NewDecayScheduler()
	var es []*Entity
	for i := 0; i < 5; i++ {
		e := &Entity{ID: uint64(i), Proc: NewProcPrincipal("p")}
		s.Register(e)
		s.SetRunnable(e, true)
		es = append(es, e)
	}
	got := drive(s, 10*sim.Second)
	for i, e := range es {
		within(t, frac(got[e], 10*sim.Second), 0.2, 0.02, "share of proc "+string(rune('0'+i)))
	}
}

func TestDecayMisaccountingShiftsShares(t *testing.T) {
	// Reproduce the §5.6 effect: extra (interrupt) time charged to B makes
	// B look busier, so B receives less actual CPU than A.
	s := NewDecayScheduler()
	a := &Entity{ID: 1, Proc: NewProcPrincipal("A")}
	b := &Entity{ID: 2, Proc: NewProcPrincipal("B")}
	s.Register(a)
	s.Register(b)
	s.SetRunnable(a, true)
	s.SetRunnable(b, true)
	got := make(map[*Entity]sim.Duration)
	now := sim.Time(0)
	end := sim.Time(10 * sim.Second)
	for now < end {
		e := s.Pick(now)
		slice := DefaultQuantum
		now = now.Add(slice)
		s.Charge(e, nil, slice, now)
		got[e] += slice
		if e == b {
			// Every slice B runs, an equal amount of interrupt work gets
			// misaccounted to it (but consumes no simulated CPU here).
			s.Charge(b, nil, slice, now)
		}
	}
	sa, sb := frac(got[a], 10*sim.Second), frac(got[b], 10*sim.Second)
	if sa <= sb {
		t.Fatalf("misaccounted principal should lose CPU: A=%.3f B=%.3f", sa, sb)
	}
	// B is charged at 2x rate, so equilibrium is A:B = 2:1.
	within(t, sa, 2.0/3.0, 0.05, "A share")
}

func TestDecayNice(t *testing.T) {
	s := NewDecayScheduler()
	a := &Entity{ID: 1, Proc: NewProcPrincipal("A")}
	b := &Entity{ID: 2, Proc: &ProcPrincipal{Name: "B", Nice: 4}}
	s.Register(a)
	s.Register(b)
	s.SetRunnable(a, true)
	s.SetRunnable(b, true)
	got := drive(s, 10*sim.Second)
	if got[a] <= got[b] {
		t.Fatalf("niced principal should get less CPU: A=%v B=%v", got[a], got[b])
	}
}

func TestDecayOnlyRunnable(t *testing.T) {
	s := NewDecayScheduler()
	a := &Entity{ID: 1, Proc: NewProcPrincipal("A")}
	b := &Entity{ID: 2, Proc: NewProcPrincipal("B")}
	s.Register(a)
	s.Register(b)
	s.SetRunnable(a, true)
	got := drive(s, sim.Second)
	if got[b] != 0 {
		t.Fatal("blocked entity ran")
	}
	if got[a] != sim.Second {
		t.Fatalf("runnable entity got %v, want all", got[a])
	}
}

func TestDecayPickNilWhenAllBlocked(t *testing.T) {
	s := NewDecayScheduler()
	e := &Entity{ID: 1, Proc: NewProcPrincipal("A")}
	s.Register(e)
	if s.Pick(0) != nil {
		t.Fatal("Pick should return nil with no runnable entities")
	}
	if _, ok := s.NextRelease(0); ok {
		t.Fatal("decay scheduler never throttles")
	}
}

func TestDecayUnregister(t *testing.T) {
	s := NewDecayScheduler()
	e := &Entity{ID: 1, Proc: NewProcPrincipal("A")}
	s.Register(e)
	s.SetRunnable(e, true)
	s.Unregister(e)
	if s.Pick(0) != nil {
		t.Fatal("unregistered entity picked")
	}
}

func TestDecayRegisterWithoutProcPanics(t *testing.T) {
	s := NewDecayScheduler()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Register(&Entity{ID: 1})
}

func TestDecayTotalCPUAccumulates(t *testing.T) {
	s := NewDecayScheduler()
	p := NewProcPrincipal("A")
	e := &Entity{ID: 1, Proc: p}
	s.Register(e)
	s.SetRunnable(e, true)
	drive(s, sim.Second)
	if p.TotalCPU() != sim.Second {
		t.Fatalf("TotalCPU %v, want 1s", p.TotalCPU())
	}
}

func TestDecayThreadsOfSameProcessShareOnePrincipal(t *testing.T) {
	s := NewDecayScheduler()
	pa := NewProcPrincipal("A")
	a1 := &Entity{ID: 1, Proc: pa}
	a2 := &Entity{ID: 2, Proc: pa}
	b := &Entity{ID: 3, Proc: NewProcPrincipal("B")}
	for _, e := range []*Entity{a1, a2, b} {
		s.Register(e)
		s.SetRunnable(e, true)
	}
	got := drive(s, 10*sim.Second)
	// Process A (two threads) and process B should each get ~50%.
	within(t, frac(got[a1]+got[a2], 10*sim.Second), 0.5, 0.03, "proc A share")
	within(t, frac(got[b], 10*sim.Second), 0.5, 0.03, "proc B share")
}

// --- ContainerScheduler ---

func leafEntity(id uint64, c *rc.Container, s Scheduler) *Entity {
	e := &Entity{ID: id, Name: c.Name()}
	s.Register(e)
	s.Bind(e, c, 0)
	s.SetRunnable(e, true)
	return e
}

func TestContainerWeightedTimeShare(t *testing.T) {
	s := NewContainerScheduler()
	ca := rc.MustNew(nil, rc.TimeShare, "a", rc.Attributes{Priority: 1})
	cb := rc.MustNew(nil, rc.TimeShare, "b", rc.Attributes{Priority: 2})
	a := leafEntity(1, ca, s)
	b := leafEntity(2, cb, s)
	got := drive(s, 10*sim.Second)
	within(t, frac(got[a], 10*sim.Second), 1.0/3.0, 0.04, "weight-1 share")
	within(t, frac(got[b], 10*sim.Second), 2.0/3.0, 0.04, "weight-2 share")
}

// TestContainerLongIdleNearTie: usage that has decayed to the same
// integer ties, and the tie goes to the least recently run entity.
// Leaves charged 1 ms and 1 ms + 1 ns differ by a nanosecond while
// fresh, and both decay to 500 µs at the next half-life boundary and to
// 0 after 64 of them.
func TestContainerLongIdleNearTie(t *testing.T) {
	for _, prio := range []int{1, 0} {
		for _, at := range []sim.Duration{0, 300 * sim.Second, 1000 * sim.Second} {
			t0 := sim.Time(at)
			s := NewContainerScheduler()
			a := leafEntity(1, rc.MustNew(nil, rc.TimeShare, "a", rc.Attributes{Priority: prio}), s)
			b := leafEntity(2, rc.MustNew(nil, rc.TimeShare, "b", rc.Attributes{Priority: prio}), s)
			s.Charge(a, a.Resource, sim.Millisecond, t0)
			s.Charge(b, b.Resource, sim.Millisecond+1, t0)
			// Fresh, the keys are a nanosecond apart: a runs.
			if got := s.Pick(t0.Add(sim.Millisecond)); got != a {
				t.Fatalf("priority %d, charged at %v: fresh Pick = %v, want a", prio, t0, got)
			}
			boundary := sim.Time(decayEpoch(t0)+1) * sim.Time(decayHalfLife)
			if got := s.Pick(boundary); got != b {
				t.Fatalf("priority %d, charged at %v: Pick at the next half-life = %v, want b, which ran less recently", prio, t0, got)
			}
			if got := s.Pick(t0.Add(64 * decayHalfLife)); got != a {
				t.Fatalf("priority %d, charged at %v: Pick 64 half-lives later = %v, want a, which ran less recently", prio, t0, got)
			}
		}
	}
}

func TestContainerIdleClassStarvesUnderLoad(t *testing.T) {
	s := NewContainerScheduler()
	normal := rc.MustNew(nil, rc.TimeShare, "normal", rc.Attributes{Priority: 1})
	idle := rc.MustNew(nil, rc.TimeShare, "idle", rc.Attributes{Priority: 0})
	n := leafEntity(1, normal, s)
	i := leafEntity(2, idle, s)
	got := drive(s, 5*sim.Second)
	if got[i] != 0 {
		t.Fatalf("idle-class container ran %v while normal work pending", got[i])
	}
	if got[n] != 5*sim.Second {
		t.Fatalf("normal container got %v", got[n])
	}
	// When the normal entity blocks, the idle class runs.
	s.SetRunnable(n, false)
	if s.Pick(sim.Time(5*sim.Second)) != i {
		t.Fatal("idle class should run when nothing else is runnable")
	}
}

func TestContainerCapEnforced(t *testing.T) {
	s := NewContainerScheduler()
	capped := rc.MustNew(nil, rc.FixedShare, "cgi-parent", rc.Attributes{Limit: 0.3})
	leaf := rc.MustNew(capped, rc.TimeShare, "cgi-1", rc.Attributes{Priority: 1})
	free := rc.MustNew(nil, rc.TimeShare, "server", rc.Attributes{Priority: 1})
	c := leafEntity(1, leaf, s)
	f := leafEntity(2, free, s)
	got := drive(s, 10*sim.Second)
	within(t, frac(got[c], 10*sim.Second), 0.3, 0.02, "capped share")
	within(t, frac(got[f], 10*sim.Second), 0.7, 0.02, "uncapped share")
}

func TestContainerCapSharedBySiblings(t *testing.T) {
	// The cap constrains the whole subtree (§4.5): two CGI children under
	// a 30% parent must together stay at 30%.
	s := NewContainerScheduler()
	parent := rc.MustNew(nil, rc.FixedShare, "cgi-parent", rc.Attributes{Limit: 0.3})
	l1 := rc.MustNew(parent, rc.TimeShare, "cgi-1", rc.Attributes{Priority: 1})
	l2 := rc.MustNew(parent, rc.TimeShare, "cgi-2", rc.Attributes{Priority: 1})
	free := rc.MustNew(nil, rc.TimeShare, "server", rc.Attributes{Priority: 1})
	e1 := leafEntity(1, l1, s)
	e2 := leafEntity(2, l2, s)
	f := leafEntity(3, free, s)
	got := drive(s, 10*sim.Second)
	within(t, frac(got[e1]+got[e2], 10*sim.Second), 0.3, 0.02, "subtree share")
	within(t, frac(got[f], 10*sim.Second), 0.7, 0.02, "free share")
	within(t, frac(got[e1], 10*sim.Second), 0.15, 0.03, "sibling 1 fair split")
}

func TestContainerCapWorkConserving(t *testing.T) {
	// A capped container alone on the machine is throttled to its cap;
	// the CPU idles the rest of the window (that is what a cap means).
	s := NewContainerScheduler()
	capped := rc.MustNew(nil, rc.FixedShare, "capped", rc.Attributes{Limit: 0.25})
	leaf := rc.MustNew(capped, rc.TimeShare, "leaf", rc.Attributes{Priority: 1})
	e := leafEntity(1, leaf, s)
	got := drive(s, 10*sim.Second)
	within(t, frac(got[e], 10*sim.Second), 0.25, 0.02, "capped alone")
}

func TestContainerNestedCaps(t *testing.T) {
	// A 50% child inside a 50% parent is limited to 25% of the machine.
	s := NewContainerScheduler()
	outer := rc.MustNew(nil, rc.FixedShare, "outer", rc.Attributes{Limit: 0.5})
	inner := rc.MustNew(outer, rc.FixedShare, "inner", rc.Attributes{Limit: 0.5})
	leaf := rc.MustNew(inner, rc.TimeShare, "leaf", rc.Attributes{Priority: 1})
	other := rc.MustNew(nil, rc.TimeShare, "other", rc.Attributes{Priority: 1})
	e := leafEntity(1, leaf, s)
	o := leafEntity(2, other, s)
	got := drive(s, 10*sim.Second)
	within(t, frac(got[e], 10*sim.Second), 0.25, 0.02, "nested cap")
	within(t, frac(got[o], 10*sim.Second), 0.75, 0.02, "other")
}

func TestContainerFixedShareGuarantees(t *testing.T) {
	// Three saturating guests with 50/30/20 shares: consumption matches
	// allocation (§5.8).
	s := NewContainerScheduler()
	shares := []float64{0.5, 0.3, 0.2}
	var es []*Entity
	for i, sh := range shares {
		g := rc.MustNew(nil, rc.FixedShare, "guest", rc.Attributes{Share: sh})
		leaf := rc.MustNew(g, rc.TimeShare, "work", rc.Attributes{Priority: 1})
		es = append(es, leafEntity(uint64(i+1), leaf, s))
	}
	got := drive(s, 10*sim.Second)
	for i, sh := range shares {
		within(t, frac(got[es[i]], 10*sim.Second), sh, 0.02, "guest share")
	}
}

func TestContainerShareIsGuaranteeNotCap(t *testing.T) {
	// With only one guest active, a work-conserving share lets it take
	// the whole machine.
	s := NewContainerScheduler()
	g := rc.MustNew(nil, rc.FixedShare, "guest", rc.Attributes{Share: 0.3})
	leaf := rc.MustNew(g, rc.TimeShare, "work", rc.Attributes{Priority: 1})
	e := leafEntity(1, leaf, s)
	got := drive(s, sim.Second)
	if got[e] != sim.Second {
		t.Fatalf("lone guest got %v, want all CPU", got[e])
	}
}

func TestContainerGuaranteeBeatsTimeShare(t *testing.T) {
	// A 70% guarantee holds against a high-priority time-share container.
	s := NewContainerScheduler()
	g := rc.MustNew(nil, rc.FixedShare, "guaranteed", rc.Attributes{Share: 0.7})
	gl := rc.MustNew(g, rc.TimeShare, "gwork", rc.Attributes{Priority: 1})
	ts := rc.MustNew(nil, rc.TimeShare, "ts", rc.Attributes{Priority: 50})
	ge := leafEntity(1, gl, s)
	te := leafEntity(2, ts, s)
	got := drive(s, 10*sim.Second)
	within(t, frac(got[ge], 10*sim.Second), 0.7, 0.03, "guaranteed share")
	within(t, frac(got[te], 10*sim.Second), 0.3, 0.03, "leftover share")
}

func TestContainerThrottledNextRelease(t *testing.T) {
	s := NewContainerScheduler()
	capped := rc.MustNew(nil, rc.FixedShare, "capped", rc.Attributes{Limit: 0.1})
	leaf := rc.MustNew(capped, rc.TimeShare, "leaf", rc.Attributes{Priority: 1})
	leafEntity(1, leaf, s)
	// Exhaust the budget.
	now := sim.Time(0)
	for {
		e := s.Pick(now)
		if e == nil {
			break
		}
		slice := s.SliceBudget(leaf, now)
		now = now.Add(slice)
		leaf.ChargeCPU(rc.UserCPU, slice, s.Window())
		s.Charge(e, leaf, slice, now)
	}
	next, ok := s.NextRelease(now)
	if !ok {
		t.Fatal("NextRelease should report a pending throttled entity")
	}
	if next <= now {
		t.Fatalf("NextRelease %v not in the future (now %v)", next, now)
	}
	// After the window rolls, the entity is eligible again.
	if e := s.Pick(next); e == nil {
		t.Fatal("entity still throttled after window roll")
	}
}

func TestContainerSliceBudgetClipping(t *testing.T) {
	s := NewContainerScheduler()
	capped := rc.MustNew(nil, rc.FixedShare, "capped", rc.Attributes{Limit: 0.3})
	leaf := rc.MustNew(capped, rc.TimeShare, "leaf", rc.Attributes{Priority: 1})
	// Fresh window: budget = 0.3 * 20ms = 6ms, clipped to quantum 1ms.
	if b := s.SliceBudget(leaf, 0); b != DefaultQuantum {
		t.Fatalf("budget %v, want quantum", b)
	}
	// Consume 5.5ms: remaining budget 0.5ms < quantum.
	leaf.ChargeCPU(rc.UserCPU, 5500*sim.Microsecond, s.Window())
	if b := s.SliceBudget(leaf, sim.Time(sim.Millisecond)); b != 500*sim.Microsecond {
		t.Fatalf("budget %v, want 500µs", b)
	}
	// Over budget: zero — the kernel must not run this work until the
	// window rolls.
	leaf.ChargeCPU(rc.UserCPU, sim.Millisecond, s.Window())
	if b := s.SliceBudget(leaf, sim.Time(sim.Millisecond)); b != 0 {
		t.Fatalf("budget %v, want 0", b)
	}
	if nw := s.NextWindow(sim.Time(sim.Millisecond)); nw != sim.Time(DefaultWindow) {
		t.Fatalf("NextWindow %v, want %v", nw, sim.Time(DefaultWindow))
	}
}

func TestContainerUncappedSliceBudgetIsQuantum(t *testing.T) {
	s := NewContainerScheduler()
	leaf := rc.MustNew(nil, rc.TimeShare, "leaf", rc.Attributes{Priority: 1})
	if b := s.SliceBudget(leaf, 0); b != DefaultQuantum {
		t.Fatalf("budget %v, want quantum", b)
	}
}

func TestSchedulerBindingAccumulatesAndPrunes(t *testing.T) {
	s := NewContainerScheduler()
	c1 := rc.MustNew(nil, rc.TimeShare, "c1", rc.Attributes{Priority: 1})
	c2 := rc.MustNew(nil, rc.TimeShare, "c2", rc.Attributes{Priority: 1})
	e := &Entity{ID: 1}
	s.Register(e)
	s.Bind(e, c1, 0)
	s.Bind(e, c2, sim.Time(sim.Millisecond))
	if len(e.Binding()) != 2 {
		t.Fatalf("binding size %d, want 2", len(e.Binding()))
	}
	// Rebinding to c2 much later prunes c1 (older than DefaultPruneAge) but the
	// current resource binding stays.
	s.Bind(e, c2, sim.Time(sim.Second))
	bs := e.Binding()
	if len(bs) != 1 || bs[0] != c2 {
		t.Fatalf("binding after prune: %v", bs)
	}
}

func TestSchedulerBindingPruneDisabled(t *testing.T) {
	s := NewContainerScheduler()
	s.DisablePruning = true
	c1 := rc.MustNew(nil, rc.TimeShare, "c1", rc.Attributes{Priority: 1})
	c2 := rc.MustNew(nil, rc.TimeShare, "c2", rc.Attributes{Priority: 1})
	e := &Entity{ID: 1}
	s.Register(e)
	s.Bind(e, c1, 0)
	s.Bind(e, c2, sim.Time(sim.Second))
	if len(e.Binding()) != 2 {
		t.Fatalf("binding size %d, want 2 with pruning disabled", len(e.Binding()))
	}
}

func TestSchedulerBindingDropsDestroyed(t *testing.T) {
	s := NewContainerScheduler()
	c1 := rc.MustNew(nil, rc.TimeShare, "c1", rc.Attributes{Priority: 1})
	c2 := rc.MustNew(nil, rc.TimeShare, "c2", rc.Attributes{Priority: 1})
	e := &Entity{ID: 1}
	s.Register(e)
	s.Bind(e, c1, 0)
	s.Bind(e, c2, 0)
	_ = c1.Release()
	s.Bind(e, c2, sim.Time(sim.Microsecond))
	for _, c := range e.Binding() {
		if c == c1 {
			t.Fatal("destroyed container still in scheduler binding")
		}
	}
}

func TestResetBinding(t *testing.T) {
	s := NewContainerScheduler()
	c1 := rc.MustNew(nil, rc.TimeShare, "c1", rc.Attributes{Priority: 1})
	c2 := rc.MustNew(nil, rc.TimeShare, "c2", rc.Attributes{Priority: 1})
	e := &Entity{ID: 1}
	s.Register(e)
	s.Bind(e, c1, 0)
	s.Bind(e, c2, 0)
	s.ResetBinding(e)
	bs := e.Binding()
	if len(bs) != 1 || bs[0] != c2 {
		t.Fatalf("ResetBinding left %v, want just current binding c2", bs)
	}
}

func TestEmptyBindingPanics(t *testing.T) {
	s := NewContainerScheduler()
	e := &Entity{ID: 1}
	s.Register(e)
	s.SetRunnable(e, true)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for runnable entity with empty binding")
		}
	}()
	s.Pick(0)
}

func TestMultiplexedThreadCombinedScheduling(t *testing.T) {
	// A thread multiplexed over two containers (event-driven server) is
	// scheduled by their combined state: it stays runnable even when one
	// container is throttled.
	s := NewContainerScheduler()
	capped := rc.MustNew(nil, rc.FixedShare, "capped", rc.Attributes{Limit: 0.01})
	cl := rc.MustNew(capped, rc.TimeShare, "cl", rc.Attributes{Priority: 1})
	free := rc.MustNew(nil, rc.TimeShare, "free", rc.Attributes{Priority: 1})
	e := &Entity{ID: 1}
	s.Register(e)
	s.Bind(e, cl, 0)
	s.Bind(e, free, 0)
	s.SetRunnable(e, true)
	// Exhaust the capped container's budget.
	cl.ChargeCPU(rc.UserCPU, sim.Second, s.Window())
	if got := s.Pick(sim.Time(sim.Millisecond)); got != e {
		t.Fatal("thread with one eligible binding container should still run")
	}
}

func TestContainerChargeNilIsNoop(t *testing.T) {
	s := NewContainerScheduler()
	e := &Entity{ID: 1}
	s.Register(e)
	s.Charge(e, nil, sim.Millisecond, 0) // must not panic
}

func TestContainerUnregister(t *testing.T) {
	s := NewContainerScheduler()
	c := rc.MustNew(nil, rc.TimeShare, "c", rc.Attributes{Priority: 1})
	e := leafEntity(1, c, s)
	s.Unregister(e)
	if s.Pick(0) != nil {
		t.Fatal("unregistered entity picked")
	}
}

func TestCapAccuracyFine(t *testing.T) {
	// §5.6: "the CPU limits are enforced almost exactly." Verify a 10%
	// cap lands within half a percentage point.
	s := NewContainerScheduler()
	capped := rc.MustNew(nil, rc.FixedShare, "cgi", rc.Attributes{Limit: 0.1})
	leaf := rc.MustNew(capped, rc.TimeShare, "leaf", rc.Attributes{Priority: 1})
	free := rc.MustNew(nil, rc.TimeShare, "srv", rc.Attributes{Priority: 1})
	e := leafEntity(1, leaf, s)
	leafEntity(2, free, s)
	got := drive(s, 20*sim.Second)
	within(t, frac(got[e], 20*sim.Second), 0.1, 0.005, "10% cap accuracy")
}
