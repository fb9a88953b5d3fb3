package rcruntime

import (
	"fmt"
	"testing"
	"time"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

// enforcer is the surface the differential test drives on both the
// Enforcer and refEnforcer.
type enforcer interface {
	admit(c *rc.Container, maxWait time.Duration) (waited, ok bool)
	Charge(c *rc.Container, actual time.Duration)
	OverBudget(c *rc.Container) bool
	WindowRemaining() time.Duration
	Sync(fn func())
}

// skipRefresh is the Enforcer with its charges planted outside its
// window: no charge moves a container's snapshot past a roll, so after
// one its window usage reads 0 however much it is charged.
type skipRefresh struct{ *Enforcer }

func (e skipRefresh) Charge(c *rc.Container, actual time.Duration) {
	if actual < 0 {
		return
	}
	e.Sync(func() { c.ChargeCPU(rc.UserCPU, sim.Duration(actual), nil) })
}

// diffWorld is one enforcer over its own clock and its own copy of the
// hierarchy; containers are addressed by creation index, so the same
// operation means the same thing in every world.
type diffWorld struct {
	clock *VirtualClock
	enf   enforcer
	cs    []*rc.Container
}

const diffWindow = 10 * time.Millisecond

// create adds a container under parent index p (-1 for a root).
func (w *diffWorld) create(p int, class rc.Class, limit float64) {
	w.enf.Sync(func() {
		var parent *rc.Container
		if p >= 0 {
			parent = w.cs[p]
		}
		name := fmt.Sprintf("c%d", len(w.cs))
		w.cs = append(w.cs, rc.MustNew(parent, class, name, rc.Attributes{Limit: limit}))
	})
}

// runDiff drives the world mk builds and the reference through the
// same seeded operations and returns the first observable difference,
// or "" when every verdict, wait, OverBudget and WindowRemaining agree.
func runDiff(seed int64, ops int, mk func(Clock, time.Duration) enforcer) string {
	rng := sim.NewRNG(seed)
	worlds := [2]*diffWorld{}
	for i := range worlds {
		clock := &VirtualClock{}
		worlds[i] = &diffWorld{clock: clock}
		if i == 0 {
			worlds[i].enf = newRef(clock, diffWindow)
		} else {
			worlds[i].enf = mk(clock, diffWindow)
		}
	}
	each := func(fn func(w *diffWorld)) {
		for _, w := range worlds {
			fn(w)
		}
	}
	limits := []float64{0, 0, 0.1, 0.3, 0.5, 1}
	// A limited root, a limited middle tier and unlimited leaves.
	each(func(w *diffWorld) {
		w.create(-1, rc.FixedShare, 0.6)
		w.create(0, rc.FixedShare, 0.4)
		w.create(0, rc.FixedShare, 0)
		w.create(1, rc.TimeShare, 0)
		w.create(2, rc.TimeShare, 0.2)
	})
	// pick returns a random container index; live restricts it to
	// containers not yet destroyed (-1 if there are none).
	pick := func(live bool) int {
		cs := worlds[0].cs
		i := rng.Intn(len(cs))
		for n := 0; n < len(cs); n, i = n+1, (i+1)%len(cs) {
			if !live || !cs[i].Destroyed() {
				return i
			}
		}
		return -1
	}
	for op := 0; op < ops; op++ {
		var got [2]string
		switch p := rng.Float64(); {
		case p < 0.30: // try or bounded admit on a live container
			i := pick(true)
			if i < 0 {
				continue
			}
			maxWait := time.Duration(0)
			if rng.Float64() < 0.5 {
				maxWait = time.Duration(rng.Intn(int(2 * diffWindow)))
			}
			for k, w := range worlds {
				before := w.clock.Now()
				waited, ok := w.enf.admit(w.cs[i], maxWait)
				got[k] = fmt.Sprintf("admit(%s, %v) = waited %v ok %v after %v",
					w.cs[i].Name(), maxWait, waited, ok, w.clock.Now().Sub(before))
			}
		case p < 0.55: // charge, destroyed containers included
			i := pick(false)
			d := time.Duration(rng.Intn(int(diffWindow / 2)))
			if rng.Float64() < 0.05 {
				d = -d
			}
			each(func(w *diffWorld) { w.enf.Charge(w.cs[i], d) })
		case p < 0.65:
			i := pick(false)
			for k, w := range worlds {
				got[k] = fmt.Sprintf("OverBudget(%s) = %v", w.cs[i].Name(), w.enf.OverBudget(w.cs[i]))
			}
		case p < 0.70: // limit change, often on a never-checked container
			i := pick(true)
			if i < 0 {
				continue
			}
			l := limits[rng.Intn(len(limits))]
			each(func(w *diffWorld) {
				w.enf.Sync(func() { _ = w.cs[i].SetAttributes(rc.Attributes{Limit: l}) })
			})
		case p < 0.73: // release, never the first root
			i := pick(true)
			if i <= 0 {
				continue
			}
			each(func(w *diffWorld) { w.enf.Sync(func() { _ = w.cs[i].Release() }) })
		case p < 0.78: // create mid-window under a live fixed-share container
			parent := pick(true)
			if parent < 0 || worlds[0].cs[parent].Class() != rc.FixedShare {
				continue
			}
			class := rc.FixedShare
			if rng.Float64() < 0.5 {
				class = rc.TimeShare
			}
			l := limits[rng.Intn(len(limits))]
			each(func(w *diffWorld) { w.create(parent, class, l) })
		default: // clock step, within or across windows
			d := time.Duration(rng.Intn(int(diffWindow / 3)))
			if rng.Float64() < 0.2 {
				d = time.Duration(rng.Intn(int(3 * diffWindow)))
			}
			each(func(w *diffWorld) { w.clock.Sleep(d) })
		}
		if got[0] != got[1] {
			return fmt.Sprintf("seed %d op %d: reference %s, enforcer %s", seed, op, got[0], got[1])
		}
		if a, b := worlds[0].enf.WindowRemaining(), worlds[1].enf.WindowRemaining(); a != b {
			return fmt.Sprintf("seed %d op %d: WindowRemaining reference %v, enforcer %v", seed, op, a, b)
		}
	}
	return ""
}

const diffSeeds, diffOps = 12, 1500

// TestEnforcerMatchesReference: the Enforcer, whose window is an
// rc.Window, admits, delays and refuses exactly as the map-based
// reference does on every operation of seeded random runs.
func TestEnforcerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= diffSeeds; seed++ {
		if d := runDiff(seed, diffOps, func(c Clock, w time.Duration) enforcer { return New(c, w) }); d != "" {
			t.Fatal(d)
		}
	}
}

// TestEnforcerDifferentialCatchesSkippedRefresh: the differential test
// has teeth — an Enforcer whose Charge bypasses its window, so that no
// snapshot is refreshed, diverges from the reference.
func TestEnforcerDifferentialCatchesSkippedRefresh(t *testing.T) {
	planted := func(c Clock, w time.Duration) enforcer { return skipRefresh{New(c, w)} }
	for seed := int64(1); seed <= diffSeeds; seed++ {
		if runDiff(seed, diffOps, planted) != "" {
			return
		}
	}
	t.Fatal("planted Charge outside the window matched the reference on every seed")
}

// TestDestroyedContainerAdmittedAtOnce pins a deliberate difference from
// the reference: a destroyed container is never over its limit, so
// admitting work on it neither waits nor refuses, whatever it consumed
// before it was destroyed.
func TestDestroyedContainerAdmittedAtOnce(t *testing.T) {
	fc := &VirtualClock{}
	e := New(fc, 10*time.Millisecond)
	c := rc.MustNew(nil, rc.FixedShare, "c", rc.Attributes{Limit: 0.5})
	e.Acquire(c)(5 * time.Millisecond) // exhaust the window's budget
	e.Sync(func() { _ = c.Release() })
	if waited, ok := e.admit(c, 0); waited || !ok {
		t.Fatalf("destroyed container: waited %v ok %v, want admitted at once", waited, ok)
	}
	if !fc.Now().IsZero() {
		t.Fatalf("admission advanced the clock to %v", fc.Now())
	}
}

// releasingClock is a VirtualClock whose first Sleep releases a
// container: a deterministic destruction in the middle of a wait.
type releasingClock struct {
	VirtualClock
	enf *Enforcer
	c   *rc.Container
}

func (r *releasingClock) Sleep(d time.Duration) {
	if c := r.c; c != nil {
		r.c = nil
		r.enf.Sync(func() { _ = c.Release() })
	}
	r.VirtualClock.Sleep(d)
}

// TestWaiterOnDestroyedContainerAdmitted pins the other deliberate
// difference: a waiter whose container is destroyed mid-wait is
// admitted at its next check — after its own bounded sleep, before the
// window rolls — where the reference refused it.
func TestWaiterOnDestroyedContainerAdmitted(t *testing.T) {
	rcl := &releasingClock{}
	e := New(rcl, 10*time.Millisecond)
	c := rc.MustNew(nil, rc.FixedShare, "c", rc.Attributes{Limit: 0.5})
	e.Acquire(c)(5 * time.Millisecond)
	rcl.enf, rcl.c = e, c
	waited, ok := e.admit(c, 2*time.Millisecond)
	if !waited || !ok {
		t.Fatalf("waited %v ok %v, want admitted after a wait", waited, ok)
	}
	if got := rcl.Now().Sub(time.Time{}); got != 2*time.Millisecond {
		t.Fatalf("admitted after %v, want the 2ms bounded sleep", got)
	}
}

// BenchmarkEnforcerAdmit measures the admitted path — admit then Charge
// — on a leaf under a limited chain three deep, with budget to spare.
func BenchmarkEnforcerAdmit(b *testing.B) {
	e := New(&VirtualClock{}, time.Hour)
	top := rc.MustNew(nil, rc.FixedShare, "top", rc.Attributes{Limit: 1})
	mid := rc.MustNew(top, rc.FixedShare, "mid", rc.Attributes{Limit: 1})
	leaf := rc.MustNew(mid, rc.TimeShare, "leaf", rc.Attributes{Limit: 1})
	// Take the chain's window state and its ancestor slice once.
	e.admit(leaf, 0)
	e.Charge(leaf, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.admit(leaf, 0); !ok {
			b.Fatal("refused with budget to spare")
		}
		e.Charge(leaf, 0)
	}
}
