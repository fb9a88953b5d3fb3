package rcruntime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rescon/internal/rc"
)

func TestUnlimitedAdmitsImmediately(t *testing.T) {
	fc := &VirtualClock{}
	e := New(fc, 10*time.Millisecond)
	c := rc.MustNew(nil, rc.TimeShare, "c", rc.Attributes{Priority: 1})
	before := fc.Now()
	charge := e.Acquire(c)
	charge(3 * time.Millisecond)
	if !fc.Now().Equal(before) {
		t.Fatal("unlimited work should not be delayed")
	}
	if c.Usage().CPU() != 3*1000*1000 {
		t.Fatalf("charged %v", c.Usage().CPU())
	}
}

func TestLimitDelaysWork(t *testing.T) {
	fc := &VirtualClock{}
	e := New(fc, 10*time.Millisecond)
	capped := rc.MustNew(nil, rc.FixedShare, "capped", rc.Attributes{Limit: 0.5})
	leaf := rc.MustNew(capped, rc.TimeShare, "leaf", rc.Attributes{Priority: 1})

	// Consume the 5 ms budget of the first window.
	e.Acquire(leaf)(5 * time.Millisecond)
	// The next acquire must wait for the window to roll.
	before := fc.Now()
	charge := e.Acquire(leaf)
	waited := fc.Now().Sub(before)
	if waited <= 0 {
		t.Fatal("over-budget work admitted without delay")
	}
	if waited > 15*time.Millisecond {
		t.Fatalf("waited %v, want about one window", waited)
	}
	charge(time.Millisecond)
}

func TestHierarchicalLimit(t *testing.T) {
	fc := &VirtualClock{}
	e := New(fc, 10*time.Millisecond)
	parent := rc.MustNew(nil, rc.FixedShare, "parent", rc.Attributes{Limit: 0.3})
	l1 := rc.MustNew(parent, rc.TimeShare, "l1", rc.Attributes{Priority: 1})
	l2 := rc.MustNew(parent, rc.TimeShare, "l2", rc.Attributes{Priority: 1})
	// l1 eats the whole subtree budget (3 ms); l2 must wait too.
	e.Acquire(l1)(3 * time.Millisecond)
	before := fc.Now()
	e.Acquire(l2)(time.Millisecond)
	if fc.Now().Sub(before) <= 0 {
		t.Fatal("sibling admitted despite exhausted parent budget")
	}
}

// TestNestedLimitIsFractionOfParent: a Limit is a fraction of the
// parent's allocation (§4.5), as the simulated scheduler reads it, so a
// 0.2 leaf under a 0.5 group gets 0.2×0.5×100 ms = 10 ms a window, and
// 15 ms puts it over budget while the group is still under its 50 ms.
func TestNestedLimitIsFractionOfParent(t *testing.T) {
	e := New(&VirtualClock{}, 100*time.Millisecond)
	group := rc.MustNew(nil, rc.FixedShare, "group", rc.Attributes{Limit: 0.5})
	leaf := rc.MustNew(group, rc.FixedShare, "leaf", rc.Attributes{Limit: 0.2})
	e.Acquire(leaf)(15 * time.Millisecond)
	if !e.OverBudget(leaf) {
		t.Fatal("leaf under budget after 15 ms, want over its 10 ms")
	}
	if e.OverBudget(group) {
		t.Fatal("group over budget after 15 ms of its 50 ms")
	}
}

// TestWindowRollRestoresBudget: once the window rolls, previously
// exhausted budget is restored and admission is immediate again — usage
// from the old window must not count against the new one.
func TestWindowRollRestoresBudget(t *testing.T) {
	fc := &VirtualClock{}
	e := New(fc, 10*time.Millisecond)
	capped := rc.MustNew(nil, rc.FixedShare, "capped", rc.Attributes{Limit: 0.5})
	leaf := rc.MustNew(capped, rc.TimeShare, "leaf", rc.Attributes{Priority: 1})

	e.Acquire(leaf)(5 * time.Millisecond) // exhaust the 5ms window budget
	fc.Sleep(11 * time.Millisecond)       // window expires on the fake clock
	before := fc.Now()
	e.Acquire(leaf)(time.Millisecond)
	if fc.Now().Sub(before) != 0 {
		t.Fatal("acquire after window roll should be immediate: budget must reset")
	}
}

// TestBudgetIsPerWindow drives three consecutive windows of exhaustion on
// the fake clock: each window admits its budget, then blocks until the
// roll, and the total admitted tracks budget × windows — the per-window
// snapshot accounting, not a cumulative-usage comparison (which would
// deadlock after the first window).
func TestBudgetIsPerWindow(t *testing.T) {
	fc := &VirtualClock{}
	const window = 10 * time.Millisecond
	const budget = 5 * time.Millisecond // Limit 0.5 × 10ms
	e := New(fc, window)
	capped := rc.MustNew(nil, rc.FixedShare, "capped", rc.Attributes{Limit: 0.5})
	leaf := rc.MustNew(capped, rc.TimeShare, "leaf", rc.Attributes{Priority: 1})

	for w := 0; w < 3; w++ {
		e.Acquire(leaf)(budget)
		before := fc.Now()
		charge := e.Acquire(leaf) // over budget: must wait for the roll
		if waited := fc.Now().Sub(before); waited <= 0 {
			t.Fatalf("window %d: over-budget acquire admitted without delay", w)
		}
		charge(0) // admit-only probe; leaves the fresh window's budget intact
	}
	want := time.Duration(3) * budget
	if got := time.Duration(leaf.Usage().CPU()); got != want {
		t.Fatalf("charged %v across 3 windows, want %v", got, want)
	}
}

func TestDoBracketsAndCharges(t *testing.T) {
	fc := &VirtualClock{}
	e := New(fc, 10*time.Millisecond)
	c := rc.MustNew(nil, rc.TimeShare, "c", rc.Attributes{Priority: 1})
	charge := e.Acquire(c)
	start := fc.Now()
	fc.Sleep(2 * time.Millisecond)
	charge(fc.Now().Sub(start))
	if got := time.Duration(c.Usage().CPU()); got != 2*time.Millisecond {
		t.Fatalf("bracketed section charged %v, want 2ms", got)
	}
}

func TestChargeNegativeIgnored(t *testing.T) {
	e := New(&VirtualClock{}, time.Millisecond)
	c := rc.MustNew(nil, rc.TimeShare, "c", rc.Attributes{Priority: 1})
	e.Acquire(c)(-time.Second)
	if c.Usage().CPU() != 0 {
		t.Fatal("negative charge applied")
	}
}

func TestChargeAfterDestroyIsSafe(t *testing.T) {
	e := New(&VirtualClock{}, time.Millisecond)
	c := rc.MustNew(nil, rc.TimeShare, "c", rc.Attributes{Priority: 1})
	charge := e.Acquire(c)
	_ = c.Release()
	charge(time.Millisecond) // must not panic
}

func TestDefaults(t *testing.T) {
	e := New(nil, 0)
	if e.Window() != DefaultWindow {
		t.Fatalf("window %v", e.Window())
	}
	// Real clock path: an unlimited acquire is immediate.
	c := rc.MustNew(nil, rc.TimeShare, "c", rc.Attributes{Priority: 1})
	start := time.Now()
	e.Acquire(c)(0)
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("real-clock unlimited acquire stalled")
	}
}

// Concurrency: goroutines hammering a capped container stay within the
// budget rate, and the enforcer survives the race detector.
func TestConcurrentEnforcement(t *testing.T) {
	e := New(RealClock{}, 20*time.Millisecond)
	capped := rc.MustNew(nil, rc.FixedShare, "capped", rc.Attributes{Limit: 0.5})
	leaf := rc.MustNew(capped, rc.TimeShare, "leaf", rc.Attributes{Priority: 1})
	var granted atomic.Int64
	const workers = 4
	const workUnit = 2 * time.Millisecond
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				charge := e.Acquire(leaf)
				// Simulate work by charging without actually burning CPU.
				charge(workUnit)
				granted.Add(int64(workUnit))
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	// Budget: 50% of 300 ms = 150 ms (+ slack for window boundaries and
	// scheduling jitter on a loaded CI machine).
	if got := time.Duration(granted.Load()); got > 260*time.Millisecond {
		t.Fatalf("granted %v of charged work in 300ms at a 50%% cap", got)
	}
	if granted.Load() == 0 {
		t.Fatal("no work admitted at all")
	}
}
