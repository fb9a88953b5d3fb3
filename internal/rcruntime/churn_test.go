package rcruntime

import (
	"net"
	"sync"
	"testing"
	"time"

	"rescon/internal/rc"
)

// TestEnforcerPruneSweepsDestroyed: destroyed containers do not pin
// snapshot-table memory once the prune threshold is crossed, even when
// the window never rolls.
func TestEnforcerPruneSweepsDestroyed(t *testing.T) {
	fc := &VirtualClock{}
	e := New(fc, time.Hour) // a window that never rolls inside the test
	root := rc.MustNew(nil, rc.FixedShare, "root", rc.Attributes{})
	keeper := rc.MustNew(root, rc.FixedShare, "keeper", rc.Attributes{Limit: 0.5})

	// Populate a snapshot per short-lived limited leaf, then destroy them.
	var doomed []*rc.Container
	for i := 0; i < 70; i++ {
		c := rc.MustNew(root, rc.FixedShare, "tenant", rc.Attributes{Limit: 0.01})
		doomed = append(doomed, c)
		if _, ok := e.AcquireFor(c, 0); !ok {
			t.Fatalf("fresh leaf %d not admitted", i)
		}
	}
	for _, c := range doomed {
		e.Sync(func() {
			if err := c.Release(); err != nil {
				t.Errorf("release: %v", err)
			}
		})
	}

	// Arm the next sweep (the threshold self-tunes upward as the table
	// grows, so force it for determinism) and trigger it with one
	// ordinary admission.
	e.Sync(func() { e.pruneAt = len(e.snapshots) })
	if _, ok := e.AcquireFor(keeper, 0); !ok {
		t.Fatal("keeper not admitted")
	}

	var live int
	e.Sync(func() {
		live = len(e.snapshots)
		for c := range e.snapshots {
			if c.Destroyed() {
				t.Errorf("destroyed container %s survived the prune", c.Name())
			}
		}
		if e.pruneAt != minPruneSize {
			t.Errorf("pruneAt = %d after sweep, want reset to %d", e.pruneAt, minPruneSize)
		}
	})
	if live > 1 {
		t.Fatalf("%d snapshots survive, want only the keeper's", live)
	}
}

// TestEnforcerChurnRace hammers the enforcer with concurrent admissions,
// charges, and Sync'd container create/destroy churn — the tenant-reaper
// pattern — under the race detector and a real clock with a tiny window
// so rolls, prunes, and waiter wakeups all interleave.
func TestEnforcerChurnRace(t *testing.T) {
	e := New(nil, 200*time.Microsecond)
	root := rc.MustNew(nil, rc.FixedShare, "root", rc.Attributes{})
	capped := rc.MustNew(root, rc.FixedShare, "capped", rc.Attributes{Limit: 0.5})
	stable := make([]*rc.Container, 4)
	for i := range stable {
		stable[i] = rc.MustNew(capped, rc.TimeShare, "stable", rc.Attributes{Priority: 1})
	}

	var wg sync.WaitGroup
	// Churners: create a leaf, run work through it, destroy it.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var leaf *rc.Container
				e.Sync(func() {
					leaf = rc.MustNew(capped, rc.TimeShare, "churn", rc.Attributes{Priority: 1})
				})
				if charge, ok := e.AcquireFor(leaf, time.Millisecond); ok {
					charge(20 * time.Microsecond)
				}
				e.Sync(func() { _ = leaf.Release() })
				// A charge landing after destruction must be ignored, not
				// crash or corrupt.
				e.Charge(leaf, 10*time.Microsecond)
			}
		}()
	}
	// Workers: admissions and probes against long-lived tenants.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(c *rc.Container) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if charge, ok := e.AcquireFor(c, 500*time.Microsecond); ok {
					charge(10 * time.Microsecond)
				}
				_ = e.OverBudget(c)
				_ = e.WindowRemaining()
			}
		}(stable[g%len(stable)])
	}
	wg.Wait()

	if got := time.Duration(root.Usage().CPU()); got == 0 {
		t.Fatal("no work was ever charged through the churned hierarchy")
	}
	e.Sync(func() {
		for c := range e.waiters {
			if c.Destroyed() {
				t.Errorf("destroyed container %s still holds parked waiters", c.Name())
			}
		}
	})
}

// TestListenerDoubleClose: the policed wrapper absorbs repeated closes,
// so a Shutdown racing an explicit Close never surfaces a spurious
// "use of closed network connection".
func TestListenerDoubleClose(t *testing.T) {
	root := rc.MustNew(nil, rc.FixedShare, "root", rc.Attributes{})
	rt := MustNewRuntime(Config{Root: root})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := rt.Listener(inner)
	if err := ln.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := ln.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := ln.Accept(); err == nil {
		t.Fatal("accept on a closed listener succeeded")
	}
}

// TestGovernedConnCloseOnce: the inflight gauge is decremented exactly
// once no matter how many times a connection is closed — an HTTP server
// and a deferred cleanup both closing must not drive it negative.
func TestGovernedConnCloseOnce(t *testing.T) {
	root := rc.MustNew(nil, rc.FixedShare, "root", rc.Attributes{})
	rt := MustNewRuntime(Config{Root: root})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := rt.Listener(inner)
	defer ln.Close()
	conns := acceptLoop(t, ln)

	client := dial(t, inner.Addr().String())
	defer client.Close()
	conn := <-conns
	if got := rt.Stats().Inflight; got != 1 {
		t.Fatalf("inflight = %d after accept, want 1", got)
	}
	for i := 0; i < 3; i++ {
		if err := conn.Close(); err != nil && i == 0 {
			t.Fatalf("close: %v", err)
		}
	}
	if got := rt.Stats().Inflight; got != 0 {
		t.Fatalf("inflight = %d after triple close, want 0", got)
	}
	if got := rt.Stats().Accepted; got != 1 {
		t.Fatalf("accepted = %d, want 1", got)
	}
}
