package rcruntime

import (
	"net"
	"sync"
	"testing"
	"time"

	"rescon/internal/rc"
)

// TestEnforcerChurnRace hammers the enforcer with concurrent admissions,
// charges, and Sync'd container create/destroy churn — the tenant-reaper
// pattern — under the race detector and a real clock with a tiny window
// so rolls, lazy window refreshes and blocked waits all interleave.
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
				if _, ok := e.admit(leaf, time.Millisecond); ok {
					e.Charge(leaf, 20*time.Microsecond)
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
				if _, ok := e.admit(c, 500*time.Microsecond); ok {
					e.Charge(c, 10*time.Microsecond)
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
