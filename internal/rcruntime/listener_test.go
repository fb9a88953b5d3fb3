package rcruntime

import (
	"io"
	"net"
	"testing"
	"time"

	"rescon/internal/rc"
)

// acceptLoop accepts in the background, delivering governed conns.
func acceptLoop(t *testing.T, ln net.Listener) <-chan net.Conn {
	t.Helper()
	ch := make(chan net.Conn, 16)
	go func() {
		defer close(ch)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			ch <- c
		}
	}()
	return ch
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// refusedByPeer reports whether the peer closed the connection without
// sending anything — what a policed refusal looks like from the client.
func refusedByPeer(c net.Conn) bool {
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	_, err := c.Read(buf)
	return err == io.EOF || err != nil && !err.(net.Error).Timeout()
}

// TestListenerMaxConns: the connection cap refuses the third concurrent
// connection, and closing an admitted one restores headroom.
func TestListenerMaxConns(t *testing.T) {
	root := rc.MustNew(nil, rc.FixedShare, "root", rc.Attributes{})
	rt := MustNewRuntime(Config{
		Root:   root,
		Policy: AcceptPolicy{Enabled: true, MaxConns: 2},
	})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	ln := rt.Listener(inner)
	conns := acceptLoop(t, ln)
	addr := inner.Addr().String()

	c1, c2 := dial(t, addr), dial(t, addr)
	defer c1.Close()
	defer c2.Close()
	s1, s2 := <-conns, <-conns
	defer s2.Close()
	if got := rt.Stats(); got.Accepted != 2 || got.Inflight != 2 {
		t.Fatalf("stats after two accepts: %+v", got)
	}

	c3 := dial(t, addr)
	defer c3.Close()
	if !refusedByPeer(c3) {
		t.Fatal("third connection was not refused at the cap")
	}
	if got := rt.Stats(); got.Refused != 1 {
		t.Fatalf("stats after refusal: %+v", got)
	}

	// Closing an admitted connection restores headroom. Double-close must
	// not double-decrement.
	_ = s1.Close()
	_ = s1.Close()
	if got := rt.Stats(); got.Inflight != 1 {
		t.Fatalf("inflight after close: %+v", got)
	}
	c4 := dial(t, addr)
	defer c4.Close()
	s4 := <-conns
	defer s4.Close()
	if got := rt.Stats(); got.Accepted != 3 || got.Inflight != 2 {
		t.Fatalf("stats after re-admission: %+v", got)
	}
}

// TestListenerFrac: with Frac 0.5 of MaxConns 4, the cap bites at two
// inflight connections — shed before the hard bound, like the kernel's
// SYNFrac.
func TestListenerFrac(t *testing.T) {
	root := rc.MustNew(nil, rc.FixedShare, "root", rc.Attributes{})
	rt := MustNewRuntime(Config{
		Root:   root,
		Policy: AcceptPolicy{Enabled: true, MaxConns: 4, Frac: 0.5},
	})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	conns := acceptLoop(t, rt.Listener(inner))
	addr := inner.Addr().String()

	c1, c2 := dial(t, addr), dial(t, addr)
	defer c1.Close()
	defer c2.Close()
	s1, s2 := <-conns, <-conns
	defer s1.Close()
	defer s2.Close()
	c3 := dial(t, addr)
	defer c3.Close()
	if !refusedByPeer(c3) {
		t.Fatal("connection beyond Frac×MaxConns was not refused")
	}
}

// TestListenerOverBudget: with OverBudgetOf pointed at a capped subtree,
// new connections are refused exactly while that subtree is over its
// window budget — and admitted again after the roll. The fake clock
// makes the budget state deterministic.
func TestListenerOverBudget(t *testing.T) {
	fc := &VirtualClock{}
	root, leaf := testTree(t, 0.5)
	rt := MustNewRuntime(Config{
		Root:   root,
		Window: 10 * time.Millisecond,
		Policy: AcceptPolicy{Enabled: true, OverBudgetOf: leaf},
	}, WithClock(fc))
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	conns := acceptLoop(t, rt.Listener(inner))
	addr := inner.Addr().String()

	// Under budget: admitted.
	c1 := dial(t, addr)
	defer c1.Close()
	s1 := <-conns
	defer s1.Close()

	// Exhaust the subtree budget (Limit 0.5 × 10ms = 5ms).
	rt.Enforcer().Acquire(leaf)(5 * time.Millisecond)
	c2 := dial(t, addr)
	defer c2.Close()
	if !refusedByPeer(c2) {
		t.Fatal("connection admitted while the watched subtree was over budget")
	}
	// The roll restores accepts.
	fc.Sleep(11 * time.Millisecond)
	c3 := dial(t, addr)
	defer c3.Close()
	s3 := <-conns
	defer s3.Close()
	if got := rt.Stats(); got.Refused != 1 || got.Accepted != 2 {
		t.Fatalf("stats = %+v, want 1 refused / 2 accepted", got)
	}
}
