package rcruntime

import (
	"fmt"
	"net"
	"sync/atomic"

	"rescon/internal/rc"
)

// AcceptPolicy is admission control at the real server's accept path —
// the userspace mirror of kernel.Policing. A refused connection is
// closed immediately, for the cost of a close(2) alone, before any bytes
// are read or a handler goroutine is spawned: the same "drop new work
// early, before investing in it" move as the kernel's SYN drop (§5.7).
type AcceptPolicy struct {
	// Enabled is the master switch; a zero policy refuses nothing.
	Enabled bool
	// MaxConns caps concurrent governed connections: a new connection is
	// refused while MaxConns are already open. 0 disables the cap.
	MaxConns int
	// OverBudgetOf, when non-nil, refuses new connections while this
	// container's subtree is over its window budget. Point it at a known
	// abuser (or the whole root under brownout) to shed that load at
	// accept time; established connections are untouched — in-progress
	// work proceeds, new work is refused, exactly the §5.7 policy.
	OverBudgetOf *rc.Container
}

func (p AcceptPolicy) validate() error {
	if p.MaxConns < 0 {
		return fmt.Errorf("%w: negative Policy.MaxConns %d", ErrBadConfig, p.MaxConns)
	}
	if p.Enabled && p.MaxConns == 0 && p.OverBudgetOf == nil {
		return fmt.Errorf("%w: enabled Policy needs MaxConns or OverBudgetOf", ErrBadConfig)
	}
	return nil
}

// refuseAccept decides a new connection's fate under the live policy.
// A draining runtime refuses everything: stop accepting is the first
// phase of graceful shutdown.
func (rt *Runtime) refuseAccept() bool {
	if rt.draining.Load() {
		return true
	}
	p := *rt.policy.Load()
	if !p.Enabled {
		return false
	}
	if p.MaxConns > 0 && rt.inflight.Load() >= int64(p.MaxConns) {
		return true
	}
	if p.OverBudgetOf != nil && rt.enf.OverBudget(p.OverBudgetOf) {
		return true
	}
	return false
}

// Listener wraps ln with the runtime's AcceptPolicy: connections refused
// by the policy are closed on accept and counted in Stats().Refused;
// admitted connections are tracked so MaxConns can bound concurrency.
// Pass the result to http.Server.Serve. The wrapper's Close is
// idempotent, and Shutdown closes every listener the runtime handed
// out.
func (rt *Runtime) Listener(ln net.Listener) net.Listener {
	pl := &policedListener{Listener: ln, rt: rt}
	rt.trackListener(pl)
	return pl
}

type policedListener struct {
	net.Listener
	rt     *Runtime
	closed atomic.Bool
}

// Close implements net.Listener; repeated closes are no-ops so a
// Shutdown racing an explicit Close (or a double defer) never surfaces
// a spurious "use of closed network connection" error.
func (l *policedListener) Close() error {
	if !l.closed.CompareAndSwap(false, true) {
		return nil
	}
	return l.Listener.Close()
}

// Accept implements net.Listener, refusing connections per the policy.
func (l *policedListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.rt.refuseAccept() {
			l.rt.refused.Add(1)
			_ = conn.Close()
			continue
		}
		l.rt.accepted.Add(1)
		l.rt.inflight.Add(1)
		return &governedConn{Conn: conn, rt: l.rt}, nil
	}
}

// governedConn decrements the inflight gauge exactly once on close.
type governedConn struct {
	net.Conn
	rt     *Runtime
	closed atomic.Bool
}

// Close implements net.Conn.
func (c *governedConn) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		c.rt.inflight.Add(-1)
	}
	return c.Conn.Close()
}
