package httpsim

// White-box tests of the event loop internals.

import (
	"fmt"
	"math"
	"testing"

	"rescon/internal/kernel"
	"rescon/internal/rc"
	"rescon/internal/sim"
)

func TestSortEventsFDOrder(t *testing.T) {
	evs := []*event{
		{fd: 7, seq: 1},
		{fd: 0, seq: 2},
		{fd: 3, seq: 0},
		{fd: 0, seq: 1},
	}
	sortEvents(evs)
	want := []struct{ fd, seq int }{{0, 1}, {0, 2}, {3, 0}, {7, 1}}
	for i, w := range want {
		if evs[i].fd != w.fd || evs[i].seq != uint64(w.seq) {
			t.Fatalf("position %d: fd=%d seq=%d, want fd=%d seq=%d",
				i, evs[i].fd, evs[i].seq, w.fd, w.seq)
		}
	}
}

func TestSortEventsStable(t *testing.T) {
	// Equal keys keep arrival order.
	evs := []*event{
		{fd: 1, seq: 0},
		{fd: 1, seq: 1},
		{fd: 1, seq: 2},
	}
	sortEvents(evs)
	for i, e := range evs {
		if e.seq != uint64(i) {
			t.Fatalf("stability violated: %v", evs)
		}
	}
}

func TestTakeBestPriorityOrderInRCMode(t *testing.T) {
	eng := sim.NewEngine(1)
	k := kernel.New(eng, kernel.ModeRC)
	s := &Server{cfg: Config{Kernel: k}, k: k}
	hi := rc.MustNew(nil, rc.TimeShare, "hi", rc.Attributes{Priority: 30})
	lo := rc.MustNew(nil, rc.TimeShare, "lo", rc.Attributes{Priority: 1})
	mkConn := func(c *rc.Container) *kernel.Conn {
		conn := &kernel.Conn{}
		conn.SetContainer(c)
		return conn
	}
	s.pending = []*event{
		{conn: mkConn(lo), seq: 0},
		{conn: mkConn(hi), seq: 1},
		{conn: mkConn(lo), seq: 2},
	}
	ev := s.takeBest()
	if ev.seq != 1 {
		t.Fatalf("takeBest picked seq %d, want the high-priority event", ev.seq)
	}
	if len(s.pending) != 2 {
		t.Fatalf("pending %d after take", len(s.pending))
	}
}

func TestTakeBestFIFOWithoutContainers(t *testing.T) {
	eng := sim.NewEngine(1)
	k := kernel.New(eng, kernel.ModeUnmodified)
	s := &Server{cfg: Config{Kernel: k}, k: k}
	s.pending = []*event{{seq: 0}, {seq: 1}}
	if ev := s.takeBest(); ev.seq != 0 {
		t.Fatalf("unmodified kernel should dequeue FIFO, got seq %d", ev.seq)
	}
}

func TestTakeBestEmpty(t *testing.T) {
	eng := sim.NewEngine(1)
	k := kernel.New(eng, kernel.ModeRC)
	s := &Server{cfg: Config{Kernel: k}, k: k}
	if s.takeBest() != nil {
		t.Fatal("takeBest on empty pending should return nil")
	}
}

func TestEventPriorityFallsBackToZero(t *testing.T) {
	eng := sim.NewEngine(1)
	k := kernel.New(eng, kernel.ModeUnmodified)
	s := &Server{cfg: Config{Kernel: k}, k: k}
	if got := s.eventPriority(&event{conn: &kernel.Conn{}}); got != 0 {
		t.Fatalf("priority of container-less event: %d", got)
	}
}

// connContainerName must render exactly what fmt's %d did, with the
// string as its only allocation.
func TestConnContainerName(t *testing.T) {
	for _, id := range []uint64{0, 7, 1000, 1<<32 + 1, math.MaxUint64} {
		if got, want := connContainerName(id), fmt.Sprintf("conn-%d", id); got != want {
			t.Errorf("connContainerName(%d) = %q, want %q", id, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = connContainerName(123456) }); allocs > 1 {
		t.Errorf("connContainerName allocates %.0f objects, want at most 1", allocs)
	}
}

// peerCloseRig is an RC-mode kernel whose one client connects to the
// server at 10.0.0.1:80 over conn.
type peerCloseRig struct {
	eng  *sim.Engine
	k    *kernel.Kernel
	src  kernel.Address
	conn *kernel.Conn
}

func newPeerCloseRig() *peerCloseRig {
	eng := sim.NewEngine(1)
	return &peerCloseRig{eng: eng, k: kernel.New(eng, kernel.ModeRC), src: kernel.Addr("10.1.0.1", 1025)}
}

// connect establishes the client's connection and runs d.
func (r *peerCloseRig) connect(t *testing.T, d sim.Duration) {
	t.Helper()
	r.k.ClientSend(kernel.ConnectPacket(r.src, kernel.Addr("10.0.0.1", 80), func(c *kernel.Conn) { r.conn = c }))
	r.eng.RunUntil(r.eng.Now().Add(d))
	if r.conn == nil {
		t.Fatal("connection not established")
	}
}

// fin closes the connection from the client side and runs 10 ms.
func (r *peerCloseRig) fin() {
	r.k.ClientSend(kernel.FINPacket(r.src, kernel.Addr("10.0.0.1", 80), r.conn.ID()))
	r.eng.RunUntil(r.eng.Now().Add(10 * sim.Millisecond))
}

// A connection the client closes releases the server's state for it: the
// descriptor leaves the open count (which prices select) and the
// per-connection container is destroyed.
func TestPeerCloseReleasesServerState(t *testing.T) {
	for _, api := range []API{SelectAPI, EventAPI} {
		t.Run(api.String(), func(t *testing.T) {
			r := newPeerCloseRig()
			s, err := NewServer(Config{Kernel: r.k, Addr: kernel.Addr("10.0.0.1", 80), API: api, PerConnContainers: true})
			if err != nil {
				t.Fatal(err)
			}
			r.connect(t, 10*sim.Millisecond)
			cc := r.conn.Container()
			if s.openConns != 1 || cc == nil || cc == s.defaultContainer() {
				t.Fatalf("after accept: %d open, container %v; want 1 and a per-connection container", s.openConns, cc)
			}
			r.fin()
			if r.k.OpenConns() != 0 {
				t.Fatalf("kernel still has %d open connections", r.k.OpenConns())
			}
			if s.openConns != 0 {
				t.Errorf("server counts %d open connections after the client closed its only one", s.openConns)
			}
			if !cc.Destroyed() {
				t.Error("per-connection container outlived the connection")
			}
		})
	}
}

// A connection the client closes while it waits in the accept queue is
// never counted as open and gets no container.
func TestPeerCloseBeforeAccept(t *testing.T) {
	r := newPeerCloseRig()
	s, err := NewServer(Config{Kernel: r.k, Addr: kernel.Addr("10.0.0.1", 80), API: EventAPI, PerConnContainers: true})
	if err != nil {
		t.Fatal(err)
	}
	// The client's listener outranks the server's busy main thread, so
	// the kernel network thread establishes the connection and processes
	// its FIN while the connection waits in the accept queue.
	hi := rc.MustNew(nil, rc.TimeShare, "clients", rc.Attributes{Priority: 20})
	ls, err := s.AddListener(kernel.FilterCIDR("10.1.0.0", 16), hi)
	if err != nil {
		t.Fatal(err)
	}
	s.thread.PostFunc("busy", 30*sim.Millisecond, rc.UserCPU, s.defaultContainer(), nil)
	r.connect(t, 3*sim.Millisecond)
	if ls.Pending() != 1 {
		t.Fatalf("accept queue holds %d connections, want the client's", ls.Pending())
	}
	r.fin()
	if !r.conn.Closed() || ls.Pending() != 1 {
		t.Fatalf("closed %v with %d pending; want the closed connection still queued", r.conn.Closed(), ls.Pending())
	}
	r.eng.RunUntil(r.eng.Now().Add(30 * sim.Millisecond))
	if ls.Accepted() != 1 || ls.Pending() != 0 {
		t.Fatalf("accepted %d with %d pending, want the connection taken off the queue", ls.Accepted(), ls.Pending())
	}
	if s.openConns != 0 || r.conn.Container() != hi {
		t.Fatalf("%d open and container %v after accepting a closed connection; want 0 and the listener's", s.openConns, r.conn.Container())
	}
}

// The multi-threaded server releases a client-closed connection too.
func TestMTServerPeerCloseReleasesState(t *testing.T) {
	r := newPeerCloseRig()
	s, err := NewMTServer(Config{Kernel: r.k, Addr: kernel.Addr("10.0.0.1", 80), PerConnContainers: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.connect(t, 10*sim.Millisecond)
	cc := r.conn.Container()
	if s.OpenConns() != 1 || cc == nil || cc == s.proc.DefaultContainer {
		t.Fatalf("after accept: %d open, container %v; want 1 and a per-connection container", s.OpenConns(), cc)
	}
	r.fin()
	if s.OpenConns() != 0 || !cc.Destroyed() {
		t.Fatalf("after the client's FIN: %d open, container destroyed %v; want 0 and true", s.OpenConns(), cc.Destroyed())
	}
}
