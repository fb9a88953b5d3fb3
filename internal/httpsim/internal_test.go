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
	k := kernel.New(eng, kernel.ModeRC, kernel.DefaultCosts())
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
	k := kernel.New(eng, kernel.ModeUnmodified, kernel.DefaultCosts())
	s := &Server{cfg: Config{Kernel: k}, k: k}
	s.pending = []*event{{seq: 0}, {seq: 1}}
	if ev := s.takeBest(); ev.seq != 0 {
		t.Fatalf("unmodified kernel should dequeue FIFO, got seq %d", ev.seq)
	}
}

func TestTakeBestEmpty(t *testing.T) {
	eng := sim.NewEngine(1)
	k := kernel.New(eng, kernel.ModeRC, kernel.DefaultCosts())
	s := &Server{cfg: Config{Kernel: k}, k: k}
	if s.takeBest() != nil {
		t.Fatal("takeBest on empty pending should return nil")
	}
}

func TestEventPriorityFallsBackToZero(t *testing.T) {
	eng := sim.NewEngine(1)
	k := kernel.New(eng, kernel.ModeUnmodified, kernel.DefaultCosts())
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
