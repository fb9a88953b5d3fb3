package kernel

import (
	"testing"

	"rescon/internal/netsim"
	"rescon/internal/rc"
	"rescon/internal/sim"
)

func TestSocketBufferMemoryAdmission(t *testing.T) {
	// §4.4: socket-buffer memory is charged to the socket's container;
	// a subtree at its memory limit refuses further connections.
	eng, k := newKernel(ModeRC)
	// Room for exactly 2 connections.
	lim := rc.MustNew(nil, rc.FixedShare, "guest",
		rc.Attributes{MemLimit: 2 * SocketBufferBytes})
	sockCont := rc.MustNew(lim, rc.TimeShare, "sock", rc.Attributes{Priority: 5})
	accepted, drops := 0, 0
	_, err := k.Listen(k.NewProcess("httpd"), ListenConfig{
		Local:        srvAddr,
		Container:    sockCont,
		OnAcceptable: func(l *ListenSocket) { l.Accept(); accepted++ },
		OnSynDrop:    func(Address) { drops++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		k.ClientSend(SYNPacket(client(uint16(3000+i)), srvAddr, false))
	}
	eng.Run()
	if accepted != 2 {
		t.Fatalf("accepted %d, want 2 (memory limit)", accepted)
	}
	if drops != 2 {
		t.Fatalf("drops %d, want 2", drops)
	}
	if got := lim.Usage().Memory; got != 2*SocketBufferBytes {
		t.Fatalf("memory charged %d, want %d", got, 2*SocketBufferBytes)
	}
}

func TestSocketBufferMemoryReleasedOnClose(t *testing.T) {
	eng, k := newKernel(ModeRC)
	lim := rc.MustNew(nil, rc.FixedShare, "guest",
		rc.Attributes{MemLimit: SocketBufferBytes})
	sockCont := rc.MustNew(lim, rc.TimeShare, "sock", rc.Attributes{Priority: 5})
	var conns []*Conn
	accepted := 0
	_, _ = k.Listen(k.NewProcess("httpd"), ListenConfig{
		Local:     srvAddr,
		Container: sockCont,
		OnAcceptable: func(l *ListenSocket) {
			c, ok := l.Accept()
			if ok {
				conns = append(conns, c)
				accepted++
			}
		},
	})
	k.ClientSend(SYNPacket(client(1), srvAddr, false))
	eng.RunUntil(sim.Time(5 * sim.Millisecond))
	if accepted != 1 {
		t.Fatalf("accepted %d", accepted)
	}
	// Second connection refused while the first holds the buffer...
	k.ClientSend(SYNPacket(client(2), srvAddr, false))
	eng.RunUntil(sim.Time(10 * sim.Millisecond))
	if accepted != 1 {
		t.Fatalf("accepted %d, want still 1", accepted)
	}
	// ...and admitted after it closes.
	conns[0].Close()
	if lim.Usage().Memory != 0 {
		t.Fatalf("memory not released: %d", lim.Usage().Memory)
	}
	k.ClientSend(SYNPacket(client(3), srvAddr, false))
	eng.Run()
	if accepted != 2 {
		t.Fatalf("accepted %d, want 2 after release", accepted)
	}
}

func TestQoSWeightedProtocolService(t *testing.T) {
	// Two containers at equal priority with QoS weights 1 and 3: under a
	// standing backlog, protocol processing divides ~1:3 (§4.1 "network
	// QoS values").
	eng, k := newKernel(ModeRC)
	p := k.NewProcess("httpd")
	light := rc.MustNew(nil, rc.TimeShare, "light", rc.Attributes{Priority: 5, QoSWeight: 1})
	heavy := rc.MustNew(nil, rc.TimeShare, "heavy", rc.Attributes{Priority: 5, QoSWeight: 3})
	var conns []*Conn
	_, _ = k.Listen(p, ListenConfig{
		Local: srvAddr,
		OnAcceptable: func(l *ListenSocket) {
			c, _ := l.Accept()
			if len(conns) == 0 {
				c.SetContainer(light)
			} else {
				c.SetContainer(heavy)
			}
			conns = append(conns, c)
		},
	})
	k.ClientSend(SYNPacket(client(1), srvAddr, false))
	k.ClientSend(SYNPacket(client(2), srvAddr, false))
	eng.RunUntil(sim.Time(50 * sim.Millisecond))
	if len(conns) != 2 {
		t.Fatalf("conns %d", len(conns))
	}
	// Offer more protocol work than the CPU can process (45 µs per
	// packet, two packets every 50 µs), so the bounded queues stay full
	// and the weighted-fair order decides which work gets done.
	tick := eng.Every(50*sim.Microsecond, func() {
		k.Arrive(DataPacket(client(1), srvAddr, conns[0].ID(), 100, nil))
		k.Arrive(DataPacket(client(2), srvAddr, conns[1].ID(), 100, nil))
	})
	eng.RunUntil(sim.Time(3 * sim.Second))
	tick.Stop()
	lu := light.Usage().CPUKernel
	hu := heavy.Usage().CPUKernel
	if lu == 0 || hu == 0 {
		t.Fatalf("no protocol service recorded: light=%v heavy=%v", lu, hu)
	}
	ratio := float64(hu) / float64(lu)
	if ratio < 2.4 || ratio > 3.6 {
		t.Fatalf("QoS service ratio %.2f, want ~3.0", ratio)
	}
}

func TestQoSDefaultWeightEqualService(t *testing.T) {
	// Default weights: equal-priority backlogged flows share equally.
	eng, k := newKernel(ModeRC)
	p := k.NewProcess("httpd")
	a := rc.MustNew(nil, rc.TimeShare, "a", rc.Attributes{Priority: 5})
	b := rc.MustNew(nil, rc.TimeShare, "b", rc.Attributes{Priority: 5})
	var conns []*Conn
	_, _ = k.Listen(p, ListenConfig{
		Local: srvAddr,
		OnAcceptable: func(l *ListenSocket) {
			c, _ := l.Accept()
			if len(conns) == 0 {
				c.SetContainer(a)
			} else {
				c.SetContainer(b)
			}
			conns = append(conns, c)
		},
	})
	k.ClientSend(SYNPacket(client(1), srvAddr, false))
	k.ClientSend(SYNPacket(client(2), srvAddr, false))
	eng.RunUntil(sim.Time(50 * sim.Millisecond))
	tick := eng.Every(50*sim.Microsecond, func() {
		k.Arrive(DataPacket(client(1), srvAddr, conns[0].ID(), 100, nil))
		k.Arrive(DataPacket(client(2), srvAddr, conns[1].ID(), 100, nil))
	})
	eng.RunUntil(sim.Time(3 * sim.Second))
	tick.Stop()
	au, bu := a.Usage().CPUKernel, b.Usage().CPUKernel
	ratio := float64(au) / float64(bu)
	if ratio < 0.85 || ratio > 1.18 {
		t.Fatalf("equal-weight service ratio %.2f, want ~1.0", ratio)
	}
}

func TestMemoryAdmissionOnlyInRCMode(t *testing.T) {
	// Without containers there is no memory admission: the unmodified
	// kernel accepts regardless.
	eng, k := newKernel(ModeUnmodified)
	accepted := 0
	_, _ = k.Listen(k.NewProcess("httpd"), ListenConfig{
		Local:        srvAddr,
		OnAcceptable: func(l *ListenSocket) { l.Accept(); accepted++ },
	})
	for i := 0; i < 8; i++ {
		k.ClientSend(SYNPacket(client(uint16(i)), srvAddr, false))
	}
	eng.Run()
	if accepted != 8 {
		t.Fatalf("accepted %d, want 8", accepted)
	}
}

func TestIdleWorkYieldsToNormalPackets(t *testing.T) {
	// A half-processed priority-0 packet is parked when normal-priority
	// protocol work arrives (§4.7 strict priority order), and finishes
	// later.
	eng, k := newKernel(ModeRC)
	p := k.NewProcess("httpd")
	floodCont := rc.MustNew(nil, rc.TimeShare, "flood", rc.Attributes{Priority: 0})
	var accepts []string
	mkListener := func(name string, filter netsim.Filter, cont *rc.Container) {
		_, err := k.Listen(p, ListenConfig{
			Local:     srvAddr,
			Filter:    filter,
			Container: cont,
			OnAcceptable: func(l *ListenSocket) {
				l.Accept()
				accepts = append(accepts, name)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	mkListener("good", netsim.Wildcard, nil)
	mkListener("flood", FilterCIDR("66.0.0.0", 8), floodCont)

	// A legit SYN from the flood prefix starts 107 µs of priority-0
	// protocol work; 30 µs in, a good SYN arrives. The good connection
	// must be established first.
	k.Arrive(SYNPacket(Addr("66.0.0.1", 99), srvAddr, false))
	eng.After(30*sim.Microsecond, func() {
		k.Arrive(SYNPacket(Addr("10.1.0.1", 99), srvAddr, false))
	})
	eng.Run()
	if len(accepts) != 2 || accepts[0] != "good" || accepts[1] != "flood" {
		t.Fatalf("accept order %v, want [good flood]", accepts)
	}
}

func TestKernelAccessors(t *testing.T) {
	eng, k := newKernel(ModeRC)
	if k.Engine() != eng || k.Mode() != ModeRC || k.Scheduler() == nil {
		t.Fatal("accessors broken")
	}
	// The calibration costs.go documents (§5.2–§5.3, Fig. 14).
	perConn := InterruptCost + SYNProtocolCost + ConnSetupCost
	perReq := InterruptCost + RecvProtocolCost + UserStaticCost + SendProtocolCost
	if perConn != 233*sim.Microsecond || perConn+perReq != 338*sim.Microsecond {
		t.Fatalf("non-persistent request costs %v + %v, want 233 µs + 105 µs = 338 µs", perConn, perReq)
	}
	if perReq != 105*sim.Microsecond {
		t.Fatalf("persistent request costs %v, want 105 µs", perReq)
	}
	if f := InterruptCost + DemuxCost; f != 3800*sim.Nanosecond {
		t.Fatalf("interrupt + demux = %v, want 3.8 µs", f)
	}
	p := k.NewProcess("app")
	if p.Name() != "app" {
		t.Fatal("process name")
	}
	th := p.NewThread("t")
	if th.Process() != p {
		t.Fatal("thread process")
	}
	var conn *Conn
	ls, _ := k.Listen(p, ListenConfig{
		Local:        srvAddr,
		OnAcceptable: func(l *ListenSocket) { conn, _ = l.Accept() },
	})
	k.ClientSend(SYNPacket(client(1), srvAddr, false))
	eng.Run()
	if conn.FD() == 0 || conn.Process() != p {
		t.Fatal("conn accessors")
	}
	if ls.Pending() != 0 {
		t.Fatal("accept queue should be drained")
	}
	if k.cpu.BusyTime() < 0 {
		t.Fatal("busy time")
	}
	d := k.Disk()
	if d.QueueLen() != 0 || d.BusyTime() != 0 {
		t.Fatal("fresh disk state")
	}
	if p.netQ.Len() != 0 {
		t.Fatal("pending packets on idle kernel")
	}
}
