package kernel

import (
	"strings"
	"testing"

	"rescon/internal/rc"
	"rescon/internal/sim"
	"rescon/internal/trace"
)

func newKernel(mode Mode) (*sim.Engine, *Kernel) {
	eng := sim.NewEngine(1)
	return eng, New(eng, mode, DefaultCosts())
}

// traceInterrupts attaches a tracer that records only interrupt starts.
func traceInterrupts(k *Kernel) {
	k.Tracer = trace.New(64)
	k.Tracer.Filter = map[trace.Kind]bool{trace.KindInterrupt: true}
}

// interruptStarts lists the traced interrupts as "label@start".
func interruptStarts(k *Kernel) string {
	var out []string
	for _, e := range k.Tracer.Events() {
		out = append(out, e.Detail+"@"+e.At.String())
	}
	return strings.Join(out, " ")
}

func TestModeString(t *testing.T) {
	if ModeUnmodified.String() != "Unmodified" || ModeLRP.String() != "LRP" || ModeRC.String() != "RC" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatal("unknown mode formatting")
	}
}

func TestPostAndComplete(t *testing.T) {
	eng, k := newKernel(ModeUnmodified)
	p := k.NewProcess("p")
	th := p.NewThread("t")
	var done []string
	th.PostFunc("a", 3*sim.Millisecond, rc.UserCPU, nil, func() { done = append(done, "a") })
	th.PostFunc("b", sim.Millisecond, rc.UserCPU, nil, func() { done = append(done, "b") })
	eng.Run()
	if len(done) != 2 || done[0] != "a" || done[1] != "b" {
		t.Fatalf("completion order %v", done)
	}
	if eng.Now() != sim.Time(4*sim.Millisecond) {
		t.Fatalf("clock %v, want 4ms", eng.Now())
	}
	if th.CPUTime() != 4*sim.Millisecond || p.CPUTime() != 4*sim.Millisecond {
		t.Fatalf("cpu accounting: thread %v proc %v", th.CPUTime(), p.CPUTime())
	}
}

func TestZeroCostWorkCompletes(t *testing.T) {
	eng, k := newKernel(ModeUnmodified)
	p := k.NewProcess("p")
	th := p.NewThread("t")
	fired := false
	th.PostFunc("z", 0, rc.UserCPU, nil, func() { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("zero-cost work never completed")
	}
}

func TestWorkChargedToContainer(t *testing.T) {
	eng, k := newKernel(ModeRC)
	p := k.NewProcess("p")
	th := p.NewThread("t")
	c := rc.MustNew(nil, rc.TimeShare, "c", rc.Attributes{Priority: 5})
	th.PostFunc("w", 2*sim.Millisecond, rc.UserCPU, c, nil)
	th.PostFunc("kx", sim.Millisecond, rc.KernelCPU, c, nil)
	eng.Run()
	u := c.Usage()
	if u.CPUUser != 2*sim.Millisecond || u.CPUKernel != sim.Millisecond {
		t.Fatalf("container usage %+v", u)
	}
}

func TestModeRCRequiresContainer(t *testing.T) {
	_, k := newKernel(ModeRC)
	p := k.NewProcess("p")
	th := p.NewThread("t")
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nil-container item in ModeRC")
		}
	}()
	th.PostFunc("bad", sim.Millisecond, rc.UserCPU, nil, nil)
}

func TestTwoProcessesShareCPU(t *testing.T) {
	eng, k := newKernel(ModeUnmodified)
	pa := k.NewProcess("a")
	pb := k.NewProcess("b")
	ta := pa.NewThread("t")
	tb := pb.NewThread("t")
	// Both saturate for the duration.
	ta.PostFunc("wa", 10*sim.Second, rc.UserCPU, nil, nil)
	tb.PostFunc("wb", 10*sim.Second, rc.UserCPU, nil, nil)
	eng.RunUntil(sim.Time(10 * sim.Second))
	ra := float64(pa.CPUTime()) / float64(10*sim.Second)
	rb := float64(pb.CPUTime()) / float64(10*sim.Second)
	if ra < 0.47 || ra > 0.53 || rb < 0.47 || rb > 0.53 {
		t.Fatalf("shares a=%.3f b=%.3f, want ~0.5 each", ra, rb)
	}
}

func TestInterruptPreemptsThread(t *testing.T) {
	eng, k := newKernel(ModeUnmodified)
	p := k.NewProcess("p")
	th := p.NewThread("t")
	traceInterrupts(k)
	var itemDone sim.Time
	th.PostFunc("w", 100*sim.Microsecond, rc.UserCPU, nil, func() { itemDone = eng.Now() })
	// Interrupt arrives mid-item.
	eng.After(50*sim.Microsecond, func() {
		k.cpu.RaiseInterrupt(intrWork{label: "i", cost: 30 * sim.Microsecond})
	})
	var inIntr [2]bool // just before and just after 80µs
	eng.After(80*sim.Microsecond-1, func() { inIntr[0] = k.cpu.inIntr })
	eng.After(80*sim.Microsecond+1, func() { inIntr[1] = k.cpu.inIntr })
	eng.Run()
	if got := interruptStarts(k); got != "i@50µs" {
		t.Fatalf("interrupts %q, want i@50µs", got)
	}
	if inIntr != [2]bool{true, false} {
		t.Fatalf("interrupt level around 80µs %v, want done at 80µs", inIntr)
	}
	if itemDone != sim.Time(130*sim.Microsecond) {
		t.Fatalf("item done at %v, want 130µs (delayed by interrupt)", itemDone)
	}
	if k.InterruptTime() != 30*sim.Microsecond {
		t.Fatalf("interrupt time %v", k.InterruptTime())
	}
	// The preempted thread keeps its already-executed time.
	if th.CPUTime() != 100*sim.Microsecond {
		t.Fatalf("thread cpu %v, want 100µs", th.CPUTime())
	}
}

func TestInterruptsFIFO(t *testing.T) {
	eng, k := newKernel(ModeUnmodified)
	traceInterrupts(k)
	eng.After(0, func() {
		k.cpu.RaiseInterrupt(intrWork{label: "1", cost: 10 * sim.Microsecond})
		k.cpu.RaiseInterrupt(intrWork{label: "2", cost: 10 * sim.Microsecond})
	})
	eng.Run()
	if got := interruptStarts(k); got != "1@0s 2@10µs" {
		t.Fatalf("interrupt order %q", got)
	}
}

func TestMisaccountingChargesPreempted(t *testing.T) {
	// Unmodified mode: interrupt work inflates the preempted process's
	// scheduler usage, shifting CPU away from it (§3.2/§5.6).
	eng, k := newKernel(ModeUnmodified)
	victim := k.NewProcess("victim")
	other := k.NewProcess("other")
	tv := victim.NewThread("t")
	to := other.NewThread("t")
	tv.PostFunc("w", 10*sim.Second, rc.UserCPU, nil, nil)
	to.PostFunc("w", 10*sim.Second, rc.UserCPU, nil, nil)
	// Periodic interrupts that always hit the victim: fire whenever the
	// victim is the running thread.
	eng.Every(500*sim.Microsecond, func() {
		if k.cpu.cur != nil && k.cpu.cur.th == tv {
			k.cpu.RaiseInterrupt(intrWork{cost: 200 * sim.Microsecond, chargePreempted: true})
		}
	})
	eng.RunUntil(sim.Time(5 * sim.Second))
	if victim.CPUTime() >= other.CPUTime() {
		t.Fatalf("victim of misaccounting should receive less CPU: victim=%v other=%v",
			victim.CPUTime(), other.CPUTime())
	}
}

// --- network path ---

var srvAddr = Addr("10.0.0.1", 80)

// client returns a client endpoint on the test client subnet.
func client(port uint16) Address { return Addr("10.1.0.1", port) }

func TestConnectionEstablishAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeUnmodified, ModeLRP, ModeRC} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			eng, k := newKernel(mode)
			p := k.NewProcess("httpd")
			accepted := 0
			ls, err := k.Listen(p, ListenConfig{
				Local: srvAddr,
				OnAcceptable: func(l *ListenSocket) {
					if c, ok := l.Accept(); ok && c != nil {
						accepted++
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			k.ClientSend(SYNPacket(client(4000), srvAddr, false))
			eng.Run()
			if accepted != 1 {
				t.Fatalf("accepted %d, want 1", accepted)
			}
			if ls.Accepted() != 1 {
				t.Fatalf("socket accepted %d", ls.Accepted())
			}
		})
	}
}

func TestDataDeliveryAndSend(t *testing.T) {
	eng, k := newKernel(ModeRC)
	p := k.NewProcess("httpd")
	th := p.NewThread("main")
	var conn *Conn
	var gotPayload any
	var delivered sim.Time
	_, err := k.Listen(p, ListenConfig{
		Local: srvAddr,
		OnAcceptable: func(l *ListenSocket) {
			conn, _ = l.Accept()
			conn.OnRequest = func(c *Conn, payload any) {
				gotPayload = payload
				c.Send(th, 1024, c.Container(), func() { delivered = eng.Now() })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := client(4000)
	k.ClientSend(SYNPacket(cl, srvAddr, false))
	eng.After(10*sim.Millisecond, func() {
		k.ClientSend(DataPacket(cl, srvAddr, conn.ID(), 512, "GET /"))
	})
	eng.Run()
	if gotPayload != "GET /" {
		t.Fatalf("payload %v", gotPayload)
	}
	if delivered == 0 {
		t.Fatal("response never delivered")
	}
	u := conn.Container().Usage()
	if u.PacketsIn == 0 || u.PacketsOut != 1 || u.BytesOut != 1024 {
		t.Fatalf("conn container usage %+v", u)
	}
	// Kernel protocol processing must be charged to the container.
	if u.CPUKernel == 0 {
		t.Fatal("no kernel CPU charged to connection container")
	}
}

func TestFINClosesConn(t *testing.T) {
	eng, k := newKernel(ModeLRP)
	p := k.NewProcess("httpd")
	var conn *Conn
	_, _ = k.Listen(p, ListenConfig{
		Local:        srvAddr,
		OnAcceptable: func(l *ListenSocket) { conn, _ = l.Accept() },
	})
	cl := client(4000)
	k.ClientSend(SYNPacket(cl, srvAddr, false))
	eng.After(10*sim.Millisecond, func() {
		k.ClientSend(FINPacket(cl, srvAddr, conn.ID()))
	})
	eng.Run()
	if !conn.Closed() {
		t.Fatal("connection should be closed after FIN")
	}
	if _, ok := k.LookupConn(conn.ID()); ok {
		t.Fatal("closed conn still in table")
	}
}

// The peer-close upcall fires once for a client's FIN, after the
// connection is closed, and not for a close the application makes.
func TestPeerCloseUpcall(t *testing.T) {
	eng, k := newKernel(ModeRC)
	p := k.NewProcess("httpd")
	var conns []*Conn
	var upcalls []uint64
	_, _ = k.Listen(p, ListenConfig{
		Local: srvAddr,
		OnAcceptable: func(l *ListenSocket) {
			c, _ := l.Accept()
			c.SetOnPeerClose(func(c *Conn) {
				if !c.Closed() {
					t.Error("upcall before the connection closed")
				}
				upcalls = append(upcalls, c.ID())
			})
			conns = append(conns, c)
		},
	})
	k.ClientSend(SYNPacket(client(4000), srvAddr, false))
	k.ClientSend(SYNPacket(client(4001), srvAddr, false))
	eng.RunUntil(sim.Time(5 * sim.Millisecond))
	if len(conns) != 2 {
		t.Fatalf("%d connections accepted, want 2", len(conns))
	}
	conns[1].Close()
	for _, c := range conns {
		k.ClientSend(FINPacket(c.Client(), srvAddr, c.ID()))
	}
	k.ClientSend(FINPacket(conns[0].Client(), srvAddr, conns[0].ID()))
	eng.Run()
	if len(upcalls) != 1 || upcalls[0] != conns[0].ID() {
		t.Fatalf("upcalls for connections %v, want one for %d", upcalls, conns[0].ID())
	}
}

func TestBogusSYNOccupiesAndExpires(t *testing.T) {
	eng, k := newKernel(ModeUnmodified)
	p := k.NewProcess("httpd")
	ls, _ := k.Listen(p, ListenConfig{Local: srvAddr, SynBacklog: 4})
	for i := 0; i < 3; i++ {
		k.ClientSend(SYNPacket(client(uint16(5000+i)), srvAddr, true))
	}
	eng.RunUntil(sim.Time(10 * sim.Millisecond))
	if got := ls.EmbryonicCount(); got != 3 {
		t.Fatalf("embryonic %d, want 3", got)
	}
	eng.RunUntil(sim.Time(10*sim.Millisecond) + sim.Time(BogusSynTimeout))
	if got := ls.EmbryonicCount(); got != 0 {
		t.Fatalf("embryonic after timeout %d, want 0", got)
	}
}

func TestBogusSYNOverflowNotifies(t *testing.T) {
	eng, k := newKernel(ModeUnmodified)
	p := k.NewProcess("httpd")
	var drops int
	ls, _ := k.Listen(p, ListenConfig{
		Local:      srvAddr,
		SynBacklog: 2,
		OnSynDrop:  func(Address) { drops++ },
	})
	for i := 0; i < 5; i++ {
		k.ClientSend(SYNPacket(client(uint16(5000+i)), srvAddr, true))
	}
	eng.Run()
	if drops != 3 {
		t.Fatalf("drop notifications %d, want 3", drops)
	}
	if ls.SynDrops() != 3 {
		t.Fatalf("SynDrops %d", ls.SynDrops())
	}
}

func TestRCNetBacklogDropsAtDemux(t *testing.T) {
	// With the container throttled (priority 0 and a busy server), the
	// pending queue fills and further packets drop at demux (§5.7).
	eng, k := newKernel(ModeRC)
	p := k.NewProcess("httpd")
	busy := p.NewThread("busy")
	busy.PostFunc("spin", 10*sim.Second, rc.UserCPU, p.DefaultContainer, nil)
	floodCont := rc.MustNew(nil, rc.TimeShare, "flood", rc.Attributes{Priority: 0})
	var drops int
	_, err := k.Listen(p, ListenConfig{
		Local:     srvAddr,
		Container: floodCont,
		OnSynDrop: func(Address) { drops++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DefaultNetBacklog+10; i++ {
		k.ClientSend(SYNPacket(client(uint16(i)), srvAddr, true))
	}
	eng.RunUntil(sim.Time(2 * sim.Second))
	if drops != 10 {
		t.Fatalf("demux drops %d, want 10", drops)
	}
	if floodCont.Usage().PacketsDropped != 10 {
		t.Fatalf("container drop accounting %d", floodCont.Usage().PacketsDropped)
	}
}

func TestRCPriorityOrderProtocolProcessing(t *testing.T) {
	// Two connections with different container priorities: pending
	// packets for the high-priority container are processed first even
	// if they arrived later (§4.7).
	eng, k := newKernel(ModeRC)
	p := k.NewProcess("httpd")
	hi := rc.MustNew(nil, rc.TimeShare, "hi", rc.Attributes{Priority: 20})
	lo := rc.MustNew(nil, rc.TimeShare, "lo", rc.Attributes{Priority: 1})
	var conns []*Conn
	var served []string
	_, _ = k.Listen(p, ListenConfig{
		Local: srvAddr,
		OnAcceptable: func(l *ListenSocket) {
			c, _ := l.Accept()
			if len(conns) == 0 {
				c.SetContainer(lo)
			} else {
				c.SetContainer(hi)
			}
			name := c.Container().Name()
			c.OnRequest = func(*Conn, any) { served = append(served, name) }
			conns = append(conns, c)
		},
	})
	k.ClientSend(SYNPacket(client(1), srvAddr, false))
	k.ClientSend(SYNPacket(client(2), srvAddr, false))
	eng.RunUntil(sim.Time(5 * sim.Millisecond))
	if len(conns) != 2 {
		t.Fatalf("conns %d", len(conns))
	}
	// Stall the CPU with a long interrupt so both data packets are
	// pending when the kernel thread next runs; low-priority packet
	// arrives first.
	k.Arrive(DataPacket(client(1), srvAddr, conns[0].ID(), 100, nil))
	k.Arrive(DataPacket(client(2), srvAddr, conns[1].ID(), 100, nil))
	eng.Run()
	if len(served) != 2 || served[0] != "hi" || served[1] != "lo" {
		t.Fatalf("service order %v, want [hi lo]", served)
	}
}

func TestLRPFIFOOrderProtocolProcessing(t *testing.T) {
	// LRP processes packets in arrival order regardless of priority.
	eng, k := newKernel(ModeLRP)
	p := k.NewProcess("httpd")
	var conns []*Conn
	var served []int
	_, _ = k.Listen(p, ListenConfig{
		Local: srvAddr,
		OnAcceptable: func(l *ListenSocket) {
			c, _ := l.Accept()
			idx := len(conns)
			c.OnRequest = func(*Conn, any) { served = append(served, idx) }
			conns = append(conns, c)
		},
	})
	k.ClientSend(SYNPacket(client(1), srvAddr, false))
	k.ClientSend(SYNPacket(client(2), srvAddr, false))
	eng.RunUntil(sim.Time(5 * sim.Millisecond))
	k.Arrive(DataPacket(client(1), srvAddr, conns[0].ID(), 100, nil))
	k.Arrive(DataPacket(client(2), srvAddr, conns[1].ID(), 100, nil))
	eng.Run()
	if len(served) != 2 || served[0] != 0 || served[1] != 1 {
		t.Fatalf("service order %v, want [0 1]", served)
	}
}

func TestFilteredListenSocketDemux(t *testing.T) {
	eng, k := newKernel(ModeRC)
	p := k.NewProcess("httpd")
	var goodAccepts, badAccepts int
	_, _ = k.Listen(p, ListenConfig{
		Local:        srvAddr,
		OnAcceptable: func(l *ListenSocket) { l.Accept(); goodAccepts++ },
	})
	badPrefix := FilterCIDR("66.0.0.0", 8)
	_, _ = k.Listen(p, ListenConfig{
		Local:        srvAddr,
		Filter:       badPrefix,
		OnAcceptable: func(l *ListenSocket) { l.Accept(); badAccepts++ },
	})
	k.ClientSend(SYNPacket(Addr("66.1.2.3", 99), srvAddr, false))
	k.ClientSend(SYNPacket(Addr("10.9.9.9", 99), srvAddr, false))
	eng.Run()
	if goodAccepts != 1 || badAccepts != 1 {
		t.Fatalf("accepts good=%d bad=%d, want 1 each", goodAccepts, badAccepts)
	}
}

func TestProcessExitStopsThreads(t *testing.T) {
	eng, k := newKernel(ModeUnmodified)
	p := k.NewProcess("p")
	th := p.NewThread("t")
	done := false
	th.PostFunc("w", 10*sim.Millisecond, rc.UserCPU, nil, func() { done = true })
	eng.After(sim.Millisecond, func() { p.Exit() })
	eng.Run()
	if done {
		t.Fatal("work completed after process exit")
	}
	if p.CPUTime() > 2*sim.Millisecond {
		t.Fatalf("process kept running after exit: %v", p.CPUTime())
	}
}

func TestListenOnExitedProcess(t *testing.T) {
	_, k := newKernel(ModeUnmodified)
	p := k.NewProcess("p")
	p.Exit()
	if _, err := k.Listen(p, ListenConfig{Local: srvAddr}); err == nil {
		t.Fatal("Listen on exited process should fail")
	}
}

func TestListenSocketClose(t *testing.T) {
	eng, k := newKernel(ModeUnmodified)
	p := k.NewProcess("p")
	accepts := 0
	ls, _ := k.Listen(p, ListenConfig{
		Local:        srvAddr,
		OnAcceptable: func(l *ListenSocket) { accepts++ },
	})
	ls.Close()
	k.ClientSend(SYNPacket(client(1), srvAddr, false))
	eng.Run()
	if accepts != 0 {
		t.Fatal("closed socket accepted a connection")
	}
}

func TestListenContainerPrioritizesAcceptVsService(t *testing.T) {
	// §4.8: "the server can use the resource container associated with a
	// listening socket to set the priority of accepting new connections
	// relative to servicing the existing ones." With the listen socket at
	// priority 1 and existing connections at 20, pending protocol work
	// for existing connections runs before connection-request processing.
	eng, k := newKernel(ModeRC)
	p := k.NewProcess("httpd")
	lsCont := rc.MustNew(nil, rc.TimeShare, "listen", rc.Attributes{Priority: 1})
	connCont := rc.MustNew(nil, rc.TimeShare, "conns", rc.Attributes{Priority: 20})
	var served []string
	var conn *Conn
	_, _ = k.Listen(p, ListenConfig{
		Local:     srvAddr,
		Container: lsCont,
		OnAcceptable: func(l *ListenSocket) {
			c, ok := l.Accept()
			if !ok {
				return
			}
			if conn == nil {
				conn = c
				c.SetContainer(connCont)
				c.SetOnRequest(func(*Conn, any) { served = append(served, "data") })
				return
			}
			served = append(served, "accept")
		},
	})
	k.ClientSend(SYNPacket(client(1), srvAddr, false))
	eng.RunUntil(sim.Time(5 * sim.Millisecond))
	// Burst: a new SYN arrives just before data for the existing
	// connection; the data (priority 20) must be processed first even
	// though the SYN arrived first.
	k.Arrive(SYNPacket(client(2), srvAddr, false))
	k.Arrive(DataPacket(client(1), srvAddr, conn.ID(), 100, nil))
	eng.Run()
	if len(served) != 2 || served[0] != "data" || served[1] != "accept" {
		t.Fatalf("service order %v, want [data accept]", served)
	}
}

func TestComplementFilterDefense(t *testing.T) {
	// The suggested complement filters (§4.8): bind the premium service
	// to "everyone except the attack prefix" and the attackers' socket to
	// the prefix itself.
	eng, k := newKernel(ModeRC)
	p := k.NewProcess("httpd")
	var goodConns, badConns int
	_, err := k.Listen(p, ListenConfig{
		Local:        srvAddr,
		Filter:       FilterCIDRComplement("66.0.0.0", 8),
		OnAcceptable: func(l *ListenSocket) { l.Accept(); goodConns++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = k.Listen(p, ListenConfig{
		Local:        srvAddr,
		Filter:       FilterCIDR("66.0.0.0", 8),
		OnAcceptable: func(l *ListenSocket) { l.Accept(); badConns++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	k.ClientSend(SYNPacket(Addr("9.9.9.9", 99), srvAddr, false))
	k.ClientSend(SYNPacket(Addr("66.1.2.3", 99), srvAddr, false))
	k.ClientSend(SYNPacket(Addr("10.1.1.1", 99), srvAddr, false))
	eng.Run()
	if goodConns != 2 || badConns != 1 {
		t.Fatalf("good=%d bad=%d, want 2/1", goodConns, badConns)
	}
}

func TestUtilizationBreakdown(t *testing.T) {
	eng, k := newKernel(ModeUnmodified)
	p := k.NewProcess("app")
	p.NewThread("t").PostFunc("w", 400*sim.Millisecond, rc.UserCPU, nil, nil)
	eng.After(0, func() {
		k.cpu.RaiseInterrupt(intrWork{cost: 100 * sim.Millisecond})
	})
	eng.RunUntil(sim.Time(sim.Second))
	u := k.Utilization()
	if u.Busy != 0.4 || u.Interrupt != 0.1 {
		t.Fatalf("utilization %+v, want busy 0.4 intr 0.1", u)
	}
	if u.Idle < 0.499 || u.Idle > 0.501 {
		t.Fatalf("idle %v, want 0.5", u.Idle)
	}
}

func TestUtilizationAtTimeZero(t *testing.T) {
	_, k := newKernel(ModeUnmodified)
	if u := k.Utilization(); u.Idle != 1 {
		t.Fatalf("fresh machine utilization %+v", u)
	}
}
