package kernel

import (
	"testing"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

func newSMP(mode Mode, ncpus int) (*sim.Engine, *Kernel) {
	eng := sim.NewEngine(1)
	return eng, NewSMP(eng, mode, ncpus)
}

func TestSMPParallelExecution(t *testing.T) {
	eng, k := newSMP(ModeUnmodified, 2)
	if k.NumCPUs() != 2 {
		t.Fatalf("NumCPUs %d", k.NumCPUs())
	}
	pa := k.NewProcess("a")
	pb := k.NewProcess("b")
	var doneA, doneB sim.Time
	pa.NewThread("t").PostFunc("wa", sim.Second, rc.UserCPU, nil, func() { doneA = eng.Now() })
	pb.NewThread("t").PostFunc("wb", sim.Second, rc.UserCPU, nil, func() { doneB = eng.Now() })
	eng.Run()
	// Two CPUs: both 1-second jobs finish at t=1s, not serialized.
	if doneA != sim.Time(sim.Second) || doneB != sim.Time(sim.Second) {
		t.Fatalf("parallel jobs finished at %v and %v, want both at 1s", doneA, doneB)
	}
	if k.BusyTime() != 2*sim.Second {
		t.Fatalf("total busy %v, want 2s", k.BusyTime())
	}
}

func TestSMPThreadNeverOnTwoCPUs(t *testing.T) {
	eng, k := newSMP(ModeUnmodified, 4)
	p := k.NewProcess("a")
	th := p.NewThread("t")
	var done sim.Time
	// One thread with lots of queued work: only one CPU may serve it.
	for i := 0; i < 10; i++ {
		i := i
		th.PostFunc("w", 100*sim.Millisecond, rc.UserCPU, nil, func() {
			if i == 9 {
				done = eng.Now()
			}
		})
	}
	eng.Run()
	if done != sim.Time(sim.Second) {
		t.Fatalf("single thread finished at %v, want fully serialized 1s", done)
	}
	if th.CPUTime() != sim.Second {
		t.Fatalf("thread CPU %v", th.CPUTime())
	}
}

func TestSMPUniprocessorDefault(t *testing.T) {
	_, k := newKernel(ModeUnmodified)
	if k.NumCPUs() != 1 {
		t.Fatalf("New should build a uniprocessor, got %d CPUs", k.NumCPUs())
	}
	_, k2 := newSMP(ModeRC, 0)
	if k2.NumCPUs() != 1 {
		t.Fatalf("ncpus<1 should clamp to 1, got %d", k2.NumCPUs())
	}
}

func TestSMPCapScalesWithCapacity(t *testing.T) {
	// A 25% limit on a 2-CPU machine allows 0.5 CPU-seconds per second.
	eng, k := newSMP(ModeRC, 2)
	capped := rc.MustNew(nil, rc.FixedShare, "capped", rc.Attributes{Limit: 0.25})
	l1 := rc.MustNew(capped, rc.TimeShare, "l1", rc.Attributes{Priority: 1})
	l2 := rc.MustNew(capped, rc.TimeShare, "l2", rc.Attributes{Priority: 1})
	free := rc.MustNew(nil, rc.TimeShare, "free", rc.Attributes{Priority: 1})
	p := k.NewProcess("app")
	p.NewThread("c1").PostFunc("w", 100*sim.Second, rc.UserCPU, l1, nil)
	p.NewThread("c2").PostFunc("w", 100*sim.Second, rc.UserCPU, l2, nil)
	p.NewThread("f1").PostFunc("w", 100*sim.Second, rc.UserCPU, free, nil)
	p.NewThread("f2").PostFunc("w", 100*sim.Second, rc.UserCPU, free, nil)
	eng.RunUntil(sim.Time(10 * sim.Second))
	total := 2.0 * 10 // CPU-seconds available
	cappedShare := capped.Usage().CPU().Seconds() / total
	if cappedShare < 0.22 || cappedShare > 0.28 {
		t.Fatalf("capped subtree share %.3f of 2-CPU machine, want ~0.25", cappedShare)
	}
}

func TestSMPSharesSaturateMachine(t *testing.T) {
	// Guests with 60/40 guarantees on 2 CPUs: consumption splits 60/40 of
	// the doubled capacity.
	eng, k := newSMP(ModeRC, 2)
	g1 := rc.MustNew(nil, rc.FixedShare, "g1", rc.Attributes{Share: 0.6})
	g2 := rc.MustNew(nil, rc.FixedShare, "g2", rc.Attributes{Share: 0.4})
	p := k.NewProcess("app")
	for i, g := range []*rc.Container{g1, g1, g2, g2} {
		leaf := rc.MustNew(g, rc.TimeShare, "w", rc.Attributes{Priority: 1})
		p.NewThread(string(rune('a'+i))).PostFunc("w", 100*sim.Second, rc.UserCPU, leaf, nil)
	}
	eng.RunUntil(sim.Time(10 * sim.Second))
	total := 20.0
	s1 := g1.Usage().CPU().Seconds() / total
	s2 := g2.Usage().CPU().Seconds() / total
	if s1 < 0.55 || s1 > 0.65 || s2 < 0.35 || s2 > 0.45 {
		t.Fatalf("SMP shares %.3f/%.3f, want 0.60/0.40", s1, s2)
	}
}

func TestSMPInterruptsOnPrimaryOnly(t *testing.T) {
	eng, k := newSMP(ModeUnmodified, 2)
	pa := k.NewProcess("a")
	pb := k.NewProcess("b")
	var doneA, doneB sim.Time
	pa.NewThread("t").PostFunc("wa", 10*sim.Millisecond, rc.UserCPU, nil, func() { doneA = eng.Now() })
	pb.NewThread("t").PostFunc("wb", 10*sim.Millisecond, rc.UserCPU, nil, func() { doneB = eng.Now() })
	// A long interrupt burst hits CPU 0; the thread there is delayed, the
	// other CPU keeps computing.
	eng.After(sim.Millisecond, func() {
		k.cpu.RaiseInterrupt(intrWork{label: "storm", cost: 5 * sim.Millisecond})
	})
	eng.Run()
	// The 5 ms stolen by the interrupt is shared: the preempted thread
	// migrates to the other CPU at the next quantum boundary, so both
	// jobs finish a bit late (~12.5 ms each), not one at 15 ms.
	for _, d := range []sim.Time{doneA, doneB} {
		if d <= sim.Time(10*sim.Millisecond) || d > sim.Time(16*sim.Millisecond) {
			t.Fatalf("finish times %v/%v, want both in (10ms, 16ms]", doneA, doneB)
		}
	}
	if total := doneA.Sub(0) + doneB.Sub(0); total < 24*sim.Millisecond || total > 27*sim.Millisecond {
		t.Fatalf("combined finish %v, want ~25ms (20ms work + 5ms stolen)", total)
	}
}

func TestSMPMTServerScales(t *testing.T) {
	// The multi-threaded server exploits a second CPU; an event-driven
	// (single-threaded) server cannot — the paper's §2 observation that
	// multiprocessor event-driven servers need one thread per processor.
	run := func(ncpus, threads int) sim.Time {
		eng := sim.NewEngine(9)
		k := NewSMP(eng, ModeUnmodified, ncpus)
		p := k.NewProcess("mt")
		var workers []*Thread
		for i := 0; i < threads; i++ {
			workers = append(workers, p.NewThread("w"))
		}
		next := 0
		var lastDone sim.Time
		_, err := k.Listen(p, ListenConfig{
			Local: srvAddr,
			OnAcceptable: func(l *ListenSocket) {
				conn, ok := l.Accept()
				if !ok {
					return
				}
				th := workers[next%len(workers)]
				next++
				conn.SetOnRequest(func(c *Conn, payload any) {
					// A CPU-heavy dynamic request, one per connection.
					th.PostFunc("serve", 10*sim.Millisecond, rc.UserCPU, nil, func() {
						c.Send(th, 1024, nil, nil)
						c.Close()
						lastDone = eng.Now()
					})
				})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			i := i
			k.ClientSend(ConnectPacket(client(uint16(2000+i)), srvAddr, func(conn *Conn) {
				k.ClientSend(DataPacket(client(uint16(2000+i)), srvAddr, conn.ID(), 512, nil))
			}))
		}
		eng.Run()
		return lastDone
	}
	// Makespan of 64 x 10ms jobs across a 4-thread pool.
	m1 := run(1, 4)
	m2 := run(2, 4)
	if float64(m2) > float64(m1)*0.62 {
		t.Fatalf("MT server should nearly halve the makespan on 2 CPUs: %v vs %v", m2, m1)
	}
}
