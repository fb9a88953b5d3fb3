package kernel

// Stress test: a chaotic mixed workload must run without panics while
// preserving the kernel's global accounting invariants.

import (
	"testing"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

func TestKernelAccountingConservation(t *testing.T) {
	for _, ncpus := range []int{1, 2} {
		eng := sim.NewEngine(31)
		k := NewSMP(eng, ModeRC, ncpus)
		p := k.NewProcess("httpd")
		root := rc.MustNew(nil, rc.FixedShare, "root", rc.Attributes{})
		if err := p.DefaultContainer.SetParent(root); err != nil {
			t.Fatal(err)
		}
		var conns []*Conn
		_, err := k.Listen(p, ListenConfig{
			Local: srvAddr,
			OnAcceptable: func(l *ListenSocket) {
				c, ok := l.Accept()
				if !ok {
					return
				}
				cc := rc.MustNew(root, rc.TimeShare, "conn", rc.Attributes{Priority: 1 + len(conns)%3})
				c.SetContainer(cc)
				conns = append(conns, c)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		th := p.NewThread("main")
		// Mixed load: periodic CPU work, connections, packets, disk reads.
		rng := eng.Rand().Fork(5)
		eng.Every(700*sim.Microsecond, func() {
			switch rng.Intn(4) {
			case 0:
				k.Arrive(SYNPacket(client(uint16(rng.Intn(5000))), srvAddr, rng.Intn(4) == 0))
			case 1:
				if len(conns) > 0 {
					c := conns[rng.Intn(len(conns))]
					if !c.Closed() {
						k.Arrive(DataPacket(c.Client(), srvAddr, c.ID(), 256, nil))
					}
				}
			case 2:
				th.PostFunc("compute", sim.Duration(rng.Intn(500))*sim.Microsecond,
					rc.UserCPU, p.DefaultContainer, nil)
			case 3:
				if len(conns) > 0 {
					c := conns[rng.Intn(len(conns))]
					k.Disk().Read(c.Container(), 1+rng.Intn(8192), nil)
					if rng.Intn(6) == 0 && !c.Closed() {
						cc := c.Container()
						c.Close()
						if cc != nil && cc != p.DefaultContainer && !cc.Destroyed() {
							_ = cc.Release()
						}
					}
				}
			}
		})
		elapsed := 5 * sim.Second
		eng.RunUntil(sim.Time(elapsed))

		// Invariant 1: CPU time is conserved — thread-level busy time plus
		// interrupt time never exceeds machine capacity.
		capacity := sim.Duration(ncpus) * elapsed
		if k.BusyTime()+k.InterruptTime() > capacity {
			t.Fatalf("ncpus=%d: busy %v + interrupts %v exceeds capacity %v",
				ncpus, k.BusyTime(), k.InterruptTime(), capacity)
		}

		// Invariant 2: container-charged CPU never exceeds executed CPU
		// (interrupt-level demux is also charged to containers in RC).
		var charged sim.Duration
		charged += root.Usage().CPU()
		if charged > k.BusyTime()+k.InterruptTime() {
			t.Fatalf("ncpus=%d: containers charged %v > executed %v",
				ncpus, charged, k.BusyTime()+k.InterruptTime())
		}

		// Invariant 3: the machine did real work.
		if k.BusyTime() == 0 || k.Disk().Served() == 0 {
			t.Fatalf("ncpus=%d: stress produced no work (busy=%v disk=%d)",
				ncpus, k.BusyTime(), k.Disk().Served())
		}
	}
}

func TestKernelStressDeterministic(t *testing.T) {
	run := func() (sim.Duration, sim.Duration, uint64) {
		eng := sim.NewEngine(77)
		k := New(eng, ModeRC)
		p := k.NewProcess("httpd")
		accepted := uint64(0)
		_, _ = k.Listen(p, ListenConfig{
			Local: srvAddr,
			OnAcceptable: func(l *ListenSocket) {
				if _, ok := l.Accept(); ok {
					accepted++
				}
			},
		})
		rng := eng.Rand().Fork(9)
		eng.Every(300*sim.Microsecond, func() {
			k.Arrive(SYNPacket(client(uint16(rng.Intn(5000))), srvAddr, rng.Intn(3) == 0))
		})
		eng.RunUntil(sim.Time(2 * sim.Second))
		return k.BusyTime(), k.InterruptTime(), accepted
	}
	b1, i1, a1 := run()
	b2, i2, a2 := run()
	if b1 != b2 || i1 != i2 || a1 != a2 {
		t.Fatalf("kernel not deterministic: (%v,%v,%d) vs (%v,%v,%d)", b1, i1, a1, b2, i2, a2)
	}
}
