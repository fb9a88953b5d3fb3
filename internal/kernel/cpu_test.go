package kernel

import (
	"testing"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

func TestQuantumSlicing(t *testing.T) {
	// A long item is executed in quantum-sized slices, so scheduling
	// decisions interleave two threads finely.
	eng, k := newKernel(ModeUnmodified)
	pa := k.NewProcess("a")
	pb := k.NewProcess("b")
	var doneA, doneB sim.Time
	pa.NewThread("t").PostFunc("wa", 10*sim.Millisecond, rc.UserCPU, nil, func() { doneA = eng.Now() })
	pb.NewThread("t").PostFunc("wb", 10*sim.Millisecond, rc.UserCPU, nil, func() { doneB = eng.Now() })
	eng.Run()
	// Interleaved at 1 ms quanta: both finish around 19–20 ms, not one at
	// 10 ms and the other at 20 ms.
	if doneA < sim.Time(18*sim.Millisecond) || doneB < sim.Time(18*sim.Millisecond) {
		t.Fatalf("no interleaving: %v / %v", doneA, doneB)
	}
}

func TestIdleClassPreemption(t *testing.T) {
	// Background (priority-0) work is evicted the instant normal work
	// arrives, not at the next quantum boundary.
	eng, k := newKernel(ModeRC)
	p := k.NewProcess("app")
	bg := rc.MustNew(nil, rc.TimeShare, "bg", rc.Attributes{Priority: 0})
	fg := rc.MustNew(nil, rc.TimeShare, "fg", rc.Attributes{Priority: 10})
	bgThread := p.NewThread("bg")
	fgThread := p.NewThread("fg")
	// The application dedicates the background thread to the idle-class
	// container and resets its scheduler binding (§4.6), so it carries no
	// residual standing from the process default container.
	if err := p.BindThreadContainer(bgThread, bg); err != nil {
		t.Fatal(err)
	}
	p.ResetSchedBinding(bgThread)
	bgThread.PostFunc("background", 10*sim.Millisecond, rc.UserCPU, bg, nil)
	var fgDone sim.Time
	eng.After(250*sim.Microsecond, func() {
		fgThread.PostFunc("urgent", 100*sim.Microsecond, rc.UserCPU, fg, func() { fgDone = eng.Now() })
	})
	eng.Run()
	// Without eviction the urgent work would wait for the 1 ms quantum
	// boundary (done at ~1.1 ms); with eviction it finishes at ~350 µs.
	if fgDone != sim.Time(350*sim.Microsecond) {
		t.Fatalf("urgent work done at %v, want 350µs (immediate eviction)", fgDone)
	}
}

func TestIdleClassResumesAfterEviction(t *testing.T) {
	eng, k := newKernel(ModeRC)
	p := k.NewProcess("app")
	bg := rc.MustNew(nil, rc.TimeShare, "bg", rc.Attributes{Priority: 0})
	fg := rc.MustNew(nil, rc.TimeShare, "fg", rc.Attributes{Priority: 10})
	bgThread := p.NewThread("bg")
	fgThread := p.NewThread("fg")
	if err := p.BindThreadContainer(bgThread, bg); err != nil {
		t.Fatal(err)
	}
	p.ResetSchedBinding(bgThread)
	var bgDone sim.Time
	bgThread.PostFunc("background", sim.Millisecond, rc.UserCPU, bg, func() { bgDone = eng.Now() })
	eng.After(200*sim.Microsecond, func() {
		fgThread.PostFunc("urgent", 300*sim.Microsecond, rc.UserCPU, fg, nil)
	})
	eng.Run()
	// bg: 200µs before eviction + 800µs after urgent's 300µs = 1.3ms.
	if bgDone != sim.Time(1300*sim.Microsecond) {
		t.Fatalf("background done at %v, want 1.3ms", bgDone)
	}
	if bg.Usage().CPU() != sim.Millisecond {
		t.Fatalf("background charged %v, want exactly its work", bg.Usage().CPU())
	}
}

func TestCapThrottleAndRetry(t *testing.T) {
	// A capped container exhausts its window budget, the CPU idles, and
	// the retry timer resumes work at the next window.
	eng, k := newKernel(ModeRC)
	p := k.NewProcess("app")
	capped := rc.MustNew(nil, rc.FixedShare, "capped", rc.Attributes{Limit: 0.5})
	leaf := rc.MustNew(capped, rc.TimeShare, "leaf", rc.Attributes{Priority: 1})
	var done sim.Time
	p.NewThread("t").PostFunc("w", 50*sim.Millisecond, rc.UserCPU, leaf, func() { done = eng.Now() })
	eng.Run()
	// 50 ms of work at a 50% cap (10 ms budget per 20 ms window): the
	// fifth window's budget completes the job at 80+10 = 90 ms.
	if done < sim.Time(88*sim.Millisecond) || done > sim.Time(100*sim.Millisecond) {
		t.Fatalf("capped work done at %v, want ~90ms", done)
	}
}

func TestInterruptDuringInterrupt(t *testing.T) {
	// Interrupts arriving while interrupt work is in progress queue FIFO
	// and extend the busy period.
	eng, k := newKernel(ModeUnmodified)
	traceInterrupts(k)
	eng.After(0, func() {
		k.cpu.RaiseInterrupt(intrWork{label: "1", cost: 100 * sim.Microsecond})
	})
	eng.After(50*sim.Microsecond, func() {
		k.cpu.RaiseInterrupt(intrWork{label: "2", cost: 100 * sim.Microsecond})
	})
	eng.Run()
	if got := interruptStarts(k); got != "1@0s 2@100µs" {
		t.Fatalf("interrupts %q, want 1@0s 2@100µs", got)
	}
	if k.InterruptTime() != 200*sim.Microsecond {
		t.Fatalf("interrupt time %v", k.InterruptTime())
	}
	if eng.Now() != sim.Time(200*sim.Microsecond) {
		t.Fatalf("clock %v, want back-to-back interrupts ending at 200µs", eng.Now())
	}
}

func TestRCChargesInterruptDemuxToContainer(t *testing.T) {
	// In ModeRC, demultiplexing cost is charged to the destination
	// container's kernel CPU even though it runs at interrupt level.
	eng, k := newKernel(ModeRC)
	p := k.NewProcess("httpd")
	cont := rc.MustNew(nil, rc.TimeShare, "sock", rc.Attributes{Priority: 5})
	_, _ = k.Listen(p, ListenConfig{Local: srvAddr, Container: cont})
	k.ClientSend(SYNPacket(client(1), srvAddr, false))
	eng.Run()
	u := cont.Usage()
	want := DemuxCost + SYNProtocolCost
	if u.CPUKernel != want {
		t.Fatalf("container kernel CPU %v, want demux+SYN = %v", u.CPUKernel, want)
	}
	if u.PacketsIn != 1 {
		t.Fatalf("packets in %d", u.PacketsIn)
	}
}

func TestSliceBudgetIntegration(t *testing.T) {
	// With a capped container and an uncapped one, slices are clipped so
	// the cap holds almost exactly even at fine windows.
	eng, k := newKernel(ModeRC)
	p := k.NewProcess("app")
	capped := rc.MustNew(nil, rc.FixedShare, "capped", rc.Attributes{Limit: 0.1})
	leaf := rc.MustNew(capped, rc.TimeShare, "leaf", rc.Attributes{Priority: 1})
	free := rc.MustNew(nil, rc.TimeShare, "free", rc.Attributes{Priority: 1})
	p.NewThread("c").PostFunc("w", 100*sim.Second, rc.UserCPU, leaf, nil)
	p.NewThread("f").PostFunc("w", 100*sim.Second, rc.UserCPU, free, nil)
	eng.RunUntil(sim.Time(10 * sim.Second))
	share := capped.Usage().CPU().Seconds() / 10
	if share < 0.095 || share > 0.105 {
		t.Fatalf("capped share %.4f, want 0.100±0.005", share)
	}
}

func TestProcessCPUTimeExcludesInterrupts(t *testing.T) {
	eng, k := newKernel(ModeUnmodified)
	p := k.NewProcess("app")
	p.NewThread("t").PostFunc("w", sim.Millisecond, rc.UserCPU, nil, nil)
	eng.After(100*sim.Microsecond, func() {
		k.cpu.RaiseInterrupt(intrWork{cost: 500 * sim.Microsecond, chargePreempted: true})
	})
	eng.Run()
	if p.CPUTime() != sim.Millisecond {
		t.Fatalf("process CPU %v includes interrupt time", p.CPUTime())
	}
	if k.InterruptTime() != 500*sim.Microsecond {
		t.Fatalf("interrupt time %v", k.InterruptTime())
	}
}
