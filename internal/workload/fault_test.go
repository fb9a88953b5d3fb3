package workload

import (
	"testing"

	"rescon/internal/kernel"
	"rescon/internal/sim"
)

// silentServer accepts connections but never answers a request — the
// stimulus for client-side timeout, retry and abort machinery.
func silentServer(t *testing.T, k *kernel.Kernel) {
	t.Helper()
	p := k.NewProcess("silent")
	_, err := k.Listen(p, kernel.ListenConfig{
		Local: srvAddr,
		OnAcceptable: func(ls *kernel.ListenSocket) {
			if conn, ok := ls.Accept(); ok {
				conn.SetOnRequest(func(*kernel.Conn, any) {})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlooderStopRestart(t *testing.T) {
	eng, k := newTestKernel()
	echoServer(t, k)
	f := StartFlood(k, 1000, kernel.Addr("66.0.0.1", 0).IP, 16, srvAddr)
	eng.RunUntil(sim.Time(sim.Second))
	afterOn := f.Sent()
	if afterOn < 900 || afterOn > 1100 {
		t.Fatalf("sent %d in 1s, want ~1000", afterOn)
	}

	f.Stop()
	f.Stop() // double Stop is safe
	eng.RunUntil(sim.Time(2 * sim.Second))
	if f.Sent() != afterOn {
		t.Fatalf("flood kept sending while stopped: %d -> %d", afterOn, f.Sent())
	}

	f.Restart()
	f.Restart() // Restart while running must not double the rate
	eng.RunUntil(sim.Time(3 * sim.Second))
	resumed := f.Sent() - afterOn
	if resumed < 900 || resumed > 1100 {
		t.Fatalf("sent %d in 1s after Restart, want ~1000 (on/off attacker resumes at its rate)", resumed)
	}
}

func TestClientBackoffSpacesRetries(t *testing.T) {
	// No server listening: every connect attempt times out. With backoff
	// the retries spread out, so the attempt count falls well below the
	// immediate-retry pace of one per ConnectTimeout.
	eng, k := newTestKernel()
	c := MustStartClient(ClientConfig{
		Kernel:         k,
		Src:            kernel.Addr("10.1.0.1", 1024),
		Dst:            srvAddr,
		ConnectTimeout: 50 * sim.Millisecond,
		BackoffBase:    25 * sim.Millisecond, // caps at 16× = 400ms
	})
	eng.RunUntil(sim.Time(5 * sim.Second))
	if c.Retries.Value() == 0 {
		t.Fatal("no backoff retries recorded")
	}
	// Immediate retries would yield ~100 timeouts in 5s; capped backoff
	// (≤400ms between attempts) must cut that by several times while
	// still making steady attempts.
	if n := c.Timeouts.Value(); n < 10 || n > 50 {
		t.Fatalf("timeouts %d, want backoff-paced (~12-30) not immediate (~100)", n)
	}
}

func TestClientGivesUpAfterMaxRetries(t *testing.T) {
	eng, k := newTestKernel()
	c := MustStartClient(ClientConfig{
		Kernel:         k,
		Src:            kernel.Addr("10.1.0.1", 1024),
		Dst:            srvAddr,
		ConnectTimeout: 50 * sim.Millisecond,
		BackoffBase:    10 * sim.Millisecond,
		MaxRetries:     2,
		Think:          20 * sim.Millisecond,
	})
	eng.RunUntil(sim.Time(3 * sim.Second))
	if c.GiveUps.Value() < 2 {
		t.Fatalf("give-ups %d, want repeated abandon-and-move-on cycles", c.GiveUps.Value())
	}
	if c.Meter.Count() != 0 {
		t.Fatal("completed requests against no server")
	}
	// Every give-up consumed MaxRetries+1 timeouts.
	if c.Timeouts.Value() < 3*c.GiveUps.Value() {
		t.Fatalf("timeouts %d inconsistent with %d give-ups at MaxRetries=2",
			c.Timeouts.Value(), c.GiveUps.Value())
	}
}

func TestClientAbortsMidRequest(t *testing.T) {
	eng, k := newTestKernel()
	silentServer(t, k)
	c := MustStartClient(ClientConfig{
		Kernel:         k,
		Src:            kernel.Addr("10.1.0.1", 1024),
		Dst:            srvAddr,
		RequestTimeout: 400 * sim.Millisecond,
		AbortRate:      1, // every request is abandoned partway
		Think:          10 * sim.Millisecond,
	})
	eng.RunUntil(sim.Time(3 * sim.Second))
	if c.Aborts.Value() == 0 {
		t.Fatal("no aborts with AbortRate=1")
	}
	// Aborts land inside the first quarter of the request timeout, so the
	// timeout path never fires.
	if c.Timeouts.Value() != 0 {
		t.Fatalf("timeouts %d alongside aborts, want 0", c.Timeouts.Value())
	}
	if c.Meter.Count() != 0 {
		t.Fatal("aborted requests counted as completed")
	}
}

func TestSlowLorisHoldsAndReopens(t *testing.T) {
	eng, k := newTestKernel()
	echoServer(t, k) // trickled junk is not an httpsim request; server just holds the conn
	loris := StartSlowLoris(SlowLorisConfig{
		Kernel:  k,
		Src:     kernel.Addr("66.0.0.7", 1024),
		Dst:     srvAddr,
		Conns:   8,
		Trickle: 20 * sim.Millisecond,
		Hold:    300 * sim.Millisecond,
	})
	eng.RunUntil(sim.Time(2 * sim.Second))
	if loris.Opened() <= 8 {
		t.Fatalf("opened %d conns, want reopens beyond the initial 8 with 300ms Hold", loris.Opened())
	}
	if loris.Trickled() == 0 {
		t.Fatal("attacker never trickled data")
	}
	loris.Stop()
	opened, trickled := loris.Opened(), loris.Trickled()
	eng.RunUntil(sim.Time(4 * sim.Second))
	if loris.Opened() != opened || loris.Trickled() != trickled {
		t.Fatal("slow-loris kept running after Stop")
	}
}

func TestSlowLorisDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		eng, k := newTestKernel()
		echoServer(t, k)
		loris := StartSlowLoris(SlowLorisConfig{
			Kernel:  k,
			Src:     kernel.Addr("66.0.0.7", 1024),
			Dst:     srvAddr,
			Conns:   8,
			Trickle: 20 * sim.Millisecond,
		})
		eng.RunUntil(sim.Time(2 * sim.Second))
		return loris.Opened(), loris.Trickled()
	}
	o1, t1 := run()
	o2, t2 := run()
	if o1 != o2 || t1 != t2 {
		t.Fatalf("slow-loris schedule not deterministic: (%d,%d) vs (%d,%d)", o1, t1, o2, t2)
	}
}
