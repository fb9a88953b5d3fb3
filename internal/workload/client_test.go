package workload

import (
	"testing"

	"rescon/internal/fault"
	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/netsim"
	"rescon/internal/sim"
)

var srvAddr = kernel.Addr("10.0.0.1", 80)

// echoServer is a minimal request sink: it accepts connections and
// answers every request immediately (zero think), so client mechanics can
// be tested without the full httpsim stack.
func echoServer(t *testing.T, k *kernel.Kernel) *kernel.Process {
	t.Helper()
	p := k.NewProcess("echo")
	th := p.NewThread("main")
	_, err := k.Listen(p, kernel.ListenConfig{
		Local: srvAddr,
		OnAcceptable: func(ls *kernel.ListenSocket) {
			conn, ok := ls.Accept()
			if !ok {
				return
			}
			conn.SetOnRequest(func(c *kernel.Conn, payload any) {
				req, ok := payload.(*httpsim.Request)
				if !ok {
					return
				}
				cont := c.Container()
				if k.Mode() != kernel.ModeRC {
					cont = nil
				}
				th.PostFunc("handle", 50*sim.Microsecond, 0, cont, func() {
					c.Send(th, req.Size, cont, func() {
						if req.OnResponse != nil {
							req.OnResponse(k.Now())
						}
					})
					if req.CloseAfter {
						c.Close()
					}
				})
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newTestKernel() (*sim.Engine, *kernel.Kernel) {
	eng := sim.NewEngine(11)
	return eng, kernel.New(eng, kernel.ModeUnmodified, kernel.DefaultCosts())
}

func TestClientClosedLoop(t *testing.T) {
	eng, k := newTestKernel()
	echoServer(t, k)
	c := MustStartClient(ClientConfig{
		Kernel: k,
		Src:    kernel.Addr("10.1.0.1", 1024),
		Dst:    srvAddr,
	})
	eng.RunUntil(sim.Time(sim.Second))
	if c.Meter.Count() < 100 {
		t.Fatalf("completed %d requests, want many", c.Meter.Count())
	}
	if c.Latency.N() != int(c.Meter.Count()) {
		t.Fatalf("latency samples %d != completions %d", c.Latency.N(), c.Meter.Count())
	}
	if c.Timeouts.Value() != 0 {
		t.Fatalf("unexpected timeouts: %d", c.Timeouts.Value())
	}
	// Closed loop: response time lower-bounds the cycle.
	if c.Latency.Min() <= 0 {
		t.Fatal("non-positive latency")
	}
}

func TestClientThinkTimeLimitsRate(t *testing.T) {
	eng, k := newTestKernel()
	echoServer(t, k)
	c := MustStartClient(ClientConfig{
		Kernel: k,
		Src:    kernel.Addr("10.1.0.1", 1024),
		Dst:    srvAddr,
		Think:  10 * sim.Millisecond,
	})
	eng.RunUntil(sim.Time(5 * sim.Second))
	rate := c.Meter.Rate(eng.Now())
	// cycle ≈ think (10ms ± jitter) + service; rate must be well under
	// the unthrottled rate and near 1/cycle ≈ 95/s.
	if rate < 60 || rate > 110 {
		t.Fatalf("rate %.1f/s, want ~95/s with 10ms think", rate)
	}
}

func TestClientPersistentSingleConnection(t *testing.T) {
	eng, k := newTestKernel()
	echoServer(t, k)
	c := MustStartClient(ClientConfig{
		Kernel:     k,
		Src:        kernel.Addr("10.1.0.1", 1024),
		Dst:        srvAddr,
		Persistent: true,
	})
	eng.RunUntil(sim.Time(sim.Second))
	if c.Meter.Count() < 100 {
		t.Fatalf("completed %d", c.Meter.Count())
	}
	// Persistent clients are faster than conn-per-request ones: compare.
	eng2, k2 := newTestKernel()
	echoServer(t, k2)
	c2 := MustStartClient(ClientConfig{
		Kernel: k2,
		Src:    kernel.Addr("10.1.0.1", 1024),
		Dst:    srvAddr,
	})
	eng2.RunUntil(sim.Time(sim.Second))
	if c.Meter.Count() <= c2.Meter.Count() {
		t.Fatalf("persistent (%d) should beat conn-per-request (%d)",
			c.Meter.Count(), c2.Meter.Count())
	}
}

func TestClientConnectTimeoutRetries(t *testing.T) {
	eng, k := newTestKernel()
	// No server listening: every SYN is dropped silently.
	c := MustStartClient(ClientConfig{
		Kernel:         k,
		Src:            kernel.Addr("10.1.0.1", 1024),
		Dst:            srvAddr,
		ConnectTimeout: 100 * sim.Millisecond,
	})
	eng.RunUntil(sim.Time(sim.Second))
	if c.Timeouts.Value() < 8 {
		t.Fatalf("timeouts %d, want ~9 retries in 1s with 100ms timeout", c.Timeouts.Value())
	}
	if c.Meter.Count() != 0 {
		t.Fatal("completed requests against no server")
	}
}

func TestClientStop(t *testing.T) {
	eng, k := newTestKernel()
	echoServer(t, k)
	c := MustStartClient(ClientConfig{
		Kernel: k,
		Src:    kernel.Addr("10.1.0.1", 1024),
		Dst:    srvAddr,
	})
	eng.RunUntil(sim.Time(100 * sim.Millisecond))
	c.Stop()
	n := c.Meter.Count()
	eng.RunUntil(sim.Time(sim.Second))
	if c.Meter.Count() > n+1 {
		t.Fatalf("client kept running after Stop: %d -> %d", n, c.Meter.Count())
	}
}

func TestClientResetStats(t *testing.T) {
	eng, k := newTestKernel()
	echoServer(t, k)
	c := MustStartClient(ClientConfig{
		Kernel: k,
		Src:    kernel.Addr("10.1.0.1", 1024),
		Dst:    srvAddr,
	})
	eng.RunUntil(sim.Time(500 * sim.Millisecond))
	c.ResetStats()
	if c.Meter.Count() != 0 || c.Latency.N() != 0 {
		t.Fatal("ResetStats did not clear")
	}
	eng.RunUntil(sim.Time(sim.Second))
	if c.Meter.Count() == 0 {
		t.Fatal("client stopped after ResetStats")
	}
}

func TestPopulationDistinctIPs(t *testing.T) {
	eng, k := newTestKernel()
	echoServer(t, k)
	pop := MustStartPopulation(4, ClientConfig{
		Kernel: k,
		Src:    kernel.Addr("10.1.0.1", 1024),
		Dst:    srvAddr,
	})
	if len(pop.Clients) != 4 {
		t.Fatalf("clients %d", len(pop.Clients))
	}
	seen := map[netsim.IP]bool{}
	for _, c := range pop.Clients {
		if seen[c.cfg.Src.IP] {
			t.Fatal("duplicate client IP")
		}
		seen[c.cfg.Src.IP] = true
	}
	eng.RunUntil(sim.Time(sim.Second))
	if pop.Completed() < 400 {
		t.Fatalf("population completed %d", pop.Completed())
	}
	if pop.Rate(eng.Now()) <= 0 || pop.MeanLatencyMs() <= 0 {
		t.Fatal("population stats empty")
	}
	if pop.String() == "" {
		t.Fatal("empty population description")
	}
}

func TestPopulationStopAndReset(t *testing.T) {
	eng, k := newTestKernel()
	echoServer(t, k)
	pop := MustStartPopulation(3, ClientConfig{
		Kernel: k,
		Src:    kernel.Addr("10.1.0.1", 1024),
		Dst:    srvAddr,
	})
	eng.RunUntil(sim.Time(200 * sim.Millisecond))
	pop.ResetStats()
	if pop.Completed() != 0 {
		t.Fatal("ResetStats did not clear population")
	}
	pop.Stop()
	eng.RunUntil(sim.Time(sim.Second))
	if pop.Completed() > 3 {
		t.Fatalf("population kept running after Stop: %d", pop.Completed())
	}
}

func TestMeanLatencyEmptyPopulation(t *testing.T) {
	_, k := newTestKernel()
	pop := &Population{}
	if pop.MeanLatencyMs() != 0 {
		t.Fatal("empty population latency should be 0")
	}
	_ = k
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, float64) {
		eng, k := newTestKernel()
		echoServer(t, k)
		pop := MustStartPopulation(8, ClientConfig{
			Kernel: k,
			Src:    kernel.Addr("10.1.0.1", 1024),
			Dst:    srvAddr,
			Think:  2 * sim.Millisecond,
		})
		eng.RunUntil(sim.Time(2 * sim.Second))
		return pop.Completed(), pop.MeanLatencyMs()
	}
	n1, l1 := run()
	n2, l2 := run()
	if n1 != n2 || l1 != l2 {
		t.Fatalf("simulation not deterministic: (%d, %v) vs (%d, %v)", n1, l1, n2, l2)
	}
}

func TestFlooderRate(t *testing.T) {
	eng, k := newTestKernel()
	echoServer(t, k)
	f := StartFlood(k, 10_000, netsim.MustParseIP("66.0.0.1"), 16, srvAddr)
	eng.RunUntil(sim.Time(sim.Second))
	if f.Sent() < 9_000 || f.Sent() > 11_000 {
		t.Fatalf("flood sent %d in 1s, want ~10000", f.Sent())
	}
	f.Stop()
	n := f.Sent()
	eng.RunUntil(sim.Time(2 * sim.Second))
	if f.Sent() != n {
		t.Fatal("flooder kept sending after Stop")
	}
}

func TestFlooderCyclesSources(t *testing.T) {
	eng, k := newTestKernel()
	var srcs []netsim.IP
	p := k.NewProcess("sink")
	_, err := k.Listen(p, kernel.ListenConfig{
		Local:      srvAddr,
		SynBacklog: 1, // force drops so we see sources via OnSynDrop
		OnSynDrop:  func(a netsim.Addr) { srcs = append(srcs, a.IP) },
	})
	if err != nil {
		t.Fatal(err)
	}
	StartFlood(k, 1000, netsim.MustParseIP("66.0.0.1"), 4, srvAddr)
	eng.RunUntil(sim.Time(100 * sim.Millisecond))
	distinct := map[netsim.IP]bool{}
	for _, ip := range srcs {
		distinct[ip] = true
	}
	if len(distinct) != 4 {
		t.Fatalf("flood used %d source addresses, want 4", len(distinct))
	}
}

func TestOpenLoopRateUnderCapacity(t *testing.T) {
	eng, k := newTestKernel()
	echoServer(t, k)
	c := StartOpenLoop(OpenLoopConfig{
		Kernel: k,
		Src:    kernel.Addr("10.1.0.1", 1024),
		Dst:    srvAddr,
		Rate:   500,
	})
	eng.RunUntil(sim.Time(4 * sim.Second))
	rate := c.Completions.Rate(eng.Now())
	if rate < 450 || rate > 550 {
		t.Fatalf("open-loop completion rate %.0f, want ~500", rate)
	}
	if c.Refused.Value() != 0 {
		t.Fatalf("refused %d under capacity", c.Refused.Value())
	}
}

func TestOpenLoopRefusesBeyondOutstandingCap(t *testing.T) {
	eng, k := newTestKernel()
	// No server: requests pile up to the cap, then arrivals are refused.
	c := StartOpenLoop(OpenLoopConfig{
		Kernel:         k,
		Src:            kernel.Addr("10.1.0.1", 1024),
		Dst:            srvAddr,
		Rate:           1000,
		MaxOutstanding: 4,
		Timeout:        10 * sim.Second,
	})
	eng.RunUntil(sim.Time(sim.Second))
	if c.Refused.Value() == 0 {
		t.Fatal("expected refusals at the outstanding cap")
	}
	if c.Completions.Count() != 0 {
		t.Fatal("completions against no server")
	}
}

func TestOpenLoopAbandonsOnTimeout(t *testing.T) {
	eng, k := newTestKernel()
	c := StartOpenLoop(OpenLoopConfig{
		Kernel:         k,
		Src:            kernel.Addr("10.1.0.1", 1024),
		Dst:            srvAddr,
		Rate:           100,
		MaxOutstanding: 1000,
		Timeout:        100 * sim.Millisecond,
	})
	eng.RunUntil(sim.Time(2 * sim.Second))
	if c.Abandoned.Value() < 150 {
		t.Fatalf("abandoned %d, want ~190 with no server", c.Abandoned.Value())
	}
}

func TestOpenLoopStop(t *testing.T) {
	eng, k := newTestKernel()
	echoServer(t, k)
	c := StartOpenLoop(OpenLoopConfig{
		Kernel: k,
		Src:    kernel.Addr("10.1.0.1", 1024),
		Dst:    srvAddr,
		Rate:   1000,
	})
	eng.RunUntil(sim.Time(500 * sim.Millisecond))
	c.Stop()
	n := c.Completions.Count()
	eng.RunUntil(sim.Time(2 * sim.Second))
	if c.Completions.Count() > n+2 {
		t.Fatalf("open-loop client kept firing after Stop")
	}
}

func TestClientsSurviveWireLoss(t *testing.T) {
	// Failure injection: 20% of client packets vanish; retries keep the
	// workload progressing, at reduced throughput and with timeouts.
	eng, k := newTestKernel()
	k.Faults = fault.NewInjector(eng, fault.Config{DropRate: 0.2})
	echoServer(t, k)
	pop := MustStartPopulation(4, ClientConfig{
		Kernel:         k,
		Src:            kernel.Addr("10.1.0.1", 1024),
		Dst:            srvAddr,
		ConnectTimeout: 50 * sim.Millisecond,
		RequestTimeout: 50 * sim.Millisecond,
	})
	eng.RunUntil(sim.Time(5 * sim.Second))
	if pop.Completed() < 500 {
		t.Fatalf("completed %d under 20%% loss, want substantial progress", pop.Completed())
	}
	var timeouts uint64
	for _, c := range pop.Clients {
		timeouts += c.Timeouts.Value()
	}
	if timeouts == 0 {
		t.Fatal("no timeouts under 20% wire loss")
	}
	// Compare against a lossless run: loss must cost throughput.
	eng2, k2 := newTestKernel()
	echoServer(t, k2)
	pop2 := MustStartPopulation(4, ClientConfig{
		Kernel: k2,
		Src:    kernel.Addr("10.1.0.1", 1024),
		Dst:    srvAddr,
	})
	eng2.RunUntil(sim.Time(5 * sim.Second))
	if pop.Completed() >= pop2.Completed() {
		t.Fatalf("lossy run (%d) should trail lossless (%d)", pop.Completed(), pop2.Completed())
	}
}
