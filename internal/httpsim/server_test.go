package httpsim_test

import (
	"math"
	"testing"

	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/sim"
	"rescon/internal/workload"
)

var srvAddr = kernel.Addr("10.0.0.1", 80)

func newSim(mode kernel.Mode) (*sim.Engine, *kernel.Kernel) {
	eng := sim.NewEngine(42)
	return eng, kernel.New(eng, mode)
}

// measure runs clients against a server for warmup+window and returns the
// aggregate completion rate during the window.
func measure(eng *sim.Engine, pop *workload.Population, warmup, window sim.Duration) float64 {
	eng.RunUntil(sim.Time(warmup))
	pop.ResetStats()
	eng.RunUntil(sim.Time(warmup + window))
	return pop.Rate(eng.Now())
}

func TestBaselineThroughputConnPerRequest(t *testing.T) {
	// §5.3: 1 KB cached file, one connection per request: 2954 req/s on
	// the unmodified kernel.
	eng, k := newSim(kernel.ModeUnmodified)
	if _, err := httpsim.NewServer(httpsim.Config{Kernel: k, Name: "httpd", Addr: srvAddr, API: httpsim.SelectAPI}); err != nil {
		t.Fatal(err)
	}
	pop := workload.MustStartPopulation(32, workload.ClientConfig{
		Kernel: k,
		Src:    kernel.Addr("10.1.0.1", 1024),
		Dst:    srvAddr,
	})
	rate := measure(eng, pop, 2*sim.Second, 10*sim.Second)
	if math.Abs(rate-2954)/2954 > 0.08 {
		t.Fatalf("conn-per-request throughput %.0f req/s, want ~2954 ±8%%", rate)
	}
}

func TestBaselineThroughputPersistent(t *testing.T) {
	// §5.3: persistent connections: 9487 req/s.
	eng, k := newSim(kernel.ModeUnmodified)
	if _, err := httpsim.NewServer(httpsim.Config{Kernel: k, Name: "httpd", Addr: srvAddr, API: httpsim.SelectAPI}); err != nil {
		t.Fatal(err)
	}
	pop := workload.MustStartPopulation(32, workload.ClientConfig{
		Kernel:     k,
		Src:        kernel.Addr("10.1.0.1", 1024),
		Dst:        srvAddr,
		Persistent: true,
	})
	rate := measure(eng, pop, 2*sim.Second, 10*sim.Second)
	if math.Abs(rate-9487)/9487 > 0.08 {
		t.Fatalf("persistent throughput %.0f req/s, want ~9487 ±8%%", rate)
	}
}

func TestServerModesServeRequests(t *testing.T) {
	for _, mode := range []kernel.Mode{kernel.ModeUnmodified, kernel.ModeLRP, kernel.ModeRC} {
		for _, api := range []httpsim.API{httpsim.SelectAPI, httpsim.EventAPI} {
			mode, api := mode, api
			t.Run(mode.String()+"/"+api.String(), func(t *testing.T) {
				eng, k := newSim(mode)
				srv, err := httpsim.NewServer(httpsim.Config{
					Kernel: k, Name: "httpd", Addr: srvAddr, API: api,
					PerConnContainers: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				pop := workload.MustStartPopulation(4, workload.ClientConfig{
					Kernel: k,
					Src:    kernel.Addr("10.1.0.1", 1024),
					Dst:    srvAddr,
					Think:  5 * sim.Millisecond,
				})
				eng.RunUntil(sim.Time(2 * sim.Second))
				if pop.Completed() < 100 {
					t.Fatalf("only %d requests completed", pop.Completed())
				}
				if srv.StaticServed < 100 {
					t.Fatalf("server count %d", srv.StaticServed)
				}
				if pop.MeanLatencyMs() <= 0 {
					t.Fatal("no latency recorded")
				}
			})
		}
	}
}

func TestRCOverheadNegligible(t *testing.T) {
	// §5.4: creating one container per connection (with the Table-1 op
	// costs) leaves throughput effectively unchanged.
	run := func(containers bool) float64 {
		eng, k := newSim(kernel.ModeRC)
		_, err := httpsim.NewServer(httpsim.Config{
			Kernel: k, Name: "httpd", Addr: srvAddr, API: httpsim.SelectAPI,
			PerConnContainers:      containers,
			ContainerOpsPerRequest: containers,
		})
		if err != nil {
			t.Fatal(err)
		}
		pop := workload.MustStartPopulation(32, workload.ClientConfig{
			Kernel: k,
			Src:    kernel.Addr("10.1.0.1", 1024),
			Dst:    srvAddr,
		})
		return measure(eng, pop, 2*sim.Second, 10*sim.Second)
	}
	with, without := run(true), run(false)
	// Observed: ~2.3% from smaller select batches plus ~1.4% from the
	// Table-1 op costs — "effectively unchanged" as in the paper.
	if with < without*0.95 {
		t.Fatalf("per-request containers cost too much: %.0f vs %.0f req/s", with, without)
	}
}

func TestPersistentConnectionReusesConn(t *testing.T) {
	eng, k := newSim(kernel.ModeUnmodified)
	if _, err := httpsim.NewServer(httpsim.Config{Kernel: k, Name: "httpd", Addr: srvAddr, API: httpsim.SelectAPI}); err != nil {
		t.Fatal(err)
	}
	cl := workload.MustStartClient(workload.ClientConfig{
		Kernel:     k,
		Src:        kernel.Addr("10.1.0.1", 1024),
		Dst:        srvAddr,
		Persistent: true,
		Think:      sim.Millisecond,
	})
	eng.RunUntil(sim.Time(sim.Second))
	if cl.Meter.Count() < 100 {
		t.Fatalf("completed %d", cl.Meter.Count())
	}
	// One connection total: the server saw exactly one accept.
	if cl.Timeouts.Value() != 0 {
		t.Fatalf("timeouts %d", cl.Timeouts.Value())
	}
}

func TestEventAPIPriorityOrder(t *testing.T) {
	// With the event API and containers, a high-priority event is handled
	// before earlier-arrived low-priority events (§5.5).
	eng, k := newSim(kernel.ModeRC)
	srv, err := httpsim.NewServer(httpsim.Config{
		Kernel: k, Name: "httpd", Addr: srvAddr, API: httpsim.EventAPI,
		PerConnContainers: true,
		ConnPriority: func(a kernel.Address) int {
			if a.IP == kernel.Addr("10.9.9.9", 0).IP {
				return 30
			}
			return 1
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = srv
	// Saturate with low-priority clients, then compare mean response
	// times: the high-priority client must be served far faster.
	lows := workload.MustStartPopulation(24, workload.ClientConfig{
		Kernel: k, Src: kernel.Addr("10.1.0.1", 2000), Dst: srvAddr,
	})
	hi := workload.MustStartClient(workload.ClientConfig{
		Kernel: k, Src: kernel.Addr("10.9.9.9", 2000), Dst: srvAddr,
		Think: 10 * sim.Millisecond,
	})
	eng.RunUntil(sim.Time(2 * sim.Second))
	lows.ResetStats()
	hi.ResetStats()
	eng.RunUntil(sim.Time(6 * sim.Second))
	if hi.Latency.N() == 0 {
		t.Fatal("high-priority client starved entirely")
	}
	loMean := lows.MeanLatencyMs()
	hiMean := hi.Latency.Mean()
	if hiMean > loMean/2 {
		t.Fatalf("priority order not honored: hi=%.3fms lo=%.3fms", hiMean, loMean)
	}
}
