package experiments

import (
	"fmt"

	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/metrics"
	"rescon/internal/netsim"
	"rescon/internal/sim"
	"rescon/internal/workload"
)

// SMPCounts is the processor-count axis of the SMP extension experiment.
var SMPCounts = []int{1, 2, 4}

// SMP is an extension experiment for the paper's §2 observation that
// "event-driven servers designed for multiprocessors use one thread per
// processor": throughput of dynamic (in-process module) requests under
// the single-threaded event-driven server vs. the multi-threaded server
// as processors are added. The event-driven server is pinned to its one
// thread; the thread pool scales.
func SMP(opt Options) *metrics.Table {
	opt = opt.withDefaults(2*sim.Second, 10*sim.Second)
	t := metrics.NewTable("Extension: server architectures on a multiprocessor (module requests/s)",
		"CPUs", "Event-driven (1 thread)", "Multi-threaded (pool of 8)")
	for _, n := range SMPCounts {
		ev := smpPoint(n, false, opt)
		mt := smpPoint(n, true, opt)
		t.AddRow(fmt.Sprintf("%d", n), ev, mt)
	}
	return t
}

func smpPoint(ncpus int, multithreaded bool, opt Options) float64 {
	e := newSMPEnv(kernel.ModeRC, ncpus, opt)
	cfg := httpsim.Config{
		Kernel: e.k, Name: "httpd", Addr: ServerAddr, API: httpsim.EventAPI,
		PerConnContainers: true,
	}
	var err error
	if multithreaded {
		_, err = httpsim.NewMTServer(cfg, 8)
	} else {
		_, err = httpsim.NewServer(cfg)
	}
	if err != nil {
		panic(err)
	}
	// CPU-heavy dynamic requests (1 ms modules) keep the pool busy.
	pop := workload.MustStartPopulation(32, workload.ClientConfig{
		Kernel: e.k,
		Src:    netsim.Addr{IP: ClientNet + 1, Port: 1024},
		Dst:    ServerAddr,
		Kind:   httpsim.Module,
		CGICPU: sim.Millisecond,
	})
	return e.measureRate(pop, opt.Warmup, opt.Window)
}
