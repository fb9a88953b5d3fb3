package httpsim_test

import (
	"testing"

	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/sim"
	"rescon/internal/workload"
)

func TestForkServerServesLoad(t *testing.T) {
	eng, k := newSim(kernel.ModeUnmodified)
	srv, err := httpsim.NewForkServer(httpsim.Config{
		Kernel: k, Name: "ncsa", Addr: srvAddr,
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	pop := workload.MustStartPopulation(4, workload.ClientConfig{
		Kernel: k,
		Src:    kernel.Addr("10.1.0.1", 1024),
		Dst:    srvAddr,
	})
	eng.RunUntil(sim.Time(2 * sim.Second))
	if pop.Completed() < 1000 {
		t.Fatalf("completed %d", pop.Completed())
	}
	if srv.StaticServed < 1000 {
		t.Fatalf("served %d", srv.StaticServed)
	}
	// The work happened in the worker processes, not the master.
	var workerCPU float64
	for _, v := range srv.WorkerCPU() {
		workerCPU += v
	}
	if workerCPU <= 0 {
		t.Fatal("workers consumed no CPU")
	}
	if srv.Master().CPUTime() == 0 {
		t.Fatal("master (accept path) consumed no CPU")
	}
}

func TestForkServerBacklogWhenWorkersBusy(t *testing.T) {
	eng, k := newSim(kernel.ModeUnmodified)
	_, err := httpsim.NewForkServer(httpsim.Config{
		Kernel: k, Name: "ncsa", Addr: srvAddr,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 4 concurrent long CGI-ish requests against 1 worker still all
	// complete (queued at the master).
	pop := workload.MustStartPopulation(4, workload.ClientConfig{
		Kernel: k,
		Src:    kernel.Addr("10.1.0.1", 1024),
		Dst:    srvAddr,
		Kind:   httpsim.Module, // served in the worker process
		CGICPU: 50 * sim.Millisecond,
	})
	eng.RunUntil(sim.Time(3 * sim.Second))
	if pop.Completed() < 10 {
		t.Fatalf("completed %d with a single worker", pop.Completed())
	}
}

func TestForkServerBadWorkerCount(t *testing.T) {
	_, k := newSim(kernel.ModeUnmodified)
	if _, err := httpsim.NewForkServer(httpsim.Config{Kernel: k, Name: "x", Addr: srvAddr}, 0); err == nil {
		t.Fatal("zero workers should fail")
	}
}

func TestForkServerBadConfig(t *testing.T) {
	_, k := newSim(kernel.ModeUnmodified)
	for _, cfg := range []httpsim.Config{
		{},                     // no kernel
		{Kernel: k, Name: "x"}, // zero listen address
	} {
		if _, err := httpsim.NewForkServer(cfg, 1); err == nil {
			t.Errorf("NewForkServer accepted %+v, which Validate rejects", cfg)
		}
	}
}

func TestForkServerRCContainersTravelToWorkers(t *testing.T) {
	eng, k := newSim(kernel.ModeRC)
	_, err := httpsim.NewForkServer(httpsim.Config{
		Kernel: k, Name: "ncsa", Addr: srvAddr,
		PerConnContainers: true,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	pop := workload.MustStartPopulation(2, workload.ClientConfig{
		Kernel: k,
		Src:    kernel.Addr("10.1.0.1", 1024),
		Dst:    srvAddr,
	})
	eng.RunUntil(sim.Time(sim.Second))
	if pop.Completed() < 100 {
		t.Fatalf("completed %d", pop.Completed())
	}
}

func TestForkServerNiceChangesUserScheduling(t *testing.T) {
	// Nice-based QoS (Almeida et al., §6): with CPU-heavy in-process
	// work and enough workers, nice does shift user-level CPU.
	eng, k := newSim(kernel.ModeUnmodified)
	hiIP := kernel.Addr("10.9.9.9", 0).IP
	srv, err := httpsim.NewForkServer(httpsim.Config{
		Kernel: k, Name: "apache", Addr: srvAddr,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv.NicePriority = func(a kernel.Address) int {
		if a.IP == hiIP {
			return 0
		}
		return 8 // background class
	}
	mk := func(ip string) *workload.Client {
		return workload.MustStartClient(workload.ClientConfig{
			Kernel: k, Src: kernel.Addr(ip, 1024), Dst: srvAddr,
			Persistent: true, Kind: httpsim.Module, CGICPU: 2 * sim.Millisecond,
		})
	}
	lo := mk("10.1.0.1")
	hi := mk("10.9.9.9")
	eng.RunUntil(sim.Time(4 * sim.Second))
	if hi.Meter.Count() <= lo.Meter.Count() {
		t.Fatalf("niced-down client should be served less: hi=%d lo=%d",
			hi.Meter.Count(), lo.Meter.Count())
	}
}
