package rescon_test

import (
	"fmt"

	"rescon"
)

// The canonical flow: a prioritized server on the resource-container
// kernel, with per-activity accounting. Deterministic, so the output is
// exact.
func Example() {
	s := rescon.NewSim(rescon.ModeRC, 42)
	premium := rescon.CIDR("10.9.0.0", 16)
	srv, err := rescon.NewServer(rescon.ServerConfig{
		Kernel: s.Kernel, Name: "httpd",
		Addr:              rescon.Addr("10.0.0.1", 80),
		API:               rescon.EventAPI,
		PerConnContainers: true,
		ConnPriority: func(a rescon.Address) int {
			if premium.Matches(a.IP) {
				return 30
			}
			return 1
		},
	})
	if err != nil {
		panic(err)
	}
	clients := rescon.MustStartPopulation(8, rescon.ClientConfig{
		Kernel: s.Kernel,
		Src:    rescon.Addr("10.1.0.1", 1024),
		Dst:    rescon.Addr("10.0.0.1", 80),
	})
	s.RunFor(2 * rescon.Second)
	fmt.Printf("served %v requests, all accounted: kernel CPU > 0: %v\n",
		clients.Completed() > 1000,
		srv.Process().DefaultContainer.Usage().CPUKernel > 0)
	// Output: served true requests, all accounted: kernel CPU > 0: true
}

// Containers form a hierarchy: a guest's consumption is the sum of its
// children's, and attributes constrain the whole subtree (§4.5).
func ExampleNewContainer() {
	guest, _ := rescon.NewContainer(nil, rescon.FixedShare, "guest",
		rescon.Attributes{Share: 0.5, Limit: 0.5})
	conn, _ := rescon.NewContainer(guest, rescon.TimeShare, "conn-1",
		rescon.Attributes{Priority: rescon.DefaultPriority})
	conn.ChargeCPU(0, 3*rescon.Millisecond, nil)
	fmt.Println("guest CPU:", guest.Usage().CPU())
	fmt.Println("leaf:", conn.IsLeaf(), "depth:", conn.Depth())
	// Output:
	// guest CPU: 3ms
	// leaf: true depth: 1
}

// The SYN-flood defense of §5.7: a filtered listen socket bound to a
// priority-0 container confines attack processing to idle cycles.
func ExampleServer_AddListener() {
	s := rescon.NewSim(rescon.ModeRC, 7)
	srv, _ := rescon.NewServer(rescon.ServerConfig{
		Kernel: s.Kernel, Name: "httpd",
		Addr: rescon.Addr("10.0.0.1", 80),
		API:  rescon.EventAPI, PerConnContainers: true,
	})
	attackers, _ := rescon.NewContainer(nil, rescon.TimeShare, "attackers",
		rescon.Attributes{Priority: 0})
	ls, _ := srv.AddListener(rescon.CIDR("66.0.0.0", 8), attackers)

	good := rescon.MustStartPopulation(16, rescon.ClientConfig{
		Kernel: s.Kernel,
		Src:    rescon.Addr("10.1.0.1", 1024),
		Dst:    rescon.Addr("10.0.0.1", 80),
	})
	rescon.StartFlood(s.Kernel, 50_000, rescon.Addr("66.0.0.1", 0).IP, 1024,
		rescon.Addr("10.0.0.1", 80))
	s.RunFor(2 * rescon.Second)
	fmt.Printf("good clients kept working under 50k SYN/s: %v (drops confined to %s)\n",
		good.Rate(s.Now()) > 2000, "attackers")
	_ = ls
	// Output: good clients kept working under 50k SYN/s: true (drops confined to attackers)
}

// WithTelemetry attaches the observability layer at construction: a
// structured trace ring, per-principal usage timelines, and a
// virtual-CPU profile attributing every simulated microsecond to
// (principal × kernel stage).
func ExampleWithTelemetry() {
	s := rescon.NewSim(rescon.ModeRC, 42,
		rescon.WithTelemetry())
	_, err := rescon.NewServer(rescon.ServerConfig{
		Kernel: s.Kernel, Name: "httpd",
		Addr: rescon.Addr("10.0.0.1", 80),
		API:  rescon.EventAPI, PerConnContainers: true,
	})
	if err != nil {
		panic(err)
	}
	rescon.MustStartPopulation(8, rescon.ClientConfig{
		Kernel: s.Kernel,
		Src:    rescon.Addr("10.1.0.1", 1024),
		Dst:    rescon.Addr("10.0.0.1", 80),
	})
	s.RunFor(rescon.Second)

	tel := s.Telemetry
	fmt.Println("profiled CPU > 0:", tel.TotalCPU() > 0)
	fmt.Println("socket-stage work on the server:",
		tel.StageCPU("httpd-default", rescon.StageSocket) > 0)
	fmt.Println("timeline sampled:", len(tel.Samples()) > 0)
	// Output:
	// profiled CPU > 0: true
	// socket-stage work on the server: true
	// timeline sampled: true
}

// Fixed shares isolate guests (§5.8): consumption matches allocation.
func ExampleSim_RunFor() {
	s := rescon.NewSim(rescon.ModeRC, 5)
	guest, _ := rescon.NewContainer(nil, rescon.FixedShare, "guest",
		rescon.Attributes{Share: 0.3, Limit: 0.3})
	leaf, _ := rescon.NewContainer(guest, rescon.TimeShare, "work",
		rescon.Attributes{Priority: rescon.DefaultPriority})
	other, _ := rescon.NewContainer(nil, rescon.TimeShare, "other",
		rescon.Attributes{Priority: rescon.DefaultPriority})

	p := s.Kernel.NewProcess("app")
	p.NewThread("guest").PostFunc("w", 100*rescon.Second, 0, leaf, nil)
	p.NewThread("other").PostFunc("w", 100*rescon.Second, 0, other, nil)
	s.RunFor(10 * rescon.Second)
	fmt.Printf("guest share: %.2f\n", guest.Usage().CPU().Seconds()/10)
	// Output: guest share: 0.30
}
