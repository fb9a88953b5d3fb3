// Quickstart: create resource containers, run a prioritized Web server on
// the simulated resource-container kernel, and inspect per-activity
// resource accounting — the paper's core abstraction in ~60 lines.
package main

import (
	"fmt"
	"os"

	"rescon"
)

func main() {
	// A deterministic simulated machine running the resource-container
	// kernel (ModeRC). ModeUnmodified and ModeLRP give the paper's two
	// comparison systems. Functional options tune the machine —
	// WithCPUs(4) for SMP, WithCosts for a custom cost model; here,
	// WithTelemetry attaches structured tracing and CPU profiling.
	s := rescon.NewSim(rescon.ModeRC, 42,
		rescon.WithTelemetry())

	// An event-driven Web server (the thttpd-like server of §5.2) that
	// creates one resource container per connection. Clients from the
	// 10.9.0.0/16 "premium" network get priority 30; everyone else 1.
	premium := rescon.CIDR("10.9.0.0", 16)
	srv, err := rescon.NewServer(rescon.ServerConfig{
		Kernel:            s.Kernel,
		Name:              "httpd",
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

	// Load: 24 ordinary clients saturate the server; one premium client
	// measures response time.
	regular := rescon.MustStartPopulation(24, rescon.ClientConfig{
		Kernel: s.Kernel,
		Src:    rescon.Addr("10.1.0.1", 1024),
		Dst:    rescon.Addr("10.0.0.1", 80),
	})
	vip := rescon.MustStartClient(rescon.ClientConfig{
		Kernel: s.Kernel,
		Src:    rescon.Addr("10.9.0.1", 1024),
		Dst:    rescon.Addr("10.0.0.1", 80),
		Think:  5 * rescon.Millisecond,
	})

	// Warm up, reset the meters, measure.
	s.RunFor(2 * rescon.Second)
	regular.ResetStats()
	vip.ResetStats()
	s.RunFor(10 * rescon.Second)

	fmt.Printf("server throughput:        %.0f requests/s (regular clients)\n",
		regular.Rate(s.Now()))
	fmt.Printf("regular response time:    %.2f ms mean\n", regular.MeanLatencyMs())
	fmt.Printf("premium response time:    %.2f ms mean  (prioritized by container)\n",
		vip.Latency.Mean())

	// Every activity's consumption is fully accounted, including
	// kernel-mode protocol processing (§4.1).
	u := srv.Process().DefaultContainer.Usage()
	fmt.Printf("server default container: user=%v kernel=%v\n", u.CPUUser, u.CPUKernel)
	fmt.Printf("static requests served:   %d\n", srv.StaticServed)

	// The telemetry collector breaks the same accounting down by kernel
	// stage: where did every simulated microsecond actually go?
	fmt.Println()
	s.Telemetry.WriteProfile(os.Stdout, 8)
}
