package experiments

import (
	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/metrics"
	"rescon/internal/sim"
	"rescon/internal/workload"
)

// DiskBoundPoints is the x axis of the disk-bound extension experiment.
var DiskBoundPoints = []int{0, 2, 4, 8, 12, 16}

// DiskBound is an extension experiment for §4.4: the same prioritized-
// client scenario as Fig. 11, but with *uncached* documents, so the disk
// (~8 ms positioning per request) is the bottleneck instead of the CPU.
// With resource containers the disk queue is served in container-priority
// order and the premium client's response time stays near one disk
// access; on the unmodified kernel the disk queue is FIFO and the premium
// client waits behind every queued low-priority read.
func DiskBound(opt Options) []*metrics.Series {
	opt = opt.withDefaults(2*sim.Second, 10*sim.Second)
	modes := []kernel.Mode{kernel.ModeUnmodified, kernel.ModeRC}
	np := len(DiskBoundPoints)
	vals := runPoints(opt.Parallel, len(modes)*np, func(i int) float64 {
		return diskBoundPoint(modes[i/np], DiskBoundPoints[i%np], opt)
	})
	var out []*metrics.Series
	for mi, mode := range modes {
		name := "Unmodified (FIFO disk)"
		if mode == kernel.ModeRC {
			name = "Resource containers (priority disk)"
		}
		s := &metrics.Series{Name: name}
		for pi, n := range DiskBoundPoints {
			s.Append(float64(n), vals[mi*np+pi])
		}
		out = append(out, s)
	}
	return out
}

func diskBoundPoint(mode kernel.Mode, n int, opt Options) float64 {
	e := newEnv(mode, opt)
	if _, err := httpsim.NewServer(httpsim.Config{
		Kernel: e.k, Name: "httpd", Addr: ServerAddr, API: httpsim.EventAPI,
		PerConnContainers: mode == kernel.ModeRC, ConnPriority: premiumPriority,
	}); err != nil {
		panic(err)
	}
	return e.premiumRun(n, workload.ClientConfig{Uncached: true},
		workload.ClientConfig{Uncached: true, Think: 20 * sim.Millisecond}, opt).Mean()
}
