package experiments

import (
	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/metrics"
	"rescon/internal/netsim"
	"rescon/internal/sim"
	"rescon/internal/workload"
)

// Apache reproduces the related-work comparison of §6: Almeida et al.
// mapped QoS classes onto *process* priorities in a process-per-
// connection (Apache-style) server on an unmodified kernel. The mapping
// expresses the policy — the premium client's user-level work is favored
// — but "the effectiveness of this technique was limited by their
// inability to control kernel-mode resource consumption, or to
// differentiate between existing connections and new connection
// requests": under saturation the premium client still queues behind the
// shared accept path and kernel processing, while resource containers
// keep it fast.
func Apache(opt Options) []*metrics.Series {
	opt = opt.withDefaults(2*sim.Second, 10*sim.Second)
	apache := &metrics.Series{Name: "Apache + nice (unmodified)"}
	rcs := &metrics.Series{Name: "With containers/new event API"}
	np := len(Fig11Points)
	vals := runPoints(opt.Parallel, 2*np, func(i int) float64 {
		n := Fig11Points[i%np]
		if i < np {
			return apachePoint(n, opt)
		}
		sys := fig11System{mode: kernel.ModeRC, api: httpsim.EventAPI,
			containers: true, premiumSocket: true}
		return fig11Point(sys, n, opt).Mean()
	})
	for pi, n := range Fig11Points {
		apache.Append(float64(n), vals[pi])
		rcs.Append(float64(n), vals[np+pi])
	}
	return []*metrics.Series{apache, rcs}
}

// apachePoint returns T_high for the nice-based process-per-connection
// configuration with n low-priority clients.
func apachePoint(n int, opt Options) float64 {
	e := newEnv(kernel.ModeUnmodified, opt)
	srv, err := httpsim.NewForkServer(httpsim.Config{
		Kernel: e.k, Name: "apache", Addr: ServerAddr,
	}, 16)
	if err != nil {
		panic(err)
	}
	srv.NicePriority = func(a netsim.Addr) int {
		if a.IP == HighPriorityIP {
			return 0 // premium class
		}
		return 8 // background class
	}
	client := workload.ClientConfig{Think: 5 * sim.Millisecond}
	return e.premiumRun(n, client, client, opt).Mean()
}
