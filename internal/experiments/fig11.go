package experiments

import (
	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/metrics"
	"rescon/internal/netsim"
	"rescon/internal/rc"
	"rescon/internal/sched"
	"rescon/internal/sim"
	"rescon/internal/workload"
)

// Fig11Points is the x axis of Fig. 11: concurrent low-priority clients.
var Fig11Points = []int{0, 5, 10, 15, 20, 25, 30, 35}

// fig11System describes one curve of Fig. 11.
type fig11System struct {
	name       string
	mode       kernel.Mode
	api        httpsim.API
	containers bool
	// premiumSocket binds a filtered listen socket (§4.8) to a
	// high-priority container for the premium client, prioritizing its
	// connection requests before the application sees them. The select()
	// configuration of §5.5 assigns containers only after accept(), so it
	// runs without one.
	premiumSocket bool
	// lottery switches the container scheduler's time-share policy to
	// lottery scheduling (leaf-policy ablation).
	lottery bool
}

var fig11Systems = []fig11System{
	{name: "Without containers", mode: kernel.ModeUnmodified, api: httpsim.SelectAPI},
	{name: "With containers/select()", mode: kernel.ModeRC, api: httpsim.SelectAPI,
		containers: true, premiumSocket: true},
	{name: "With containers/new event API", mode: kernel.ModeRC, api: httpsim.EventAPI,
		containers: true, premiumSocket: true},
}

// HighPriority is the container priority of the premium client's
// connections; LowPriority that of everyone else.
const (
	HighPriority = 30
	LowPriority  = 1
)

// Fig11 reproduces §5.5: the response time seen by one high-priority
// client while an increasing number of low-priority clients saturate the
// server, under three systems. Requests are for the same 1 KB static
// file, one request per connection.
func Fig11(opt Options) []*metrics.Series {
	opt = opt.withDefaults(2*sim.Second, 10*sim.Second)
	np := len(Fig11Points)
	vals := runPoints(opt.Parallel, len(fig11Systems)*np, func(i int) float64 {
		return fig11Point(fig11Systems[i/np], Fig11Points[i%np], opt).Mean()
	})
	var out []*metrics.Series
	for si, sys := range fig11Systems {
		s := &metrics.Series{Name: sys.name}
		for pi, n := range Fig11Points {
			s.Append(float64(n), vals[si*np+pi])
		}
		out = append(out, s)
	}
	return out
}

// fig11Point returns the high-priority client's response-time summary
// (ms) with n low-priority clients.
func fig11Point(sys fig11System, n int, opt Options) *metrics.Summary {
	e := newEnv(sys.mode, opt)
	if sys.lottery {
		if cs, ok := e.k.Scheduler().(*sched.ContainerScheduler); ok {
			cs.SetLeafPolicy(sched.PolicyLottery, opt.Seed)
		}
	}
	srv, err := httpsim.NewServer(httpsim.Config{
		Kernel: e.k, Name: "httpd", Addr: ServerAddr, API: sys.api,
		PerConnContainers: sys.containers, ConnPriority: premiumPriority,
	})
	if err != nil {
		panic(err)
	}
	if sys.premiumSocket {
		// §4.8: a filtered listen socket gives the premium client's SYN
		// and connection-request processing high priority before the
		// application ever sees the connection.
		hiCont := rc.MustNew(nil, rc.TimeShare, "premium",
			rc.Attributes{Priority: HighPriority})
		if _, err := srv.AddListener(netsim.Filter{Template: HighPriorityIP, MaskBits: 32}, hiCont); err != nil {
			panic(err)
		}
	}

	// Every client is closed-loop with a small think time, so the x axis
	// sweeps across the saturation knee as in the paper.
	client := workload.ClientConfig{Think: 5 * sim.Millisecond}
	return e.premiumRun(n, client, client, opt)
}

// premiumPriority is the container priority of a connection in the
// prioritized-client scenario: HighPriority for the premium client,
// LowPriority for everyone else.
func premiumPriority(a netsim.Addr) int {
	if a.IP == HighPriorityIP {
		return HighPriority
	}
	return LowPriority
}

// premiumRun is the measurement of the prioritized-client scenario
// (§5.5) against the server already listening at ServerAddr: it starts n
// low-priority clients from ClientNet+1 with the low template and then
// the premium client from HighPriorityIP with the high template, runs the
// warmup and the window, and returns the premium client's latency
// summary over the window.
func (e *env) premiumRun(n int, low, high workload.ClientConfig, opt Options) *metrics.Summary {
	low.Kernel, low.Src, low.Dst = e.k, netsim.Addr{IP: ClientNet + 1, Port: 1024}, ServerAddr
	high.Kernel, high.Src, high.Dst = e.k, netsim.Addr{IP: HighPriorityIP, Port: 1024}, ServerAddr
	lows := workload.MustStartPopulation(n, low)
	premium := workload.MustStartClient(high)
	start := e.eng.Now()
	e.eng.RunUntil(start.Add(opt.Warmup))
	lows.ResetStats()
	premium.ResetStats()
	e.eng.RunUntil(start.Add(opt.Warmup + opt.Window))
	return &premium.Latency
}
