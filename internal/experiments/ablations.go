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

// AblatePruning isolates the scheduler-binding maintenance design (§4.3,
// §4.7) on the kernel network thread under the Fig. 14 SYN-flood defense.
// Three mechanisms are compared:
//
//  1. exact pending-set binding (the default): the thread's class always
//     reflects exactly the containers with pending packets, so it falls
//     into the idle class the moment only flood traffic is pending;
//  2. implicit binding with pruning (the paper's general mechanism): the
//     thread keeps recently served containers in its binding for the
//     pruning age, so flood processing briefly inherits normal standing;
//  3. implicit binding without pruning: live connection containers keep
//     the thread in the normal class indefinitely, so flood protocol
//     processing competes with the server at normal priority.
func AblatePruning(opt Options) *metrics.Table {
	opt = opt.withDefaults(2*sim.Second, 5*sim.Second)
	const floodRate = 70_000
	t := metrics.NewTable("Ablation: network-thread scheduler binding under a 70k SYN/s flood (RC defense)",
		"Binding mechanism", "Good-client throughput (req/s)")
	cfgs := []struct {
		name     string
		implicit bool
		noPrune  bool
	}{
		{"exact pending-set (default)", false, false},
		{"implicit + pruning", true, false},
		{"implicit, pruning disabled", true, true},
	}
	rates := runPoints(opt.Parallel, len(cfgs), func(i int) float64 {
		return ablatePruningPoint(cfgs[i].implicit, cfgs[i].noPrune, floodRate, opt)
	})
	for i, cfg := range cfgs {
		t.AddRow(cfg.name, rates[i])
	}
	return t
}

func ablatePruningPoint(implicit, disablePruning bool, floodRate sim.Rate, opt Options) float64 {
	e := newEnv(kernel.ModeRC, opt)
	e.k.ImplicitNetBinding = implicit
	if cs, ok := e.k.Scheduler().(*sched.ContainerScheduler); ok {
		cs.DisablePruning = disablePruning
	}
	srv, err := httpsim.NewServer(httpsim.Config{
		Kernel: e.k, Name: "httpd", Addr: ServerAddr, API: httpsim.EventAPI,
		PerConnContainers: true,
	})
	if err != nil {
		panic(err)
	}
	floodCont := rc.MustNew(nil, rc.TimeShare, "attackers", rc.Attributes{Priority: 0})
	if _, err := srv.AddListener(netsim.Filter{Template: AttackNet, MaskBits: 8}, floodCont); err != nil {
		panic(err)
	}
	// Persistent connections: connection containers stay alive, so a
	// non-pruned scheduler binding keeps referencing them.
	good := workload.MustStartPopulation(32, workload.ClientConfig{
		Kernel:     e.k,
		Src:        netsim.Addr{IP: ClientNet + 1, Port: 1024},
		Dst:        ServerAddr,
		Persistent: true,
	})
	workload.StartFlood(e.k, floodRate, AttackNet+1, 4096, ServerAddr)
	return e.measureRate(good, opt.Warmup, opt.Window)
}

// AblateFilterPriority shows that the §5.7 defense needs both mechanisms:
// the filter alone (attacker socket at normal priority) leaves the flood
// a weighted-fair share of protocol processing and forfeits a large part
// of capacity; the filter plus a priority-0 container confines it to
// otherwise-idle cycles.
func AblateFilterPriority(opt Options) *metrics.Table {
	opt = opt.withDefaults(2*sim.Second, 5*sim.Second)
	t := metrics.NewTable("Ablation: filter alone vs. filter + priority-0 container (70k SYN/s)",
		"Defense", "Good-client throughput (req/s)")
	prios := []int{kernel.DefaultPriority, 0}
	rates := runPoints(opt.Parallel, len(prios), func(i int) float64 {
		sys := fig14System{mode: kernel.ModeRC, defend: true, defensePriority: prios[i]}
		return fig14Point(sys, 70_000, opt)
	})
	for i, prio := range prios {
		name := "filtered socket, normal priority"
		if prio == 0 {
			name = "filtered socket, priority-0 container"
		}
		t.AddRow(name, rates[i])
	}
	return t
}

// AblateEventAPI isolates the select() scalability cost independent of
// containers (§5.5): high-priority response time at full low-priority
// load under both APIs on the RC kernel.
func AblateEventAPI(opt Options) *metrics.Table {
	opt = opt.withDefaults(2*sim.Second, 10*sim.Second)
	t := metrics.NewTable("Ablation: select() vs. scalable event API (RC kernel, 35 low-priority clients)",
		"API", "High-priority response time (ms)")
	apis := []httpsim.API{httpsim.SelectAPI, httpsim.EventAPI}
	vals := runPoints(opt.Parallel, len(apis), func(i int) float64 {
		sys := fig11System{name: apis[i].String(), mode: kernel.ModeRC, api: apis[i], containers: true,
			premiumSocket: true}
		return fig11Point(sys, 35, opt).Mean()
	})
	for i, api := range apis {
		t.AddRow(api.String(), vals[i])
	}
	return t
}

// AblateLeafPolicy compares the two time-share leaf policies the
// container scheduler supports — decayed-usage priorities (default) and
// lottery scheduling [48] — on the Fig. 11 scenario at full load. Both
// honor the container hierarchy (guarantees, caps, idle class); the
// mechanism is policy-agnostic, as §4.3 claims.
func AblateLeafPolicy(opt Options) *metrics.Table {
	opt = opt.withDefaults(2*sim.Second, 10*sim.Second)
	t := metrics.NewTable("Ablation: time-share leaf policy (RC kernel, event API, 25 low-priority clients)",
		"Leaf policy", "High-priority response time (ms)")
	lotteries := []bool{false, true}
	vals := runPoints(opt.Parallel, len(lotteries), func(i int) float64 {
		sys := fig11System{mode: kernel.ModeRC, api: httpsim.EventAPI,
			containers: true, premiumSocket: true, lottery: lotteries[i]}
		return fig11Point(sys, 25, opt).Mean()
	})
	for i, lottery := range lotteries {
		name := "decayed-usage priorities (default)"
		if lottery {
			name = "lottery scheduling"
		}
		t.AddRow(name, vals[i])
	}
	return t
}

// AblateLRPCharging contrasts where early-demultiplexed processing is
// charged — to the receiving process (LRP) vs. the per-activity container
// (RC) — via the Fig. 11 scenario run on the LRP kernel: without
// container principals, even LRP cannot give the premium client priority
// inside the single server process.
func AblateLRPCharging(opt Options) *metrics.Table {
	opt = opt.withDefaults(2*sim.Second, 10*sim.Second)
	t := metrics.NewTable("Ablation: LRP vs. RC at 35 low-priority clients (high-priority response time)",
		"System", "High-priority response time (ms)")
	systems := []fig11System{
		{name: "LRP + select()", mode: kernel.ModeLRP, api: httpsim.SelectAPI, containers: false},
		{name: "RC + select()", mode: kernel.ModeRC, api: httpsim.SelectAPI, containers: true, premiumSocket: true},
		{name: "RC + event API", mode: kernel.ModeRC, api: httpsim.EventAPI, containers: true, premiumSocket: true},
	}
	vals := runPoints(opt.Parallel, len(systems), func(i int) float64 {
		return fig11Point(systems[i], 35, opt).Mean()
	})
	for i, sys := range systems {
		t.AddRow(sys.name, vals[i])
	}
	return t
}
