package experiments

import (
	"fmt"

	"rescon/internal/fault"
	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/metrics"
	"rescon/internal/netsim"
	"rescon/internal/sim"
	"rescon/internal/workload"
)

// ResilienceLossPoints is the x axis of the degradation curves: the wire
// packet-loss probability in percent, applied to every legitimate
// client's packets while a SYN flood runs in the background.
var ResilienceLossPoints = []float64{0, 5, 10, 20, 30}

// resilienceClientCount keeps the server oversubscribed across the whole
// loss sweep: at 30% loss each stalling client offers only a few
// requests/second, so it takes hundreds of them to hold offered load
// above server capacity — the regime where admission control matters.
const resilienceClientCount = 384

// ResilienceFloodRate is the background SYN-flood intensity of the
// degradation curves: enough protocol work (~107 µs/SYN) to oversubscribe
// the CPU together with the legitimate load.
const ResilienceFloodRate = sim.Rate(6000)

// resilienceClients returns the legitimate closed-loop population for
// the resilience experiments, using the canonical overload-tolerant
// configuration (see ResilientClientConfig).
func resilienceClients(e *env, n int) *workload.Population {
	return workload.MustStartPopulation(n, ResilientClientConfig(e.k, netsim.Addr{IP: ClientNet + 1, Port: 1024}))
}

// ResilienceCurves produces the degradation curves of the resilience
// experiment family: goodput of well-behaved clients versus wire packet
// loss, while a SYN flood oversubscribes the server, with and without
// per-container backlog policing (admission control). The policed server
// sheds new connection requests at demultiplexing — for the cost of the
// packet filter — once the destination container's protocol backlog
// passes a small threshold, so in-progress work keeps flowing; the
// unpoliced server lets the backlog grow to its hard bound, where drops
// land indiscriminately on new and in-progress packets alike.
func ResilienceCurves(opt Options) ([]*metrics.Series, error) {
	opt = opt.withDefaults(2*sim.Second, 5*sim.Second)
	policed := &metrics.Series{Name: "RC policed"}
	unpoliced := &metrics.Series{Name: "RC unpoliced"}
	vals, err := runPointsErr(opt.Parallel, 2*len(ResilienceLossPoints), func(i int) (float64, error) {
		return resiliencePoint(opt, ResilienceLossPoints[i/2]/100, i%2 == 0)
	})
	if err != nil {
		return nil, err
	}
	for pi, loss := range ResilienceLossPoints {
		policed.Append(loss, vals[2*pi])
		unpoliced.Append(loss, vals[2*pi+1])
	}
	return []*metrics.Series{policed, unpoliced}, nil
}

// resiliencePoint measures goodput (completed requests/s) for one
// (loss, policing) configuration.
func resiliencePoint(opt Options, loss float64, policed bool) (float64, error) {
	e := newEnv(kernel.ModeRC, opt)
	if loss > 0 {
		e.k.Faults = fault.NewInjector(e.eng, fault.Config{DropRate: loss})
	}
	e.k.Police.Enabled = policed
	if _, err := httpsim.NewServer(httpsim.Config{
		Kernel: e.k, Name: "httpd", Addr: ServerAddr, API: httpsim.EventAPI,
	}); err != nil {
		return 0, err
	}
	good := resilienceClients(e, resilienceClientCount)
	workload.StartFlood(e.k, ResilienceFloodRate, AttackNet+1, 4096, ServerAddr)
	return e.measureRate(good, opt.Warmup, opt.Window), nil
}

// FaultMatrix runs one scenario per fault class and tabulates how the
// resource-container server degrades: goodput, mean latency, client
// timeouts, and the injected-fault counts that produced them. All
// scenarios run in ModeRC with policing enabled — the configuration the
// degradation curves justify.
func FaultMatrix(opt Options) (*metrics.Table, error) {
	opt = opt.withDefaults(2*sim.Second, 5*sim.Second)
	t := metrics.NewTable(
		"Resilience: goodput under injected faults (RC, policed)",
		"Scenario", "Goodput (req/s)", "Mean latency (ms)", "Timeouts", "Detail")
	scenarios := []struct {
		name string
		run  func(Options) (faultRow, error)
	}{
		{"no faults", func(o Options) (faultRow, error) { return faultScenario(o, fault.Config{}, false) }},
		{"wire faults (10% loss, 5% dup, 5% reorder, 10% delay)", func(o Options) (faultRow, error) {
			return faultScenario(o, fault.Config{DropRate: 0.10, DupRate: 0.05, ReorderRate: 0.05, DelayRate: 0.10}, false)
		}},
		{"disk faults (5% error, 20% slow)", func(o Options) (faultRow, error) {
			return faultScenario(o, fault.Config{DiskErrorRate: 0.05, DiskSlowRate: 0.20}, true)
		}},
		{"slow-loris (128 held conns)", slowLorisScenario},
		{"worker crash-restart (MTBF 1s)", crashScenario},
	}
	rows, err := runPointsErr(opt.Parallel, len(scenarios), func(i int) (faultRow, error) {
		return scenarios[i].run(opt)
	})
	if err != nil {
		return nil, err
	}
	for i, sc := range scenarios {
		t.AddRow(sc.name, rows[i].goodput, rows[i].latencyMs, rows[i].timeouts, rows[i].detail)
	}
	return t, nil
}

type faultRow struct {
	goodput   float64
	latencyMs float64
	timeouts  uint64
	detail    string
}

// measureRow runs the warmup+window and collects the population-level
// outcome columns.
func measureRow(e *env, pop *workload.Population, opt Options) faultRow {
	goodput := e.measureRate(pop, opt.Warmup, opt.Window)
	var timeouts uint64
	for _, c := range pop.Clients {
		timeouts += c.Timeouts.Value()
	}
	return faultRow{goodput: goodput, latencyMs: pop.MeanLatencyMs(), timeouts: timeouts}
}

// faultScenario runs the standard load (no flood) under an injector
// configuration; uncached selects the disk-bound workload so disk faults
// have something to hit.
func faultScenario(opt Options, cfg fault.Config, uncached bool) (faultRow, error) {
	e := newEnv(kernel.ModeRC, opt)
	inj := fault.NewInjector(e.eng, cfg)
	e.k.Faults = inj
	e.k.Police.Enabled = true
	if _, err := httpsim.NewServer(httpsim.Config{
		Kernel: e.k, Name: "httpd", Addr: ServerAddr, API: httpsim.EventAPI,
	}); err != nil {
		return faultRow{}, err
	}
	clients := ResilientClientConfig(e.k, netsim.Addr{IP: ClientNet + 1, Port: 1024})
	clients.Uncached = uncached
	row := measureRow(e, workload.MustStartPopulation(16, clients), opt)
	row.detail = inj.Stats().String()
	return row, nil
}

// slowLorisScenario holds the server under a slow-request attack.
func slowLorisScenario(opt Options) (faultRow, error) {
	e := newEnv(kernel.ModeRC, opt)
	e.k.Police.Enabled = true
	if _, err := httpsim.NewServer(httpsim.Config{
		Kernel: e.k, Name: "httpd", Addr: ServerAddr, API: httpsim.EventAPI,
	}); err != nil {
		return faultRow{}, err
	}
	pop := resilienceClients(e, 16)
	loris := workload.StartSlowLoris(workload.SlowLorisConfig{
		Kernel:  e.k,
		Src:     netsim.Addr{IP: AttackNet + 7, Port: 1024},
		Dst:     ServerAddr,
		Conns:   128,
		Trickle: 50 * sim.Millisecond,
		Hold:    2 * sim.Second,
	})
	row := measureRow(e, pop, opt)
	row.detail = fmt.Sprintf("held=%d trickled=%d", loris.Opened(), loris.Trickled())
	return row, nil
}

// crashScenario crash-stops the worker on a deterministic schedule and
// restarts a fresh one after each downtime; clients ride through the
// outages on their timeout/backoff machinery.
func crashScenario(opt Options) (faultRow, error) {
	e := newEnv(kernel.ModeRC, opt)
	e.k.Police.Enabled = true
	var srv *httpsim.Server
	var startErr error
	boot := func() {
		srv, startErr = httpsim.NewServer(httpsim.Config{
			Kernel: e.k, Name: "httpd", Addr: ServerAddr, API: httpsim.EventAPI,
		})
	}
	boot()
	if startErr != nil {
		return faultRow{}, startErr
	}
	cr, err := fault.StartCrasher(e.eng, fault.CrashPlan{
		MTBF:     sim.Second,
		Downtime: 250 * sim.Millisecond,
	}, func() { srv.Shutdown() }, boot)
	if err != nil {
		return faultRow{}, err
	}
	pop := resilienceClients(e, 16)
	row := measureRow(e, pop, opt)
	if startErr != nil {
		return faultRow{}, startErr
	}
	row.detail = fmt.Sprintf("crashes=%d restarts=%d", cr.Crashes(), cr.Restarts())
	return row, nil
}
