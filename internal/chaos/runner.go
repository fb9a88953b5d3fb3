package chaos

import (
	"fmt"
	"hash/fnv"

	"rescon/internal/alert"
	"rescon/internal/experiments"
	"rescon/internal/fault"
	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/netsim"
	"rescon/internal/rc"
	"rescon/internal/rebalance"
	"rescon/internal/sim"
	"rescon/internal/telemetry"
	"rescon/internal/trace"
	"rescon/internal/workload"
)

// cpuEpsilon is the tolerance of the CPU-conservation invariant. The
// simulator charges integer nanoseconds and every charge site adds the
// same amount to the machine's busy or interrupt counter, so the books
// should balance exactly; the microsecond of slack only forgives
// rounding if a future cost model divides slices.
const cpuEpsilon = sim.Microsecond

// Isolation-floor probe parameters: the premium population must
// complete work at least once per floorStreak probes while the machine
// is demonstrably busy, or the floor is violated.
const (
	floorProbePeriod = 100 * sim.Millisecond
	floorStreak      = 8
	floorBusyDelta   = 100 * sim.Millisecond
)

// premiumClients is the size of the always-on high-priority population
// the isolation-floor invariant observes.
const premiumClients = 2

// Result is the outcome of one scenario run: the recorded invariant
// violations (empty means the run was clean), a hash of the run's full
// observable state (telemetry dump, conservation counters, violations)
// used by the determinism check and repro replay, and headline counters
// for reporting.
type Result struct {
	Scenario Scenario
	Violations
	Hash uint64

	Completed     uint64
	Established   uint64
	Closed        uint64
	Open          int
	BusyTime      sim.Duration
	InterruptTime sim.Duration
	AttributedCPU sim.Duration
	PolicedDrops  uint64
	Crashes       uint64
	Restarts      uint64
	AlertEvents   uint64
	AlertFlaps    uint64

	RebalanceSteps   uint64
	RebalanceFreezes uint64
	RebalanceDisarms uint64
}

func (r *Result) verdict() (*Violations, uint64) { return &r.Violations, r.Hash }

// Run executes the scenario once and returns its result. An error means
// the scenario could not be built (bad spec, unbuildable hierarchy) —
// distinct from a clean run that found violations, which returns a
// Result with a non-empty Violations slice.
func Run(sc Scenario) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	mode, err := ModeOf(sc.Mode)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine(int64(sc.Seed))
	k := kernel.NewSMP(eng, mode, sc.CPUs)
	tel := telemetry.New()
	k.AttachTelemetry(tel)
	tel.SetRun(int64(sc.Seed), sc.Mode)
	k.Police.Enabled = sc.Policing

	// Alert monitor. Without a RebalanceSpec it is detection-only: no
	// actuator, so the alerting layer observes the run without
	// perturbing its trajectory. Its event stream joins the determinism
	// hash, and two of its properties are invariants — alerts must not
	// flap, and a sustained overload must never go unreported
	// (SelfCheck). A RebalanceSpec later arms the full closed loop
	// (watchdog + adaptive rebalancer) on top of this monitor.
	mon, err := alert.Attach(k)
	if err != nil {
		return nil, err
	}

	check := fault.NewChecker(eng)
	check.FailFast = false
	k.WatchInvariants(check)
	check.MustWatchCheck("cpu-conservation", func() string {
		attr, acct := tel.AttributedCPU(), k.BusyTime()+k.InterruptTime()
		diff := attr - acct
		if diff < 0 {
			diff = -diff
		}
		if diff > cpuEpsilon {
			return fmt.Sprintf("telemetry attributes %v but machine ran busy %v + interrupt %v",
				attr, k.BusyTime(), k.InterruptTime())
		}
		return ""
	})
	var reportedFlaps uint64
	check.MustWatchCheck("alert-flap", func() string {
		if f := mon.Flaps(); f > reportedFlaps {
			reportedFlaps = f
			return fmt.Sprintf("alert stream flapped (%d total): hysteresis failed to suppress churn", f)
		}
		return ""
	})
	var lastMissed string
	check.MustWatchCheck("missed-detection", func() string {
		msg := mon.SelfCheck()
		if msg == lastMissed {
			return ""
		}
		lastMissed = msg
		return msg
	})

	// Container hierarchy. The first two fixed-share containers (in spec
	// order) become the per-connection and CGI sandbox parents, so the
	// generated topology actually receives the workload's charges.
	built := make([]*rc.Container, len(sc.Containers))
	var connParent, cgiParent *rc.Container
	for i, cs := range sc.Containers {
		var parent *rc.Container
		if cs.Parent >= 0 {
			parent = built[cs.Parent]
		}
		class := rc.TimeShare
		if cs.Fixed {
			class = rc.FixedShare
		}
		c, err := rc.New(parent, class, cs.Name, rc.Attributes{
			Priority:  cs.Priority,
			Share:     cs.Share,
			Limit:     cs.Limit,
			MemLimit:  cs.MemLimit,
			QoSWeight: cs.QoS,
		})
		if err != nil {
			return nil, fmt.Errorf("chaos: building container %d (%s): %w", i, cs.Name, err)
		}
		built[i] = c
		if cs.Fixed && connParent == nil {
			connParent = c
		} else if cs.Fixed && cgiParent == nil {
			cgiParent = c
		}
	}
	if cgiParent == nil {
		cgiParent = connParent
	}

	// The closed loop: watchdog (emergency actuator, arbitration
	// partner) + adaptive rebalancer governing the generated hierarchy,
	// with the controller's own safety properties joining the invariant
	// battery. The audits abstain while the watchdog holds the
	// hierarchy, and latch so a persistent violation is recorded per
	// distinct message, not per checker tick.
	var ctrl *rebalance.Controller
	if sc.Rebalance != nil {
		ctrl, _, err = attachRebalance(sc, k, tel, mon, built)
		if err != nil {
			return nil, err
		}
		for _, a := range rebalanceAudits(ctrl) {
			check.MustWatchCheck(a.class, a.fn)
		}
	}

	if sc.Faults != (fault.Config{}) {
		k.Faults = fault.NewInjector(eng, sc.Faults)
	}

	// Server, premium listener, and crash-restart plumbing. The premium
	// filtered listener must be re-added inside the boot closure:
	// Shutdown closes every listener, and a restarted worker without it
	// would silently demote the premium client to the default socket.
	rcMode := mode == kernel.ModeRC
	var premCont *rc.Container
	if rcMode {
		premCont = rc.MustNew(nil, rc.TimeShare, "premium",
			rc.Attributes{Priority: experiments.HighPriority})
	}
	serverCfg := httpsim.Config{
		Kernel: k, Name: "httpd", Addr: experiments.ServerAddr, API: httpsim.EventAPI,
		PerConnContainers: rcMode,
		Parent:            connParent,
		CGIParent:         cgiParent,
		ConnPriority: func(a netsim.Addr) int {
			if a.IP == experiments.HighPriorityIP {
				return experiments.HighPriority
			}
			return kernel.DefaultPriority
		},
	}
	var srv *httpsim.Server
	var bootErr error
	boot := func() {
		srv, bootErr = httpsim.NewServer(serverCfg)
		if bootErr == nil && rcMode {
			_, bootErr = srv.AddListener(
				netsim.Filter{Template: experiments.HighPriorityIP, MaskBits: 32}, premCont)
		}
	}
	boot()
	if bootErr != nil {
		return nil, bootErr
	}
	var cr *fault.Crasher
	if sc.Crash != nil {
		cr, err = fault.StartCrasher(eng, fault.CrashPlan{
			MTBF: sc.Crash.MTBF, Downtime: sc.Crash.Downtime,
		}, func() { srv.Shutdown() }, boot)
		if err != nil {
			return nil, err
		}
	}

	// Workloads. Each gets its own source subnet so filtered listeners
	// and per-source accounting can tell populations apart.
	var pops []*workload.Population
	for wi, w := range sc.Workloads {
		switch w.Kind {
		case WorkClients, WorkCGI, WorkDisk:
			cfg := experiments.ResilientClientConfig(k, experiments.ClientAddr(wi))
			cfg.Think = w.Think
			cfg.AbortRate = w.AbortRate
			switch w.Kind {
			case WorkCGI:
				cfg.Kind = httpsim.CGI
				cfg.CGICPU = w.CGICPU
			case WorkDisk:
				cfg.Uncached = true
			}
			pop, err := workload.StartPopulation(w.Count, cfg)
			if err != nil {
				return nil, fmt.Errorf("chaos: workload %d (%s): %w", wi, w.Kind, err)
			}
			pops = append(pops, pop)
		case WorkFlood:
			workload.StartFlood(k, sim.Rate(w.Rate),
				experiments.AttackNet+netsim.IP(wi)<<16, 4096, experiments.ServerAddr)
		case WorkLoris:
			workload.StartSlowLoris(workload.SlowLorisConfig{
				Kernel:  k,
				Src:     netsim.Addr{IP: experiments.AttackNet + netsim.IP(wi)<<16 + 7, Port: 1024},
				Dst:     experiments.ServerAddr,
				Conns:   w.Count,
				Trickle: 50 * sim.Millisecond,
				Hold:    2 * sim.Second,
			})
		case WorkParked:
			if err := startParked(k, wi, w.Count); err != nil {
				return nil, fmt.Errorf("chaos: workload %d (%s): %w", wi, w.Kind, err)
			}
		}
	}

	// Premium population and isolation-floor probe. The floor invariant
	// is only sound when the premium connection containers are
	// top-level (no generated parent capping them), the scheduler is
	// container-driven, nothing crash-stops the server, no wire/disk
	// faults eat the premium client's packets, and no disk-bound
	// workload can serialize it behind a deep disk queue. Under those
	// conditions a high-priority container with runnable work must make
	// progress whenever the machine does.
	var premium *workload.Population
	if rcMode {
		cfg := experiments.ResilientClientConfig(k,
			netsim.Addr{IP: experiments.HighPriorityIP, Port: 1024})
		cfg.Think = sim.Millisecond
		premium, err = workload.StartPopulation(premiumClients, cfg)
		if err != nil {
			return nil, err
		}
	}
	// A RebalanceSpec also disables the floor probe: the armed
	// watchdog's tightened admission control can legitimately starve
	// the premium population's handshakes during an engagement.
	floorOn := rcMode && sc.Crash == nil && sc.Faults == (fault.Config{}) &&
		connParent == nil && !hasWorkload(sc, WorkDisk) && sc.Rebalance == nil
	if floorOn {
		probe := &floorProbe{k: k, pop: premium}
		eng.Every(floorProbePeriod, probe.tick)
		check.MustWatchCheck("isolation-floor", probe.take)
	}

	if sc.Mutation == MutationPhantomCPU {
		eng.Every(50*sim.Millisecond, func() {
			tel.Charge(tel.Intern("(ghost)"), trace.StageUser, 200*sim.Microsecond)
		})
	}

	check.Start(0)
	eng.RunUntil(sim.Time(0).Add(sc.Horizon))
	check.Check()
	if bootErr != nil {
		return nil, bootErr
	}

	res := &Result{
		Scenario:      sc,
		Violations:    append([]string(nil), check.Violations()...),
		Established:   k.ConnsEstablished(),
		Closed:        k.ConnsClosed(),
		Open:          k.OpenConns(),
		BusyTime:      k.BusyTime(),
		InterruptTime: k.InterruptTime(),
		AttributedCPU: tel.AttributedCPU(),
		PolicedDrops:  k.PolicedDrops(),
	}
	for _, p := range pops {
		res.Completed += p.Completed()
	}
	if premium != nil {
		res.Completed += premium.Completed()
	}
	if cr != nil {
		res.Crashes, res.Restarts = cr.Crashes(), cr.Restarts()
	}
	res.AlertEvents = uint64(len(mon.Events()))
	res.AlertFlaps = mon.Flaps()
	if ctrl != nil {
		res.RebalanceSteps = ctrl.Steps()
		res.RebalanceFreezes = ctrl.Freezes()
		res.RebalanceDisarms = ctrl.Disarms()
	}
	res.Hash = hashRun(tel, mon, ctrl, res)
	return res, nil
}

// parkedNet is the source prefix of parked-connection ramps — disjoint
// from ClientNet's per-population slices and the attack prefix, so
// filters and per-source accounting never confuse a parked connection
// with scenario traffic.
var parkedNet = netsim.MustParseIP("10.2.0.0")

// parkedWindow bounds the parked ramp's outstanding (injected but not
// yet acknowledged) handshakes. Well under the listener's backlogs, so
// a well-behaved ramp never converges by queue drops.
const parkedWindow = 256

// parkedRetry is how long the ramp waits for a SYN-ACK before resending
// a connection's SYN — a lost handshake packet (wire faults, shed SYNs)
// must free its window slot instead of wedging the ramp forever.
const parkedRetry = 50 * sim.Millisecond

// startParked ramps w.Count established-and-idle connections onto a
// dedicated listen socket owned by its own process — the datacenter
// topology of DESIGN.md §11: the flyweight connection table carries the
// mass while the rest of the scenario's traffic fights over the CPU.
// The ramp is closed-loop — new SYNs are injected only as earlier ones
// are acknowledged — so it self-paces to whatever protocol-processing
// rate the scenario leaves available; under floods, caps or crashes it
// simply ramps less far, which is load, not a violation. Connections
// are never closed: they stay live through the horizon and are counted
// by the connection-conservation invariant as open.
func startParked(k *kernel.Kernel, wi, count int) error {
	p := k.NewProcess(fmt.Sprintf("parked%d", wi))
	local := netsim.Addr{IP: experiments.ServerAddr.IP, Port: uint16(9000 + wi)}
	ls, err := k.Listen(p, kernel.ListenConfig{
		Local:         local,
		SynBacklog:    1 << 12,
		AcceptBacklog: 1 << 12,
	})
	if err != nil {
		return err
	}
	eng := k.Engine()
	buf := make([]*kernel.Conn, parkedWindow)
	issued, acked := 0, 0
	// connect sends the i-th connection's SYN and retries on silence. A
	// retry after a lost SYN-ACK can establish a duplicate server-side
	// connection for the same tuple; that is ordinary network behaviour
	// and the conservation invariant counts both sides consistently.
	var connect func(i int)
	connect = func(i int) {
		src := netsim.Addr{
			IP:   parkedNet + netsim.IP(wi)<<8 + netsim.IP(i/60000),
			Port: uint16(1024 + i%60000),
		}
		done := false
		k.ClientSend(kernel.ConnectPacket(src, local, func(*kernel.Conn) {
			if done {
				return // duplicated SYN-ACK
			}
			done = true
			acked++
		}))
		eng.After(parkedRetry, func() {
			if !done {
				connect(i)
			}
		})
	}
	eng.Every(2*sim.Millisecond, func() {
		// Keep the accept queue drained; the parked process never reads
		// from its connections, it just holds them open.
		for ls.AcceptBatch(buf) != 0 {
		}
		outstanding := issued - acked
		if issued >= count || outstanding >= parkedWindow {
			return
		}
		batch := parkedWindow - outstanding
		if rem := count - issued; rem < batch {
			batch = rem
		}
		for j := 0; j < batch; j++ {
			connect(issued)
			issued++
		}
	})
	return nil
}

// hasWorkload reports whether the scenario contains a workload of kind.
func hasWorkload(sc Scenario, kind string) bool {
	for _, w := range sc.Workloads {
		if w.Kind == kind {
			return true
		}
	}
	return false
}

// floorProbe watches the premium population for a stall: floorStreak
// consecutive probes without a completion while the machine accumulated
// at least floorBusyDelta of busy time. The violation latches once and
// is reported through the checker by take.
type floorProbe struct {
	k        *kernel.Kernel
	pop      *workload.Population
	lastDone uint64
	streak   int
	busyAt   sim.Duration
	msg      string
	reported bool
}

func (p *floorProbe) tick() {
	done := p.pop.Completed()
	if done != p.lastDone || done == 0 {
		p.lastDone = done
		p.streak = 0
		p.busyAt = p.k.BusyTime()
		return
	}
	p.streak++
	if p.streak >= floorStreak && p.k.BusyTime()-p.busyAt >= floorBusyDelta && !p.reported {
		p.reported = true
		p.msg = fmt.Sprintf("premium container stalled for %v while machine busy time grew %v",
			sim.Duration(p.streak)*floorProbePeriod, p.k.BusyTime()-p.busyAt)
	}
}

// take hands the latched violation to the checker exactly once.
func (p *floorProbe) take() string {
	msg := p.msg
	p.msg = ""
	return msg
}

// hashRun computes an FNV-1a 64 digest over the run's full observable
// state: the byte-stable telemetry JSONL dump, the alert event stream,
// the rebalancer's decision journal (when armed), the conservation
// counters, and every violation string. Two runs of the same scenario
// must produce the same digest — checked by RunChecked.
func hashRun(tel *telemetry.Collector, mon *alert.Monitor, ctrl *rebalance.Controller, res *Result) uint64 {
	h := fnv.New64a()
	_ = tel.WriteJSONL(h)
	_ = mon.WriteJSONL(h)
	_ = ctrl.WriteJSONL(h)
	fmt.Fprintf(h, "est=%d closed=%d open=%d busy=%d intr=%d attr=%d policed=%d crashes=%d restarts=%d completed=%d alerts=%d flaps=%d rbsteps=%d rbfreezes=%d rbdisarms=%d\n",
		res.Established, res.Closed, res.Open,
		int64(res.BusyTime), int64(res.InterruptTime), int64(res.AttributedCPU),
		res.PolicedDrops, res.Crashes, res.Restarts, res.Completed,
		res.AlertEvents, res.AlertFlaps,
		res.RebalanceSteps, res.RebalanceFreezes, res.RebalanceDisarms)
	return res.Violations.digest(h)
}

// RunChecked runs the scenario twice from scratch and adds a
// determinism violation if the two runs' digests differ — the
// FoundationDB-style check that the simulation really is a pure
// function of the scenario. The first run's result is returned.
func RunChecked(sc Scenario) (*Result, error) {
	return runChecked(sc, Run)
}
