package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"rescon"
)

// simParams describes one simulated-kernel workload. Both run the kernel
// in resource-container mode with an event-API server that gives every
// connection its own container; they differ in how clients connect and in
// what else shares the machine.
type simParams struct {
	clients    int
	persistent bool
	// think is the mean pause between a response and the next request.
	// Its seeded ±50% jitter is what makes the inputs a function of the
	// seed; at 1–2 ms against a saturated server it keeps every client
	// closed-loop and busy. (At 1 ms the 32 keep-alive clients' start-up
	// burst can overflow a queue and cost a request a 3 s timeout; 2 ms
	// spreads it out.)
	think rescon.Duration
	// floodRate is the bogus-SYN rate aimed at the server (0: none). The
	// attack prefix gets its own filtered listen socket bound to a
	// priority-0 container: the paper's Fig. 14 defense.
	floodRate rescon.Rate
	// watchdog attaches telemetry, the alert battery and the watchdog.
	watchdog bool
	// slice is the virtual time one RunUntil call advances; the slice's
	// wall time is the sim's latency sample.
	slice rescon.Duration
	// warmup is the virtual time run during set-up, before measuring.
	warmup rescon.Duration
	// roundSlices is the measured work of one round: a run builds the
	// seed's simulation afresh and runs exactly this many slices, again
	// and again until its budget is spent. Every round is the same work,
	// so rounds compare like for like whatever the machine's speed, and
	// the simulation never runs long enough for its state to outgrow what
	// a round measures.
	roundSlices int
	// goodputSlices fixes the virtual window of sim.goodput_vrps: the
	// first goodputSlices slices of a round, so the figure is exact per
	// seed.
	goodputSlices int
}

var simWorkloads = map[string]simParams{
	"sim-keepalive": {
		clients: 32, persistent: true, think: 2 * rescon.Millisecond,
		slice: 50 * rescon.Millisecond, warmup: 500 * rescon.Millisecond,
		roundSlices: 120, goodputSlices: 40,
	},
	"sim-synflood": {
		clients: 32, persistent: false, think: rescon.Millisecond,
		floodRate: 20_000, watchdog: true,
		slice: 10 * rescon.Millisecond, warmup: 500 * rescon.Millisecond,
		roundSlices: 600, goodputSlices: 200,
	},
}

var (
	simServer    = rescon.Addr("10.0.0.1", 80)
	simClientSrc = rescon.Addr("10.1.0.1", 1024)
	simAttackSrc = rescon.Addr("66.0.0.1", 0)
	simAttackNet = rescon.CIDR("66.0.0.0", 8)
)

// minRounds is the fewest rounds a run measures, however short its budget.
const minRounds = 3

// simRig is one built and warmed simulation.
type simRig struct {
	s      *rescon.Sim
	pop    *rescon.Population
	ticks  uint64 // telemetry sampling ticks seen (sample hook)
	attack *rescon.Container
}

// buildSim constructs and warms one simulation, recording a span per
// set-up phase under a root "setup" span when rec is non-nil.
func buildSim(p simParams, seed int64, rec *recorder) (*simRig, error) {
	root := rec.reserve()
	t0 := rec.now()
	phase := func(name string, fn func() error) error {
		s := rec.now()
		err := fn()
		rec.add(name, root, 0, s, rec.now())
		return err
	}
	r := &simRig{}
	_ = phase("setup.sim", func() error {
		var opts []rescon.SimOption
		if p.watchdog {
			// The defense already isolates the flood, whose SYNs fill the
			// server's protocol backlog and raise the SYN-drop and
			// backlog alerts by design. A watchdog engaging on them
			// tightens policing onto the good clients and costs them
			// connect timeouts, so it triggers on the run queue alone:
			// the telemetry → alert → watchdog tick still runs on every
			// sample.
			opts = append(opts, rescon.WithWatchdog(rescon.WatchdogConfig{
				Triggers: []string{"runqueue"},
			}))
		}
		r.s = rescon.NewSim(rescon.ModeRC, seed, opts...)
		if r.s.Telemetry != nil {
			r.s.Telemetry.AddSampleHook(func(rescon.Time) { r.ticks++ })
		}
		return nil
	})
	err := phase("setup.server", func() error {
		srv, err := rescon.NewServer(rescon.ServerConfig{
			Kernel: r.s.Kernel, Name: "httpd", Addr: simServer, API: rescon.EventAPI,
			PerConnContainers: true,
		})
		if err != nil || p.floodRate == 0 {
			return err
		}
		r.attack, err = rescon.NewContainer(nil, rescon.TimeShare, "attackers", rescon.Attributes{Priority: 0})
		if err != nil {
			return err
		}
		_, err = srv.AddListener(simAttackNet, r.attack)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("sim server: %w", err)
	}
	err = phase("setup.clients", func() error {
		var err error
		r.pop, err = rescon.StartPopulation(p.clients, rescon.ClientConfig{
			Kernel: r.s.Kernel, Src: simClientSrc, Dst: simServer,
			Persistent: p.persistent, Think: p.think,
		})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("sim clients: %w", err)
	}
	if p.floodRate > 0 {
		_ = phase("setup.flood", func() error {
			rescon.StartFlood(r.s.Kernel, p.floodRate, simAttackSrc.IP, 4096, simServer)
			return nil
		})
	}
	_ = phase("setup.warmup", func() error {
		r.s.RunFor(p.warmup)
		return nil
	})
	rec.finish(root, "setup", 0, 0, t0, rec.now())
	return r, nil
}

// simCounters are the simulated outcomes of a measured stretch. They
// depend only on the seed and the number of slices, so every round of one
// seed, timed or traced, must agree on every one of them.
type simCounters struct {
	Completed, Timeouts, Retries, GiveUps uint64
	Fired                                 uint64
	SynDrops                              uint64
	Established, Closed                   uint64
	ContainerCPU                          []int64 // per process root container, then the attack container
}

func (a simCounters) diff(b simCounters) []string {
	var out []string
	cmp := func(name string, x, y uint64) {
		if x != y {
			out = append(out, fmt.Sprintf("%s: %d and %d", name, x, y))
		}
	}
	cmp("completed requests", a.Completed, b.Completed)
	cmp("client timeouts", a.Timeouts, b.Timeouts)
	cmp("client retries", a.Retries, b.Retries)
	cmp("client give-ups", a.GiveUps, b.GiveUps)
	cmp("engine events fired", a.Fired, b.Fired)
	cmp("SYN drops", a.SynDrops, b.SynDrops)
	cmp("connections established", a.Established, b.Established)
	cmp("connections closed", a.Closed, b.Closed)
	if len(a.ContainerCPU) != len(b.ContainerCPU) {
		out = append(out, fmt.Sprintf("container count: %d and %d", len(a.ContainerCPU), len(b.ContainerCPU)))
	} else {
		for i := range a.ContainerCPU {
			if a.ContainerCPU[i] != b.ContainerCPU[i] {
				out = append(out, fmt.Sprintf("container %d CPU: %d ns and %d ns", i, a.ContainerCPU[i], b.ContainerCPU[i]))
			}
		}
	}
	return out
}

// simMeasure is what one measured stretch of slices yields.
type simMeasure struct {
	slices      int
	sliceMs     []float64 // wall ms of each slice
	sliceRate   []float64 // requests completed per wall second in each slice
	runWall     time.Duration
	counters    simCounters
	goodput     uint64 // completions in the first goodputSlices slices
	allocs      float64
	bytes       float64
	gcs         float64
	runqSum     float64
	openPeak    int
	intrTime    rescon.Duration
	virtual     rescon.Duration
	containers  uint64 // containers created while measuring
	established uint64 // connections established while measuring
	alertEvts   int
	wdEngaged   uint64
	ticks       uint64
	violations  []string
}

// containerSerial returns the id the next container will get: the rc
// package numbers containers from one process-wide counter.
func containerSerial() uint64 {
	c, err := rescon.NewContainer(nil, rescon.TimeShare, "serial-probe", rescon.Attributes{})
	if err != nil {
		return 0
	}
	_ = c.Release()
	return c.ID()
}

func (r *simRig) synDrops() uint64 {
	n := r.s.Kernel.PolicedDrops()
	for _, ls := range r.s.Kernel.ListenSockets() {
		n += ls.SynDrops()
	}
	return n
}

func (r *simRig) snapshot() simCounters {
	var c simCounters
	for _, cl := range r.pop.Clients {
		c.Timeouts += cl.Timeouts.Value()
		c.Retries += cl.Retries.Value()
		c.GiveUps += cl.GiveUps.Value()
	}
	c.Completed = r.pop.Completed()
	c.Fired = r.s.Engine.Fired()
	c.SynDrops = r.synDrops()
	c.Established = r.s.Kernel.ConnsEstablished()
	c.Closed = r.s.Kernel.ConnsClosed()
	for _, p := range r.s.Kernel.Processes() {
		if p.DefaultContainer != nil {
			c.ContainerCPU = append(c.ContainerCPU, int64(p.DefaultContainer.Usage().CPU()))
		}
	}
	if r.attack != nil {
		c.ContainerCPU = append(c.ContainerCPU, int64(r.attack.Usage().CPU()))
	}
	return c
}

// measure runs exactly n fixed virtual-time slices. With a checker it
// runs the invariant battery after every slice (outside the timed
// RunUntil). Client statistics are folded into running totals and reset
// after every slice, so the clients' sample buffers stay small.
func (r *simRig) measure(p simParams, n int, rec *recorder, ch *rescon.InvariantChecker, mem *memSampler) simMeasure {
	var m simMeasure
	base := r.snapshot()
	r.pop.ResetStats()
	var done, timeouts, retries, giveups uint64
	k, eng := r.s.Kernel, r.s.Engine
	intr0, v0, ticks0 := k.InterruptTime(), eng.Now(), r.ticks
	var evts0 int
	var wd0 uint64
	if r.s.Alerts != nil {
		evts0 = len(r.s.Alerts.Events())
	}
	if r.s.Watchdog != nil {
		wd0 = r.s.Watchdog.Engagements()
	}
	serial0 := containerSerial()
	mark := markAllocs()
	for m.slices < n {
		t0 := time.Now()
		s0 := rec.now()
		eng.RunUntil(eng.Now().Add(p.slice))
		d := time.Since(t0)
		rec.add("sim.RunUntil", 0, uint64(m.slices+1), s0, rec.now())
		m.runWall += d
		m.sliceMs = append(m.sliceMs, float64(d)/1e6)
		m.slices++

		got := r.pop.Completed()
		m.sliceRate = append(m.sliceRate, float64(got)/d.Seconds())
		done += got
		for _, cl := range r.pop.Clients {
			timeouts += cl.Timeouts.Value()
			retries += cl.Retries.Value()
			giveups += cl.GiveUps.Value()
		}
		r.pop.ResetStats()
		if m.slices == p.goodputSlices {
			m.goodput = done
		}
		m.runqSum += float64(k.RunQueueDepth())
		if oc := k.OpenConns(); oc > m.openPeak {
			m.openPeak = oc
		}
		mem.sample()
		if ch != nil {
			ch.Check()
		}
	}
	m.allocs, m.bytes, m.gcs = mark.since()
	m.containers = containerSerial() - serial0 - 1
	m.intrTime = k.InterruptTime() - intr0
	m.virtual = eng.Now().Sub(v0)
	m.ticks = r.ticks - ticks0
	if r.s.Alerts != nil {
		m.alertEvts = len(r.s.Alerts.Events()) - evts0
	}
	if r.s.Watchdog != nil {
		m.wdEngaged = r.s.Watchdog.Engagements() - wd0
	}
	end := r.snapshot()
	m.established = end.Established - base.Established
	m.counters = simCounters{
		Completed: done, Timeouts: timeouts, Retries: retries, GiveUps: giveups,
		Fired:        end.Fired - base.Fired,
		SynDrops:     end.SynDrops - base.SynDrops,
		Established:  end.Established,
		Closed:       end.Closed,
		ContainerCPU: end.ContainerCPU,
	}
	if ch != nil {
		m.violations = ch.Violations()
	}
	return m
}

// conservation checks that every connection the kernel established is
// either closed or still open: none lost, none counted twice.
func (r *simRig) conservation() string {
	k := r.s.Kernel
	est, closed, open := k.ConnsEstablished(), k.ConnsClosed(), uint64(k.OpenConns())
	if est != closed+open {
		return fmt.Sprintf("connection conservation: established %d != closed %d + open %d", est, closed, open)
	}
	return ""
}

// newChecker wires the fault package's invariant battery to the rig's
// kernel. It is driven by explicit Check calls between slices, never by
// engine events, so a checked run fires exactly the events of an
// unchecked one.
func (r *simRig) newChecker() *rescon.InvariantChecker {
	ch := rescon.NewInvariantChecker(r.s.Engine)
	ch.FailFast = false
	r.s.Kernel.WatchInvariants(ch)
	return ch
}

// simRound builds the seed's simulation afresh, after collecting the
// previous round's garbage so no round pays for another's, and runs one
// round of it. A traced round (prof non-nil) records spans in rec, runs
// the invariant battery after every slice and is CPU-profiled while it
// measures; an untraced one runs the battery once, at its end. It returns
// the set-up's wall time and the round's measure, whose violations include
// the connection-conservation check.
func simRound(p simParams, seed int64, rec *recorder, prof *bytes.Buffer, mem *memSampler) (time.Duration, simMeasure, error) {
	runtime.GC()
	t0 := time.Now()
	rig, err := buildSim(p, seed, rec)
	if err != nil {
		return 0, simMeasure{}, err
	}
	setup := time.Since(t0)
	mem.sample()
	var ch *rescon.InvariantChecker
	if prof != nil {
		ch = rig.newChecker()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return 0, simMeasure{}, fmt.Errorf("cpu profile: %w", err)
		}
	}
	m := rig.measure(p, p.roundSlices, rec, ch, mem)
	if prof != nil {
		pprof.StopCPUProfile()
	} else {
		end := rig.newChecker()
		end.Check()
		m.violations = end.Violations()
	}
	if msg := rig.conservation(); msg != "" {
		m.violations = append(m.violations, msg)
	}
	return setup, m, nil
}

// runSim runs one simulated workload in rounds (see simParams.roundSlices).
// Untraced, it runs rounds for the whole budget, each followed by the
// reference job (see reference.go) that scales its throughput, and
// setup_s and the wall-clock figures are medians over the rounds. Traced,
// it runs untraced rounds for half the budget and traced ones for the
// other half. The simulation is deterministic, so every round of a seed,
// traced or not, must produce the same simulated counters.
func runSim(p simParams, cfg runConfig) (*report, error) {
	// The engine runs on one goroutine. With a second P the garbage
	// collector's background worker runs beside it on the other CPU, and
	// how much that slows the simulating thread (shared core, shared
	// cache) swings by ±15% from one run to the next on a 2-CPU box. On
	// one P the collector's work is interleaved with the simulation and
	// charged to it, the same amount every run.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if p.goodputSlices > p.roundSlices {
		return nil, fmt.Errorf("goodput window of %d slices is longer than a round of %d", p.goodputSlices, p.roundSlices)
	}
	rep := newReport()
	mem := newMemSampler()
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	var setups, rates, sliceRates, rawRates, refMs, p50s, slices, nsPerEvent []float64
	var rounds []simMeasure
	var allocs, heapBytes, reqs float64
	for start := time.Now(); len(rounds) < minRounds || time.Since(start) < budget; {
		setup, m, err := simRound(p, cfg.seed, nil, nil, mem)
		if err != nil {
			return nil, err
		}
		mem.cut()
		ref := timeReference()
		scale := float64(ref) / float64(refNominal)
		for _, r := range m.sliceRate {
			sliceRates = append(sliceRates, r*scale)
		}
		rawRates = append(rawRates, m.sliceRate...)
		refMs = append(refMs, float64(ref)/1e6)
		rounds = append(rounds, m)
		setups = append(setups, setup.Seconds())
		rates = append(rates, float64(m.counters.Completed)/m.runWall.Seconds())
		p50s = append(p50s, pct(append([]float64(nil), m.sliceMs...), 0.5).Value)
		slices = append(slices, m.sliceMs...)
		nsPerEvent = append(nsPerEvent, float64(m.runWall.Nanoseconds())/float64(m.counters.Fired))
		allocs += m.allocs
		heapBytes += m.bytes
		reqs += float64(m.counters.Completed)
	}
	c := rounds[0].counters
	for i, m := range rounds {
		for _, v := range m.violations {
			rep.problem("round %d: %s", i+1, v)
		}
		if i > 0 {
			for _, d := range c.diff(m.counters) {
				rep.problem("rounds 1 and %d of seed %d disagree: %s", i+1, cfg.seed, d)
			}
		}
	}
	n := int64(len(rounds))
	rep.attempted = n * int64(c.Completed+c.Timeouts+c.GiveUps)
	rep.failed = n * int64(c.Timeouts+c.GiveUps)
	if c.Completed == 0 {
		rep.problem("no simulated request completed")
		return rep, nil
	}
	p99 := pct(slices, 0.99)
	goodput := float64(rounds[0].goodput) / (float64(p.goodputSlices) * p.slice.Seconds())
	rep.set("setup_s", median(setups), "median of %d set-ups, one per round (build + %v virtual warm-up)", len(setups), p.warmup)
	rep.set("req_per_wall_s", median(sliceRates), "simulated requests completed per wall second in RunUntil, scaled by the round's reference time / %v; median of %d slices", refNominal, len(sliceRates))
	rep.set("allocs_per_req", allocs/reqs, "heap objects per simulated request")
	rep.set("bytes_per_req", heapBytes/reqs, "heap bytes per simulated request")
	peak, stretches := mem.peakMB()
	rep.set("peak_heap_mb", peak, "peak live heap of a round (sampled after its set-up and every slice), median of %d rounds", stretches)
	rep.note("%d rounds of %d slices (%v virtual), %d events each; sim goodput %.1f req/virtual s over the first %d slices",
		len(rounds), p.roundSlices, rounds[0].virtual, c.Fired, goodput, p.goodputSlices)
	rep.note("mean req/wall s by round: %.0f", rates)
	rep.set("sim.req_per_wall_s_raw", median(rawRates), "the same, unscaled")
	rep.set("host.ref_ms", median(refMs), "reference job's wall time, median of %d (one after each round)", len(refMs))
	rep.set("sim.slice_p50_ms", median(p50s), "wall time of one %v virtual slice: median over rounds of each round's p50 of %d", p.slice, p.roundSlices)
	rep.set("sim.slice_p99_ms", p99.Value, "wall time of one %v virtual slice: p%s of %d, pooled over rounds", p.slice, qLabel(p99.Q), p99.N)
	if !cfg.trace {
		return rep, nil
	}

	// Traced rounds of the same seed.
	rec := newRecorder()
	var profs [][]byte
	var traced []simMeasure
	var tracedWall []float64
	var gcs, treqs float64
	for start := time.Now(); len(traced) < 1 || time.Since(start) < budget; {
		var prof bytes.Buffer
		_, m, err := simRound(p, cfg.seed, rec, &prof, mem)
		if err != nil {
			return nil, err
		}
		traced = append(traced, m)
		profs = append(profs, prof.Bytes())
		tracedWall = append(tracedWall, m.runWall.Seconds())
		gcs += m.gcs
		treqs += float64(m.counters.Completed)
	}
	want := cfg.perturb(c)
	for i, m := range traced {
		for _, d := range want.diff(m.counters) {
			rep.problem("timed and traced rounds of seed %d disagree: %s", cfg.seed, d)
		}
		for _, v := range m.violations {
			rep.problem("traced round %d: %s", i+1, v)
		}
	}
	rep.spans = rec.spans

	var untracedWall []float64
	for _, m := range rounds {
		untracedWall = append(untracedWall, m.runWall.Seconds())
	}
	t := traced[0]
	tc := t.counters
	vs := t.virtual.Seconds()
	rep.set("sim.events_per_req", float64(tc.Fired)/float64(tc.Completed), "")
	rep.set("sim.ns_per_event", median(nsPerEvent), "untraced, median over rounds")
	rep.set("sim.goodput_vrps", goodput, "exact per seed")
	rep.set("sched.runq_mean", t.runqSum/float64(t.slices), "RunQueueDepth after each slice")
	rep.set("kernel.conns_per_vs", float64(t.established)/vs, "")
	rep.set("kernel.syn_drops_per_vs", float64(tc.SynDrops)/vs, "")
	rep.set("kernel.interrupt_frac", t.intrTime.Seconds()/vs, "")
	rep.set("kernel.open_conns_peak", float64(t.openPeak), "")
	rep.set("rc.containers_per_req", float64(t.containers)/float64(tc.Completed), "")
	rep.set("workload.timeouts", float64(tc.Timeouts), "per round")
	rep.set("workload.retries", float64(tc.Retries), "per round")
	rep.set("telemetry.samples", float64(t.ticks), "sampling ticks per round")
	rep.set("alert.events", float64(t.alertEvts), "per round")
	rep.set("alert.watchdog_engagements", float64(t.wdEngaged), "per round")
	rep.set("gc.cycles_per_kreq", 1000*gcs/treqs, "")
	rep.set("trace_overhead_frac", median(tracedWall)/median(untracedWall)-1,
		"median RunUntil wall of a round: traced %.3f s over %d rounds vs untraced %.3f s over %d",
		median(tracedWall), len(traced), median(untracedWall), len(rounds))
	rep.set("error_rate", float64(tc.Timeouts+tc.GiveUps)/float64(tc.Completed+tc.Timeouts+tc.GiveUps), "")
	if err := rep.cpuShares(profs...); err != nil {
		return nil, err
	}
	return rep, nil
}
