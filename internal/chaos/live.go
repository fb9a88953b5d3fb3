package chaos

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"time"

	"rescon/internal/alert"
	"rescon/internal/experiments"
	"rescon/internal/fault"
	"rescon/internal/rcruntime"
	"rescon/internal/rebalance"
	"rescon/internal/sim"
)

// The live harness fuzzes the *runtime* closed loop — circuit breakers,
// monitor check battery, watchdog clamp/restore — the way the classic
// harness fuzzes the simulated kernel. A LiveScenario draws a tenant
// mix (one well-behaved population plus hostile hogs), a request-level
// fault schedule (handler stalls and panics), and the defense knobs;
// RunLive drives rcruntime.Middleware directly through
// httptest.ResponseRecorder on a lockstep virtual clock — no sockets,
// no goroutines — so every run is a pure function of the scenario and
// a sweep is cheap enough to burn thousands of seeds.
//
// The invariants it hunts are the failure modes of a self-defending
// server:
//
//   - live-conservation: every request the driver issued must appear in
//     exactly one of the runtime's books (served, shed, breaker,
//     drain, panic), and the telemetry stream must agree with Stats.
//   - live-leak: after the end-of-run drain, the in-flight gauge must
//     be zero and the drain report clean.
//   - live-oscillation: once the hostile phase ends and the calm phase
//     has absorbed the alert hysteresis, the watchdog must not engage
//     again, and every clamp must have been restored by the end — a
//     watchdog that flips policy against a healthy server, or leaves a
//     tenant clamped forever, is itself the outage.
//   - live-starvation: a well-behaved unlimited tenant must never be
//     refused admission entirely — the defenses may slow the hostile
//     tenant, never starve the victim they exist to protect.
//   - determinism: RunLiveChecked re-runs the scenario and compares the
//     full digests (counters, alert stream, violations).

// Live generator fork labels, continuing scenario.go's sequence (8 is
// the sim rebalance axis).
const (
	labelLiveTenants   = 5
	labelLiveFaults    = 6
	labelLiveDefense   = 7
	labelLiveRebalance = 9
)

// liveOscillationGrace is how many calm rounds the harness grants the
// alert pipeline to absorb in-flight criticals before a fresh watchdog
// engagement counts as oscillation. It covers the raise hysteresis plus
// one flap window of the trailing hostile ticks.
const liveOscillationGrace = 12

// liveShrinkMinRounds floors the round counts during shrinking: below a
// handful of rounds the enforcement window never rolls and the
// scenario stops meaning anything.
const (
	liveShrinkMinHostile = 2
	liveShrinkMinCalm    = 8
)

// LiveFaultSpec is the request-level slice of fault.LiveConfig — the
// classes that exist without a real socket. Connection resets and read
// stalls need the wire; the in-process driver draws only fates that
// fire inside the handler stack.
type LiveFaultSpec struct {
	StallRate float64      `json:"stall_rate,omitempty"`
	StallFor  sim.Duration `json:"stall_for,omitempty"`
	PanicRate float64      `json:"panic_rate,omitempty"`
}

// LiveBreakerSpec enables per-tenant circuit breakers.
type LiveBreakerSpec struct {
	OpenAfter int `json:"open_after"`
}

// LiveRebalanceSpec arms the adaptive rebalancer on the live runtime: a
// CPULimit pool over the hostile tenants' window budgets, actuated
// through Enforcer.Sync off the monitor tick, arbitrated against the
// watchdog when one is configured. Mutation plants a controller bug
// (same seam as the sim Scenario.Mutation rebalance values, minus the
// "rebalance-" prefix): "oscillate", "no-disarm", "leak", "no-floor".
type LiveRebalanceSpec struct {
	CooldownTicks int    `json:"cooldown_ticks,omitempty"`
	OscMaxFlips   int    `json:"osc_max_flips,omitempty"`
	Mutation      string `json:"mutation,omitempty"`
}

// LiveWatchdogSpec enables the monitor + watchdog closed loop.
type LiveWatchdogSpec struct {
	ClampLimit      float64 `json:"clamp_limit"`
	BackoffTicks    int     `json:"backoff_ticks"`
	MaxBackoffTicks int     `json:"max_backoff_ticks"`
	// ShedCrit is the monitor's critical sheds-per-tick threshold,
	// sized by the generator to the hog population so the loop engages.
	ShedCrit float64 `json:"shed_crit"`
	// Clear is the alert hysteresis override; the generator keeps it
	// small so the calm phase provably outlasts the worst-case restore.
	Clear int `json:"clear"`
}

// LiveScenario is one seeded live-runtime scenario: the governed
// middleware stack under a tenant mix, fault schedule and defense
// configuration, all drawn from Seed.
type LiveScenario struct {
	Seed          uint64                   `json:"seed"`
	Window        sim.Duration             `json:"window"`
	HostileRounds int                      `json:"hostile_rounds"`
	CalmRounds    int                      `json:"calm_rounds"`
	Think         sim.Duration             `json:"think"`
	Grace         sim.Duration             `json:"grace"`
	Tenants       []experiments.LiveTenant `json:"tenants"`
	Faults        LiveFaultSpec            `json:"faults"`
	Breakers      *LiveBreakerSpec         `json:"breakers,omitempty"`
	Watchdog      *LiveWatchdogSpec        `json:"watchdog,omitempty"`
	Rebalance     *LiveRebalanceSpec       `json:"rebalance,omitempty"`
}

// Validate rejects specs the runner cannot build.
func (sc LiveScenario) Validate() error {
	if sc.Window <= 0 {
		return fmt.Errorf("chaos: live scenario window %v must be positive", sc.Window)
	}
	if sc.HostileRounds < 0 || sc.CalmRounds < 0 || sc.HostileRounds+sc.CalmRounds == 0 {
		return fmt.Errorf("chaos: live scenario needs rounds (hostile %d, calm %d)", sc.HostileRounds, sc.CalmRounds)
	}
	if sc.Think < 0 || sc.Grace < 0 || sc.Faults.StallFor < 0 {
		return fmt.Errorf("chaos: negative think %v, grace %v or stall %v", sc.Think, sc.Grace, sc.Faults.StallFor)
	}
	if len(sc.Tenants) == 0 {
		return fmt.Errorf("chaos: live scenario has no tenants")
	}
	seen := make(map[string]bool, len(sc.Tenants))
	for i, t := range sc.Tenants {
		if t.Name == "" || seen[t.Name] {
			return fmt.Errorf("chaos: tenant %d: empty or duplicate name %q", i, t.Name)
		}
		seen[t.Name] = true
		if t.Requests < 0 || t.Cost < 0 || t.Limit < 0 || t.Limit > 1 {
			return fmt.Errorf("chaos: tenant %q: bad requests/cost/limit (%d, %v, %g)", t.Name, t.Requests, t.Cost, t.Limit)
		}
	}
	for _, r := range []float64{sc.Faults.StallRate, sc.Faults.PanicRate} {
		if r < 0 || r > 1 {
			return fmt.Errorf("chaos: fault rate %g outside [0,1]", r)
		}
	}
	if sc.Breakers != nil && sc.Breakers.OpenAfter < 1 {
		return fmt.Errorf("chaos: breaker open-after %d must be >= 1", sc.Breakers.OpenAfter)
	}
	if w := sc.Watchdog; w != nil {
		if w.ClampLimit <= 0 || w.ClampLimit > 1 {
			return fmt.Errorf("chaos: watchdog clamp limit %g outside (0,1]", w.ClampLimit)
		}
		if w.BackoffTicks < 1 || w.MaxBackoffTicks < w.BackoffTicks {
			return fmt.Errorf("chaos: watchdog backoff %d/%d invalid", w.BackoffTicks, w.MaxBackoffTicks)
		}
	}
	if rb := sc.Rebalance; rb != nil {
		switch rb.Mutation {
		case "", "oscillate", "no-disarm", "leak", "no-floor":
		default:
			return fmt.Errorf("chaos: unknown live rebalance mutation %q", rb.Mutation)
		}
		limited := 0
		for _, t := range sc.Tenants {
			if !t.Calm && t.Limit > 0 {
				limited++
			}
		}
		if limited < 2 {
			return fmt.Errorf("chaos: live rebalance needs at least two limited hostile tenants, got %d", limited)
		}
	}
	return nil
}

// GenerateLive draws a live scenario from a seed. The shape is always
// one unlimited well-behaved tenant (the victim the starvation
// invariant watches) plus 1–3 hogs; faults and each defense layer are
// enabled independently so the sweep covers undefended, breaker-only,
// watchdog-only and fully defended stacks.
func GenerateLive(seed uint64) LiveScenario {
	top := sim.NewRNG(int64(seed))
	rt := top.Fork(labelLiveTenants)
	sc := LiveScenario{
		Seed:          seed,
		Window:        rt.Uniform(50*sim.Millisecond, 150*sim.Millisecond),
		HostileRounds: 8 + rt.Intn(17),
		CalmRounds:    44 + rt.Intn(13),
		Think:         rt.Uniform(sim.Millisecond/2, 2*sim.Millisecond),
		Grace:         sim.Second,
	}
	sc.Tenants = append(sc.Tenants, experiments.LiveTenant{
		Name:     "good",
		Requests: 2 + rt.Intn(5),
		Cost:     time.Duration(rt.Uniform(sim.Millisecond, 3*sim.Millisecond)),
		Calm:     true,
	})
	hogReqs := 0
	for i, n := 0, 1+rt.Intn(3); i < n; i++ {
		t := experiments.LiveTenant{
			Name:     fmt.Sprintf("hog%d", i),
			Requests: 4 + rt.Intn(13),
			Cost:     time.Duration(rt.Uniform(4*sim.Millisecond, 15*sim.Millisecond)),
		}
		if rt.Float64() < 0.3 {
			// A pre-limited hog: the enforcer sheds it without watchdog help.
			t.Limit = 0.2 + 0.3*rt.Float64()
		}
		hogReqs += t.Requests
		sc.Tenants = append(sc.Tenants, t)
	}

	rf := top.Fork(labelLiveFaults)
	if rf.Float64() < 0.5 {
		sc.Faults.StallRate = 0.15 * rf.Float64()
		sc.Faults.StallFor = rf.Uniform(5*sim.Millisecond, 30*sim.Millisecond)
	}
	if rf.Float64() < 0.5 {
		sc.Faults.PanicRate = 0.08 * rf.Float64()
	}

	// The rebalance axis: arm the controller on half the seeds whose
	// tenant draw left at least two hogs (its CPULimit pool governs the
	// hostile budgets; the calm victim stays unlimited so the
	// starvation invariant keeps watching it). Hogs get forced window
	// budgets so the pool has a conserved total to govern.
	rb := top.Fork(labelLiveRebalance)
	if hogs := len(sc.Tenants) - 1; hogs >= 2 && rb.Float64() < 0.5 {
		for i := range sc.Tenants {
			if !sc.Tenants[i].Calm {
				sc.Tenants[i].Limit = 0.15 + 0.25*rb.Float64()
			}
		}
		sc.Rebalance = &LiveRebalanceSpec{
			CooldownTicks: 1 + rb.Intn(4),
			OscMaxFlips:   4 + rb.Intn(5),
		}
	}

	rd := top.Fork(labelLiveDefense)
	if rd.Float64() < 0.8 {
		sc.Breakers = &LiveBreakerSpec{OpenAfter: 2 + rd.Intn(5)}
	}
	if rd.Float64() < 0.8 {
		backoff := 2 + rd.Intn(3)
		sc.Watchdog = &LiveWatchdogSpec{
			ClampLimit:      0.05 + 0.25*rd.Float64(),
			BackoffTicks:    backoff,
			MaxBackoffTicks: 4 * backoff,
			// Half the hog population's per-tick refusals sustain
			// criticality through the hostile phase; Clear=2 bounds the
			// worst-case restore (clear + flap penalty + hold-down +
			// backoff) well inside the generated calm phase.
			ShedCrit: max(2, float64(hogReqs)/2),
			Clear:    2,
		}
	}
	return sc
}

// LiveTenantResult is one tenant's client-side ledger: everything the
// driver issued for it and where each request ended up.
type LiveTenantResult = experiments.LiveLedger

// LiveResult is the outcome of one live scenario run.
type LiveResult struct {
	Scenario LiveScenario
	Violations
	Hash uint64

	Tenants               map[string]LiveTenantResult
	Served, Shed          uint64
	BreakerShed, Panics   uint64
	Engagements, Restores uint64
	RebalanceSteps        uint64
	RebalanceFreezes      uint64
	RebalanceDisarms      uint64
	Faults                fault.LiveStats
	Elapsed               time.Duration
}

func (r *LiveResult) verdict() (*Violations, uint64) { return &r.Violations, r.Hash }

// RunLive executes the scenario once against the real middleware stack
// on the governed-live rig's in-process transport and returns its
// result. An error means the scenario could not be built or driven —
// distinct from a clean run that found violations.
func RunLive(sc LiveScenario) (*LiveResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	rig, err := experiments.NewLiveRig("livefuzz", sc.Tenants)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	hogs := rig.Hostile()
	boot := experiments.LiveBoot{
		Window: time.Duration(sc.Window),
		Seed:   int64(sc.Seed),
		Faults: &fault.LiveConfig{
			HandlerStallRate: sc.Faults.StallRate,
			HandlerStallFor:  time.Duration(sc.Faults.StallFor),
			PanicRate:        sc.Faults.PanicRate,
		},
	}
	if sc.Breakers != nil {
		boot.Options = []rcruntime.Option{rcruntime.WithBreakers(rcruntime.BreakerConfig{
			OpenAfter: sc.Breakers.OpenAfter,
		})}
	}
	if w := sc.Watchdog; w != nil {
		boot.Monitor = &rcruntime.MonitorConfig{
			ShedWarn: w.ShedCrit / 2,
			ShedCrit: w.ShedCrit,
			Clear:    w.Clear,
			Tenants:  hogs,
		}
		boot.Watchdog = &alert.WatchdogConfig{
			ClampLimit:      w.ClampLimit,
			BackoffTicks:    w.BackoffTicks,
			MaxBackoffTicks: w.MaxBackoffTicks,
			Clampable:       hogs,
		}
	} else if sc.Rebalance != nil {
		// The rebalancer ticks off the monitor; arm a bare one.
		boot.Monitor = &rcruntime.MonitorConfig{Tenants: hogs}
	}
	if err := rig.Start(boot); err != nil {
		return nil, err
	}
	wd := rig.Watchdog

	res := &LiveResult{Scenario: sc, Tenants: make(map[string]LiveTenantResult, len(sc.Tenants))}
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	// The adaptive rebalancer: a CPULimit pool over the limited hostile
	// tenants, ticked off the monitor. The rig attached the watchdog
	// first, so its engage lands before the controller's freeze decision
	// on the same tick — the arbitration the sim harness exercises,
	// against the real enforcer.
	var ctrl *rebalance.Controller
	var audits []rebalanceAudit
	if spec := sc.Rebalance; spec != nil {
		cfg := rebalance.Config{
			CooldownTicks: spec.CooldownTicks,
			OscMaxFlips:   spec.OscMaxFlips,
		}
		thrash := mutateRebalance(&cfg, "rebalance-"+spec.Mutation)
		if spec.Mutation == "leak" {
			// A leak only manifests on steps; strip the deadband so the
			// small organic imbalances of a live run produce them.
			cfg.NoDeadband = true
		}
		if wd != nil {
			cfg.Freeze = []rebalance.Freezer{wd}
		}
		ctrl, err = rcruntime.AttachRebalancer(rig.Monitor, cfg)
		if err != nil {
			return nil, err
		}
		var members []rebalance.Member
		for i, t := range sc.Tenants {
			if !t.Calm && t.Limit > 0 {
				c := rig.Tenants[i]
				members = append(members, rebalance.Member{Container: c, Demand: cpuDemand(ctrl, thrash, len(members), c)})
			}
		}
		if err := ctrl.AddPool(rebalance.PoolConfig{
			Name: "cpu", Resource: rebalance.CPULimit, Members: members,
		}); err != nil {
			return nil, err
		}
		audits = rebalanceAudits(ctrl)
	}

	// The oscillation invariant: once the calm phase has absorbed the
	// hysteresis carried over from the hostile ticks, no new engagement
	// may begin — there is nothing left to defend against.
	var settled uint64
	res.Elapsed, err = rig.Drive(sc.HostileRounds, sc.CalmRounds, time.Duration(sc.Think), func(hostile bool, r int) {
		for _, a := range audits {
			if msg := a.fn(); msg != "" {
				violate("%s: %s", a.class, msg)
			}
		}
		if wd != nil && !hostile && r == liveOscillationGrace {
			settled = wd.Engagements()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if wd != nil && sc.CalmRounds > liveOscillationGrace {
		if late := wd.Engagements() - settled; late > 0 {
			violate("live-oscillation: watchdog engaged %d time(s) during the settled calm phase", late)
		}
	}

	s, leak, sink := rig.Finish(time.Duration(sc.Grace))
	if leak != "" {
		violate("live-leak: %s", leak)
	}

	// Conservation, both directions: the driver's ledger against the
	// runtime's books, and the telemetry stream against Stats.
	for i, t := range sc.Tenants {
		if led := rig.Ledger(i); led.Issued > 0 {
			res.Tenants[t.Name] = led
		}
	}
	if all := rig.Total(); all.Served != s.Served-s.Panics || all.Panicked != s.Panics || all.Shed != s.Shed+s.BreakerShed+s.DrainShed {
		violate("live-conservation: client ledger served=%d panicked=%d shed=%d vs stats served=%d panics=%d shed=%d+%d+%d",
			all.Served, all.Panicked, all.Shed, s.Served, s.Panics, s.Shed, s.BreakerShed, s.DrainShed)
	}
	if sink != "" {
		violate("live-conservation: telemetry sink %s", sink)
	}

	// Starvation: a calm unlimited tenant that issued work and never got
	// a single request past admission was starved by the defenses.
	for _, t := range sc.Tenants {
		if !t.Calm || t.Limit != 0 {
			continue
		}
		led := res.Tenants[t.Name]
		if led.Issued > 0 && led.Served+led.Panicked == 0 {
			violate("live-starvation: unlimited calm tenant %q issued %d request(s), none admitted", t.Name, led.Issued)
		}
	}

	var am *alert.Monitor
	if rig.Monitor != nil {
		am = rig.Monitor.Alert()
	}
	if wd != nil {
		res.Engagements, res.Restores = wd.Engagements(), wd.Restores()
		if wd.Engaged() || res.Restores != res.Engagements {
			violate("live-oscillation: clamp never released: engaged=%t engagements=%d restores=%d",
				wd.Engaged(), res.Engagements, res.Restores)
		}
		if msg := am.SelfCheck(); msg != "" {
			violate("missed-detection: %s", msg)
		}
	}
	if ctrl != nil {
		res.RebalanceSteps = ctrl.Steps()
		res.RebalanceFreezes = ctrl.Freezes()
		res.RebalanceDisarms = ctrl.Disarms()
	}

	res.Served, res.Shed = s.Served, s.Shed
	res.BreakerShed, res.Panics = s.BreakerShed, s.Panics
	res.Faults = rig.Faults.Stats()
	res.Hash = hashLiveRun(am, ctrl, res, s)
	return res, nil
}

// hashLiveRun digests the run's observable state — the alert stream,
// the rebalance decision journal, every counter, the per-tenant ledgers
// and the violations — for the determinism double-run.
func hashLiveRun(am *alert.Monitor, ctrl *rebalance.Controller, res *LiveResult, s rcruntime.Stats) uint64 {
	h := fnv.New64a()
	if am != nil {
		_ = am.WriteJSONL(h)
	}
	_ = ctrl.WriteJSONL(h)
	fmt.Fprintf(h, "served=%d shed=%d breaker=%d drain=%d panics=%d refused=%d delayed=%d wd=%d/%d rb=%d/%d/%d faults=%v elapsed=%d\n",
		s.Served, s.Shed, s.BreakerShed, s.DrainShed, s.Panics, s.Refused, s.Delayed,
		res.Engagements, res.Restores,
		res.RebalanceSteps, res.RebalanceFreezes, res.RebalanceDisarms,
		res.Faults, int64(res.Elapsed))
	names := make([]string, 0, len(res.Tenants))
	for name := range res.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		led := res.Tenants[name]
		fmt.Fprintf(h, "%s issued=%d served=%d shed=%d panicked=%d\n", name, led.Issued, led.Served, led.Shed, led.Panicked)
	}
	return res.Violations.digest(h)
}

// RunLiveChecked runs the scenario twice from scratch and adds a
// determinism violation if the digests differ. The first run's result
// is returned.
func RunLiveChecked(sc LiveScenario) (*LiveResult, error) {
	return runChecked(sc, RunLive)
}

// ShrinkLive greedily minimizes a failing live scenario while
// preserving its failure class: it drops hostile tenants, halves
// request counts and round counts, strips the fault schedule and each
// defense layer, keeping every candidate that still fails the same
// way.
func ShrinkLive(sc LiveScenario, class string) LiveScenario {
	return shrink(sc, class, RunLive, RunLiveChecked, livePasses)
}

// livePasses proposes ShrinkLive's candidates, in order.
func livePasses(s *shrinker[LiveScenario]) {
	// Drop hostile tenants, last-to-first; the calm victim stays.
	for i := len(s.cur.Tenants) - 1; i >= 0; i-- {
		if !s.cur.Tenants[i].Calm {
			s.edit(func(c *LiveScenario) { c.Tenants = slices.Delete(slices.Clone(c.Tenants), i, i+1) })
		}
	}
	// Halve request counts.
	for i := range s.cur.Tenants {
		if s.cur.Tenants[i].Requests > 1 {
			s.edit(func(c *LiveScenario) {
				c.Tenants = slices.Clone(c.Tenants)
				c.Tenants[i].Requests /= 2
			})
		}
	}
	// Halve the phases.
	if s.cur.HostileRounds/2 >= liveShrinkMinHostile {
		s.edit(func(c *LiveScenario) { c.HostileRounds /= 2 })
	}
	if s.cur.CalmRounds/2 >= liveShrinkMinCalm {
		s.edit(func(c *LiveScenario) { c.CalmRounds /= 2 })
	}
	// Strip the fault schedule and each defense layer.
	if s.cur.Faults != (LiveFaultSpec{}) {
		s.edit(func(c *LiveScenario) { c.Faults = LiveFaultSpec{} })
	}
	if s.cur.Breakers != nil {
		s.edit(func(c *LiveScenario) { c.Breakers = nil })
	}
	if s.cur.Watchdog != nil {
		s.edit(func(c *LiveScenario) { c.Watchdog = nil })
	}
	// Disarm the rebalancer — legal only when no planted mutation
	// needs the controller to exist.
	if s.cur.Rebalance != nil && s.cur.Rebalance.Mutation == "" {
		s.edit(func(c *LiveScenario) { c.Rebalance = nil })
	}
}

// WriteFile writes the live scenario as an indented JSON repro file.
func (sc LiveScenario) WriteFile(path string) error { return writeRepro(path, sc) }

// LoadLiveScenario reads and validates a repro file written by
// LiveScenario.WriteFile.
func LoadLiveScenario(path string) (LiveScenario, error) {
	return loadRepro[LiveScenario](path, "live repro")
}

// LiveSmoke generates and runs live scenarios starting at seed, each
// with the determinism double-run. It returns an error describing the
// first failing scenario, or nil if every run was clean.
func LiveSmoke(runs int, seed uint64) error {
	return smoke(runs, seed, func(s uint64) []LiveScenario { return []LiveScenario{GenerateLive(s)} },
		RunLiveChecked, func(sc LiveScenario) string { return fmt.Sprintf("live seed %d", sc.Seed) })
}
