package experiments

import (
	"fmt"
	"hash/fnv"

	"rescon/internal/kernel"
	"rescon/internal/metrics"
	"rescon/internal/netsim"
	"rescon/internal/rc"
	"rescon/internal/rebalance"
	"rescon/internal/sim"
	"rescon/internal/telemetry"
	"rescon/internal/workload"
)

// The rebalance ablation reproduces the adaptive-rebalancing claim
// (C-Balancer, PAPERS.md) on the one resource whose enforcement is
// identical in every kernel mode: the buffer-cache quota (§4.4's
// MemLimit-as-cache-quota). Two guests hold static 16 KB quotas in a
// 32 KB quota pool; the "season" — which guest's hot set the crowd is
// hammering — shifts mid-run. A static split strands half the pool on
// the idle guest, so the in-season guest cycles a hot set larger than
// its quota through its own LRU (the cache self-evicts within the
// over-quota subtree) and keeps falling to disk speed. The adaptive
// controller reads each guest's miss counters
// (kernel.FileCache.ContainerStats) and moves MemQuota toward the
// misses, so the in-season hot set fits and stays resident. The
// no-damping arm strips every safety mechanism instead: full-pool
// steps with no deadband, cooldown or demand smoothing whipsaw the
// quota between the guests on per-tick miss noise, the oscillation
// detector trips, and the controller disarms back to the exact static
// split — graceful degradation, measured.
const (
	// rebalanceCacheCap is the cache's global capacity. It is
	// deliberately much larger than the quota pool so the per-guest
	// MemQuota — the thing the controller actuates — is the only
	// binding constraint; were the global LRU the bottleneck, quota
	// placement could not affect residency at all.
	rebalanceCacheCap = 512 * 1024
	// rebalanceGuestQuota is the static per-guest split the adaptive
	// arms start from (and the disarmed controller must restore
	// exactly). The pool total is 2× this.
	rebalanceGuestQuota = 16 * 1024
	// rebalanceHotDocs is each guest's in-season hot set (1 KB
	// documents): larger than the static split, smaller than what the
	// controller can grant, so quota placement decides hit or miss —
	// and under LRU the cliff is sharp: a round-robin cycle through
	// one-more-document-than-fits misses every single time. The set is
	// sized so a cold fill (one disk read per document, the disk is a
	// serialized ms-scale queue) completes in a small fraction of a
	// season phase.
	rebalanceHotDocs = 24
	// An off-season guest touches one tiny document that fits under the
	// starvation floor (5% of 32 KB), so its demand signal is
	// genuinely near zero — the solo phases have a stable fixed point
	// instead of a winner-take-all tug of war.
	rebalanceBgDocs = 1
	// Every rebalanceColdEvery-th in-season request fetches a one-shot
	// "cold" document (the web's long tail). The trickle does three
	// jobs: it keeps an honest miss signal alive on a busy guest; its
	// inserts are what reclaim a shrunk quota (the cache drains an
	// over-quota subtree to its limit on the next insert, so a quota
	// the controller takes away is actually given up); and it is
	// exactly the per-tick noise that separates damped from undamped
	// control — the smoothed, deadbanded arm ignores a stray miss, the
	// no-damping arm slams the whole pool toward it.
	rebalanceColdEvery = 16
	// rebalanceClients is the closed-loop client count per guest.
	rebalanceClients = 6
)

// Rebalance policies, in row order.
const (
	PolicyStatic   = "static"
	PolicyAdaptive = "adaptive"
	PolicyNoDamp   = "adaptive-no-damping"
)

// rebalanceShifts are the load-shift patterns, in row order. Flash: a
// flash crowd arrives at guest B mid-window while guest A's audience
// persists — a solo phase followed by sustained contention (two hot
// sets that together exceed the quota pool), the regime where undamped
// control thrashes. Diurnal: the crowd drifts from A to B through a
// contended shoulder — solo A, both, solo B.
var rebalanceShifts = []string{"flash", "diurnal"}

// rebalancePolicies in row order.
var rebalancePolicies = []string{PolicyStatic, PolicyAdaptive, PolicyNoDamp}

// RebalanceCell is one ablation cell: a load-shift pattern × kernel
// mode × quota policy.
type RebalanceCell struct {
	Shift  string
	Mode   kernel.Mode
	Policy string
	// Goodput is both guests' aggregate completion rate (req/s) over
	// the post-warmup window; HitPct the cache hit rate over the same
	// window.
	Goodput float64
	HitPct  float64
	// Controller counters (zero for the static policy) and the FNV-64a
	// digest of its decision journal, for the determinism gate.
	Steps   uint64
	Disarms uint64
	Journal uint64
}

// RebalanceResult holds every cell in deterministic order plus the
// -check gate outcomes.
type RebalanceResult struct {
	Cells []RebalanceCell
	// Deterministic reports that the -check double run compared every
	// cell byte-identical (false when the gate did not run).
	Deterministic bool
}

// Cell returns the cell for (shift, mode, policy).
func (r *RebalanceResult) Cell(shift string, mode kernel.Mode, policy string) RebalanceCell {
	for _, c := range r.Cells {
		if c.Shift == shift && c.Mode == mode && c.Policy == policy {
			return c
		}
	}
	return RebalanceCell{}
}

// Table renders the ablation.
func (r *RebalanceResult) Table() *metrics.Table {
	t := metrics.NewTable(
		"Extension: adaptive cache-quota rebalancing under load shifts (32 KB quota pool)",
		"Shift", "Mode", "Policy", "Goodput (req/s)", "Hit rate (%)", "Steps", "Disarmed")
	yn := map[uint64]string{0: "no", 1: "yes"}
	for _, c := range r.Cells {
		t.AddRow(c.Shift, c.Mode.String(), c.Policy, c.Goodput, c.HitPct, c.Steps, yn[min(c.Disarms, 1)])
	}
	return t
}

// Rebalance runs the static-vs-adaptive-vs-no-damping ablation over
// both shift patterns and all three kernel modes. With opt.Invariants
// (-check) it additionally re-runs every cell and enforces the gates:
// byte-identical double run, adaptive goodput strictly above static in
// every (shift, mode), the no-damping arm tripping the oscillation
// detector exactly once, and the adaptive arm staying armed. The
// starvation-floor and conservation audits run inside every cell
// regardless.
func Rebalance(opt Options) (*RebalanceResult, error) {
	opt = opt.withDefaults(2*sim.Second, 6*sim.Second)
	modes := []kernel.Mode{kernel.ModeUnmodified, kernel.ModeLRP, kernel.ModeRC}
	nPol := len(rebalancePolicies)
	cells, err := runPointsErr(opt.Parallel, len(rebalanceShifts)*len(modes)*nPol,
		func(i int) (RebalanceCell, error) {
			return rebalancePoint(rebalanceShifts[i/(len(modes)*nPol)], modes[(i/nPol)%len(modes)],
				rebalancePolicies[i%nPol], opt)
		})
	if err != nil {
		return nil, err
	}
	res := &RebalanceResult{Cells: cells}
	if !opt.Invariants {
		return res, nil
	}

	again, err := runPointsErr(opt.Parallel, len(cells), func(i int) (RebalanceCell, error) {
		c := cells[i]
		return rebalancePoint(c.Shift, c.Mode, c.Policy, opt)
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		if again[i] != c {
			return nil, fmt.Errorf("rebalance: determinism gate: cell %s/%s/%s differs across runs: %+v vs %+v",
				c.Shift, c.Mode, c.Policy, c, again[i])
		}
	}
	res.Deterministic = true

	for _, shift := range rebalanceShifts {
		for _, mode := range modes {
			static, adaptive := res.Cell(shift, mode, PolicyStatic), res.Cell(shift, mode, PolicyAdaptive)
			if !(adaptive.Goodput > static.Goodput) {
				return nil, fmt.Errorf("rebalance: goodput gate: %s/%s adaptive %.1f req/s does not beat static %.1f req/s",
					shift, mode, adaptive.Goodput, static.Goodput)
			}
			if adaptive.Disarms != 0 {
				return nil, fmt.Errorf("rebalance: stability gate: %s/%s adaptive arm disarmed under organic load", shift, mode)
			}
			if nd := res.Cell(shift, mode, PolicyNoDamp); nd.Disarms != 1 {
				return nil, fmt.Errorf("rebalance: disarm gate: %s/%s no-damping arm disarmed %d time(s), want 1",
					shift, mode, nd.Disarms)
			}
		}
	}
	return res, nil
}

// Guest seasons: in-season clients cycle the big hot set, off-season
// clients touch the tiny background document.
const (
	seasonOff = iota
	seasonIn
)

// rebalancePoint runs one cell: two cache-sharing guests, the shift
// schedule, and the cell's quota policy.
func rebalancePoint(shift string, mode kernel.Mode, policy string, opt Options) (RebalanceCell, error) {
	cell := RebalanceCell{Shift: shift, Mode: mode, Policy: policy}
	e := newEnv(mode, opt)
	e.k.FileCache().SetCapacity(rebalanceCacheCap)
	tel := telemetry.New()
	e.k.AttachTelemetry(tel)

	aCache, aAddr := e.cacheGuest("guestA", 8001, rebalanceGuestQuota)
	bCache, bAddr := e.cacheGuest("guestB", 8002, rebalanceGuestQuota)

	var ctrl *rebalance.Controller
	if policy != PolicyStatic {
		// Tuning for this plant: the miss signal is a count, so its
		// window-to-window share is noisy (a handful of misses per
		// window near equilibrium), and proportional control is
		// self-defeating — granting quota to the needy guest shrinks its
		// miss share, so the target recedes as it is approached. The
		// damped arm smooths demand over a longer window and, crucially,
		// spaces steps so one member can apply at most
		// ⌈OscWindow/(Cooldown+1)⌉ = 4 steps inside the 64-tick detector
		// window: fewer than OscMaxFlips (6), so equilibrium dither
		// cannot trip the detector — the actuation bandwidth sits below
		// the trip frequency by construction.
		cfg := rebalance.Config{
			CooldownTicks:     16,
			DemandWindowTicks: 32,
		}
		if policy == PolicyNoDamp {
			// Strip every damping mechanism: full-pool steps, no
			// cooldown, no deadband, raw per-tick demand. The detector
			// itself stays armed, with its window widened to the plant's
			// time constant — quota moves only change miss behavior a
			// request-service-time later, so flips accumulate at the
			// request rate, not the tick rate.
			cfg.StepFrac = 1
			cfg.NoCooldown = true
			cfg.NoDeadband = true
			cfg.DemandWindowTicks = 1
			cfg.OscWindowTicks = 256
			cfg.OscMaxFlips = rebalance.DefaultOscMaxFlips
		}
		var err error
		if ctrl, err = rebalance.Attach(tel, cfg); err != nil {
			return cell, err
		}
		fc := e.k.FileCache()
		missesOf := func(c *rc.Container) func() int64 {
			return func() int64 {
				_, m := fc.ContainerStats(c)
				return int64(m)
			}
		}
		if err := ctrl.AddPool(rebalance.PoolConfig{
			Name:     "cache",
			Resource: rebalance.MemQuota,
			Members: []rebalance.Member{
				{Container: aCache, Demand: missesOf(aCache)},
				{Container: bCache, Demand: missesOf(bCache)},
			},
		}); err != nil {
			return cell, err
		}
		if e.check != nil {
			e.check.MustWatchCheck("rebalance-starvation", ctrl.AuditFloors)
			e.check.MustWatchCheck("rebalance-conservation", ctrl.AuditConservation)
		}
	}

	// The season schedule. Guest A warms up in season, B off.
	aSeason, bSeason := seasonIn, seasonOff
	W := opt.Window
	switch shift {
	case "flash":
		// The flash crowd arrives at B; A's audience persists.
		e.eng.After(opt.Warmup+W/2, func() { bSeason = seasonIn })
	case "diurnal":
		// The crowd drifts A → B through a contended shoulder.
		e.eng.After(opt.Warmup+W*30/100, func() { bSeason = seasonIn })
		e.eng.After(opt.Warmup+W*70/100, func() { aSeason = seasonOff })
	default:
		return cell, fmt.Errorf("rebalance: unknown shift %q", shift)
	}
	// Document namespaces are per guest (the cache is keyed by path):
	// the working sets must be disjoint or quota placement is moot.
	// The sequence is shared round-robin across the guest's clients
	// (the cachewar idiom) so they do not march in lockstep through
	// the same document.
	pathFor := func(name string, season *int) func(uint64) string {
		seq := uint64(0)
		return func(uint64) string {
			seq++
			i := seq
			if *season == seasonIn {
				if i%rebalanceColdEvery == 0 {
					return fmt.Sprintf("/%s/cold/%d", name, i)
				}
				return fmt.Sprintf("/%s/hot/%d", name, i%rebalanceHotDocs)
			}
			return fmt.Sprintf("/%s/bg/%d", name, i%rebalanceBgDocs)
		}
	}
	aPop := workload.MustStartPopulation(rebalanceClients, workload.ClientConfig{
		Kernel:  e.k,
		Src:     netsim.Addr{IP: ClientNet + 1, Port: 1024},
		Dst:     aAddr,
		PathFor: pathFor("guestA", &aSeason),
	})
	bPop := workload.MustStartPopulation(rebalanceClients, workload.ClientConfig{
		Kernel:  e.k,
		Src:     netsim.Addr{IP: ClientNet + 0x40, Port: 1024},
		Dst:     bAddr,
		PathFor: pathFor("guestB", &bSeason),
	})

	start := e.eng.Now()
	e.eng.RunUntil(start.Add(opt.Warmup))
	aPop.ResetStats()
	bPop.ResetStats()
	h0, m0, _ := e.k.FileCache().Stats()
	e.eng.RunUntil(start.Add(opt.Warmup + W))
	h1, m1, _ := e.k.FileCache().Stats()

	cell.Goodput = aPop.Rate(e.eng.Now()) + bPop.Rate(e.eng.Now())
	if acc := (h1 - h0) + (m1 - m0); acc > 0 {
		cell.HitPct = 100 * float64(h1-h0) / float64(acc)
	}

	if ctrl != nil {
		// The safety invariants hold in every cell, gates or not: no
		// allocation below the starvation floor, the pool total
		// conserved, and — when the detector disarmed the controller —
		// the static quotas restored verbatim.
		for name, audit := range map[string]func() string{
			"starvation":   ctrl.AuditFloors,
			"conservation": ctrl.AuditConservation,
			"restore":      ctrl.AuditRestore,
		} {
			if v := audit(); v != "" {
				return cell, fmt.Errorf("rebalance: %s/%s/%s %s audit: %s", shift, mode, policy, name, v)
			}
		}
		cell.Steps, cell.Disarms = ctrl.Steps(), ctrl.Disarms()
		h := fnv.New64a()
		if err := ctrl.WriteJSONL(h); err != nil {
			return cell, err
		}
		cell.Journal = h.Sum64()
	}
	return cell, nil
}
