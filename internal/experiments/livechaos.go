package experiments

import (
	"fmt"
	"strings"
	"time"

	"rescon/internal/alert"
	"rescon/internal/fault"
	"rescon/internal/metrics"
	"rescon/internal/rc"
	"rescon/internal/rcruntime"
	"rescon/internal/sim"
)

// The livechaos experiment is the survivability story on the *real*
// runtime: the same governed net/http server as the live experiment,
// now with a hostile tenant, a seeded live fault schedule (connection
// resets, stalled reads, handler stalls, handler panics) and the full
// closed loop on top — monitor check battery, runtime watchdog
// (clamp + tighten), per-tenant circuit breakers, and a graceful drain
// at the end. Two cells run under the identical fault seed: undefended
// (no monitor, no watchdog, no breakers) and defended. Time is virtual
// (lockstep clock, sequential closed-loop issue order), so every cell —
// goodput, fault counts, watchdog engagements and restores — is a
// deterministic function of the seed, and the -check gate re-runs the
// whole experiment to assert the cells byte-identical.

// liveChaosParams are the knobs of one livechaos run.
type liveChaosParams struct {
	hostileRounds int // rounds with the hog flooding (faults active throughout)
	calmRounds    int // rounds with only the good tenant, so alerts clear
	think         time.Duration
	grace         time.Duration // drain grace at the end
	good, hog     LiveTenant
	boot          LiveBoot
}

func liveChaosParamsFor(opt Options) liveChaosParams {
	p := liveChaosParams{
		hostileRounds: 40,
		calmRounds:    48,
		think:         time.Millisecond,
		grace:         time.Second,
		good:          LiveTenant{Name: "good", Requests: 4, Cost: 2 * time.Millisecond, Calm: true},
		hog:           LiveTenant{Name: "hog", Requests: 16, Cost: 10 * time.Millisecond}, // unlimited: the watchdog must clamp it
		boot: LiveBoot{
			Window:   100 * time.Millisecond,
			Seed:     opt.Seed,
			Loopback: true,
			Faults: &fault.LiveConfig{
				ResetRate:        0.05,
				StallRate:        0.05,
				HandlerStallRate: 0.10,
				HandlerStallFor:  20 * time.Millisecond,
				PanicRate:        0.05,
			},
		},
	}
	if opt.Window != 0 && opt.Window <= 2*sim.Second {
		p.hostileRounds = 8 // -quick; calm stays long enough to restore
		p.calmRounds = 36
	}
	return p
}

// LiveChaosCell is one config's outcome. Every field is a deterministic
// function of the seed; the -check gate asserts the whole cell equal
// across two runs.
type LiveChaosCell struct {
	// Config names the cell (undefended / defended).
	Config string
	// GoodRate and HogRate are served requests per virtual second.
	GoodRate, HogRate float64
	// GoodServed/HogServed count 200s per tenant; Panics counts 500s from
	// recovered handler panics; Errors counts client-visible connection
	// failures (injected resets and accept refusals).
	GoodServed, HogServed, Panics, Errors int
	// Shed, BreakerShed and Refused are the server's three shedding
	// layers: 429s at admission, 503s from open breakers, and
	// connections closed at accept.
	Shed, BreakerShed, Refused uint64
	// HogCPUPct is the hog subtree's share of all CPU charged.
	HogCPUPct float64
	// Engagements and Restores count the watchdog's clamp/tighten cycles
	// and their restores (zero in the undefended cell).
	Engagements, Restores uint64
	// Faults is the injector's schedule as consumed by this cell.
	Faults fault.LiveStats
	// Elapsed is the virtual time the run consumed.
	Elapsed time.Duration
}

// LiveChaosResult is the livechaos experiment's outcome.
type LiveChaosResult struct {
	// Cells hold the undefended and defended runs, in that order.
	Cells []LiveChaosCell
	// Deterministic reports that the -check double run compared the
	// cells byte-identical (false when the gate did not run).
	Deterministic bool
}

// Table renders the deterministic cells.
func (r *LiveChaosResult) Table() *metrics.Table {
	t := metrics.NewTable(
		"Live chaos: governed net/http under faults, watchdog+breakers closed loop",
		"config", "good req/s", "hog req/s", "shed 429", "breaker 503", "refused", "panics", "wd engaged", "wd restored")
	for _, c := range r.Cells {
		t.AddRow(c.Config, c.GoodRate, c.HogRate, int(c.Shed), int(c.BreakerShed), int(c.Refused),
			c.Panics, int(c.Engagements), int(c.Restores))
	}
	return t
}

// LiveChaos runs the survivability experiment: a governed live server
// under a seeded fault schedule and a hostile tenant, undefended vs
// defended (monitor + watchdog + breakers), each run ending in a
// graceful drain that must leave nothing in flight. With
// opt.Invariants it additionally re-runs both cells and errors unless
// (1) every cell is byte-identical across the two runs, (2) the
// defended cell's good-tenant goodput strictly exceeds the undefended
// cell's, and (3) every watchdog engagement was restored and the
// journal shows the clamp and the unclamp.
func LiveChaos(opt Options) (*LiveChaosResult, error) {
	p := liveChaosParamsFor(opt)
	res := &LiveChaosResult{}
	run := func() ([]LiveChaosCell, error) {
		var cells []LiveChaosCell
		for _, defended := range []bool{false, true} {
			c, err := runLiveChaosCell(p, defended, opt.Invariants)
			if err != nil {
				return nil, fmt.Errorf("livechaos %s: %w", c.Config, err)
			}
			cells = append(cells, c)
		}
		return cells, nil
	}
	cells, err := run()
	if err != nil {
		return nil, err
	}
	res.Cells = cells
	if !opt.Invariants {
		return res, nil
	}
	again, err := run()
	if err != nil {
		return nil, fmt.Errorf("livechaos re-run: %w", err)
	}
	for i := range cells {
		if cells[i] != again[i] {
			return nil, fmt.Errorf("livechaos nondeterministic: cell %q diverged across identical runs:\n  run1: %+v\n  run2: %+v",
				cells[i].Config, cells[i], again[i])
		}
	}
	res.Deterministic = true
	und, def := cells[0], cells[1]
	if def.GoodRate <= und.GoodRate {
		return nil, fmt.Errorf("defense failed: defended good goodput %.3f req/s does not exceed undefended %.3f req/s",
			def.GoodRate, und.GoodRate)
	}
	if def.Engagements == 0 {
		return nil, fmt.Errorf("watchdog never engaged in the defended cell")
	}
	if def.Restores != def.Engagements {
		return nil, fmt.Errorf("watchdog engaged %d time(s) but restored %d: a clamp was never released",
			def.Engagements, def.Restores)
	}
	return res, nil
}

// runLiveChaosCell boots the governed server on loopback with the
// cell's defenses, drives the hostile and calm phases, then drains. The
// good tenant keeps its connection alive; the hog alternates a
// keep-alive connection (shed at the middleware or breaker) with a
// fresh one per request (refused at accept once the watchdog's tight
// policy engages). The rig's drain audit (zero in-flight, telemetry
// conservation) is checked unconditionally; checkJournal additionally
// requires the watchdog's clamp and unclamp notes in the alert stream.
func runLiveChaosCell(p liveChaosParams, defended, checkJournal bool) (LiveChaosCell, error) {
	cell := LiveChaosCell{Config: "undefended"}
	if defended {
		cell.Config = "defended"
	}
	rig, err := NewLiveRig("livechaos", []LiveTenant{p.good, p.hog})
	if err != nil {
		return cell, err
	}
	hog, boot := rig.Tenants[1], p.boot
	if defended {
		boot.Options = []rcruntime.Option{rcruntime.WithBreakers(rcruntime.BreakerConfig{})}
		boot.Monitor = &rcruntime.MonitorConfig{
			// The hog's refusals arrive split across the shedding layers;
			// criticality at one keep-alive half's worth of 503s+429s per
			// tick keeps the watchdog engaged for the whole hostile phase.
			ShedCrit: float64(p.hog.Requests) / 2,
			Clear:    2,
			Tenants:  []*rc.Container{hog},
		}
		boot.Watchdog = &alert.WatchdogConfig{
			ClampLimit:      0.1,
			BackoffTicks:    4,
			MaxBackoffTicks: 8,
			Clampable:       []*rc.Container{hog},
		}
	}
	if err := rig.Start(boot); err != nil {
		return cell, err
	}
	defer rig.Close()
	elapsed, err := rig.Drive(p.hostileRounds, p.calmRounds, p.think, nil)
	if err != nil {
		return cell, err
	}
	s, leak, sink := rig.Finish(p.grace)
	if leak != "" || sink != "" {
		return cell, fmt.Errorf("audit after drain: leak %q, sink %q", leak, sink)
	}
	all := rig.Total()
	cell.GoodServed, cell.HogServed = int(rig.Ledger(0).Served), int(rig.Ledger(1).Served)
	cell.Panics, cell.Errors = int(all.Panicked), int(all.Refused())
	cell.Shed, cell.BreakerShed, cell.Refused = s.Shed, s.BreakerShed, s.Refused
	cell.HogCPUPct = rig.CPUPct(hog)
	cell.Faults = rig.Faults.Stats()
	cell.Elapsed = elapsed
	if secs := elapsed.Seconds(); secs > 0 {
		cell.GoodRate = float64(cell.GoodServed) / secs
		cell.HogRate = float64(cell.HogServed) / secs
	}
	if wd := rig.Watchdog; wd != nil {
		cell.Engagements, cell.Restores = wd.Engagements(), wd.Restores()
		if msg := rig.Monitor.Alert().SelfCheck(); msg != "" {
			return cell, fmt.Errorf("alert self-check: %s", msg)
		}
		if checkJournal && cell.Engagements > 0 {
			var clamped, unclamped bool
			for _, ev := range rig.Monitor.Alert().Events() {
				if ev.Check == alert.WatchdogCheckName {
					clamped = clamped || strings.Contains(ev.Detail, "clamped runaway")
					unclamped = unclamped || strings.Contains(ev.Detail, "unclamped")
				}
			}
			if !clamped || !unclamped {
				return cell, fmt.Errorf("watchdog journal incomplete: clamp=%t unclamp=%t", clamped, unclamped)
			}
		}
	}
	return cell, nil
}
