package experiments

import (
	"fmt"
	"io"
	"net"
	"net/http"
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
	window        time.Duration
	goodN         int
	goodCost      time.Duration
	hogN          int
	hogCost       time.Duration
	think         time.Duration
	shedCost      time.Duration // virtual client cost of a 429/503
	errCost       time.Duration // virtual client cost of a failed connection
	grace         time.Duration // drain grace at the end
	seed          int64
	faults        fault.LiveConfig
}

func liveChaosParamsFor(opt Options) liveChaosParams {
	p := liveChaosParams{
		hostileRounds: 40,
		calmRounds:    48,
		window:        100 * time.Millisecond,
		goodN:         4,
		goodCost:      2 * time.Millisecond,
		hogN:          16,
		hogCost:       10 * time.Millisecond,
		think:         time.Millisecond,
		shedCost:      200 * time.Microsecond,
		errCost:       50 * time.Microsecond,
		grace:         time.Second,
		seed:          opt.Seed,
		faults: fault.LiveConfig{
			ResetRate:        0.05,
			StallRate:        0.05,
			HandlerStallRate: 0.10,
			HandlerStallFor:  20 * time.Millisecond,
			PanicRate:        0.05,
		},
	}
	if opt.Window != 0 && opt.Window <= 2*sim.Second {
		p.hostileRounds = 8 // -quick; calm stays long enough to restore
		p.calmRounds = 36
	}
	return p
}

// LiveChaosCell is one config's outcome. Every field is a deterministic
// function of the seed; the -check gate asserts the whole cell
// byte-identical across two runs.
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
	// DrainClean reports the end-of-run graceful drain finished with
	// zero in-flight requests.
	DrainClean bool
}

// fingerprint renders every deterministic field; the -check double run
// compares these byte-for-byte.
func (c *LiveChaosCell) fingerprint() string {
	return fmt.Sprintf("%s good=%d hog=%d panics=%d errors=%d shed=%d breaker=%d refused=%d cpu=%.4f wd=%d/%d faults=%v elapsed=%v drain=%t",
		c.Config, c.GoodServed, c.HogServed, c.Panics, c.Errors, c.Shed, c.BreakerShed, c.Refused,
		c.HogCPUPct, c.Engagements, c.Restores, c.Faults, c.Elapsed, c.DrainClean)
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
// graceful drain. With opt.Invariants it additionally re-runs both
// cells and errors unless (1) every cell is byte-identical across the
// two runs, (2) the defended cell's good-tenant goodput strictly
// exceeds the undefended cell's, (3) every watchdog engagement was
// restored and the journal shows the clamp and the unclamp, and
// (4) both drains finished clean.
func LiveChaos(opt Options) (*LiveChaosResult, error) {
	p := liveChaosParamsFor(opt)
	res := &LiveChaosResult{}
	run := func() ([]LiveChaosCell, error) {
		var cells []LiveChaosCell
		for _, cfg := range []struct {
			name     string
			defended bool
		}{{"undefended", false}, {"defended", true}} {
			c, err := runLiveChaosCell(cfg.name, cfg.defended, p, opt.Invariants)
			if err != nil {
				return nil, fmt.Errorf("livechaos %s: %w", cfg.name, err)
			}
			cells = append(cells, *c)
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
		a, b := cells[i].fingerprint(), again[i].fingerprint()
		if a != b {
			return nil, fmt.Errorf("livechaos nondeterministic: cell %q diverged across identical runs:\n  run1: %s\n  run2: %s",
				cells[i].Config, a, b)
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
	for _, c := range cells {
		if !c.DrainClean {
			return nil, fmt.Errorf("cell %q drain leaked in-flight requests", c.Config)
		}
	}
	return res, nil
}

// runLiveChaosCell boots the governed server with the cell's defenses,
// drives the hostile and calm phases, then drains. Invariants that are
// cheap and always-true (telemetry/stats conservation, zero in-flight
// after drain) are checked unconditionally; checkJournal additionally
// requires the watchdog's clamp and unclamp notes in the alert stream.
func runLiveChaosCell(name string, defended bool, p liveChaosParams, checkJournal bool) (*LiveChaosCell, error) {
	clk := &rcruntime.VirtualClock{}
	inj := fault.NewLive(p.seed, p.faults, clk)
	sink := &rcruntime.TallySink{}

	root := rc.MustNew(nil, rc.FixedShare, "livechaos", rc.Attributes{})
	good := rc.MustNew(root, rc.FixedShare, "good", rc.Attributes{})
	hog := rc.MustNew(root, rc.FixedShare, "hog", rc.Attributes{}) // unlimited: the watchdog must clamp it

	cfg := rcruntime.Config{
		Root:     root,
		Window:   p.window,
		MaxDelay: rcruntime.NoDelay,
	}
	opts := []rcruntime.Option{
		rcruntime.WithClock(clk),
		rcruntime.WithTelemetrySink(sink),
		rcruntime.WithBinder(rcruntime.HeaderBinder("X-RC-Tenant",
			map[string]*rc.Container{"good": good, "hog": hog}, nil)),
	}
	if defended {
		opts = append(opts, rcruntime.WithBreakers(rcruntime.BreakerConfig{}))
	}
	rt, err := rcruntime.NewRuntime(cfg, opts...)
	if err != nil {
		return nil, err
	}

	var mon *rcruntime.Monitor
	var wd *alert.Watchdog
	if defended {
		am := alert.New()
		am.SetRun(p.seed, "livechaos", sim.Duration(p.window))
		mon, err = rcruntime.AttachMonitor(rt, am, rcruntime.MonitorConfig{
			// The hog's refusals arrive split across the shedding layers;
			// criticality at one keep-alive half's worth of 503s+429s per
			// tick keeps the watchdog engaged for the whole hostile phase.
			ShedCrit: float64(p.hogN) / 2,
			Clear:    2,
			Tenants:  []*rc.Container{hog},
		})
		if err != nil {
			return nil, err
		}
		wd = rcruntime.AttachWatchdog(mon, alert.WatchdogConfig{
			ClampLimit:      0.1,
			BackoffTicks:    4,
			MaxBackoffTicks: 8,
			Clampable:       []*rc.Container{hog},
		})
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/work", func(w http.ResponseWriter, r *http.Request) {
		cost, err := time.ParseDuration(r.Header.Get("X-Cost"))
		if err == nil && cost > 0 {
			clk.Sleep(cost) // burn virtual CPU
		}
		_, _ = io.WriteString(w, "ok\n")
	})
	handler := rt.Middleware(inj.Middleware(mux))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(rt.Listener(inj.Listener(ln)))
	}()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	base := "http://" + ln.Addr().String() + "/work"

	// Good tenant: keep-alive (established work). Hog: half keep-alive
	// (shed at the middleware / breaker), half reconnecting (refused at
	// accept once the watchdog's tight policy engages).
	goodClient := &http.Client{Transport: &http.Transport{}}
	hogKA := &http.Client{Transport: &http.Transport{}}
	hogNKA := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	defer goodClient.CloseIdleConnections()
	defer hogKA.CloseIdleConnections()

	cell := &LiveChaosCell{Config: name}
	issue := func(client *http.Client, tenant string, cost time.Duration) error {
		req, err := http.NewRequest("GET", base, nil)
		if err != nil {
			return err
		}
		req.Header.Set("X-RC-Tenant", tenant)
		req.Header.Set("X-Cost", cost.String())
		resp, err := client.Do(req)
		if err != nil {
			// Injected reset or accept refusal: the connection died before
			// a response.
			cell.Errors++
			clk.Sleep(p.errCost)
			return nil
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			if tenant == "good" {
				cell.GoodServed++
			} else {
				cell.HogServed++
			}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			clk.Sleep(p.shedCost)
		case http.StatusInternalServerError:
			cell.Panics++
		default:
			return fmt.Errorf("unexpected status %d", resp.StatusCode)
		}
		return nil
	}

	start := clk.Now()
	round := func(hostile bool) error {
		for i := 0; i < p.goodN; i++ {
			if err := issue(goodClient, "good", p.goodCost); err != nil {
				return err
			}
		}
		if hostile {
			for i := 0; i < p.hogN; i++ {
				client := hogKA
				if i%2 == 1 {
					client = hogNKA
				}
				if err := issue(client, "hog", p.hogCost); err != nil {
					return err
				}
			}
		}
		clk.Sleep(p.think)
		if mon != nil {
			mon.Tick()
		}
		return nil
	}
	for r := 0; r < p.hostileRounds; r++ {
		if err := round(true); err != nil {
			return nil, err
		}
	}
	for r := 0; r < p.calmRounds; r++ {
		if err := round(false); err != nil {
			return nil, err
		}
	}
	cell.Elapsed = clk.Now().Sub(start)

	rep, err := rt.Shutdown(p.grace)
	if err != nil {
		return nil, err
	}
	cell.DrainClean = rep.Clean && rep.LeakedRequests == 0

	s := rt.Stats()
	if s.InflightRequests != 0 {
		return nil, fmt.Errorf("in-flight request leak after drain: %d", s.InflightRequests)
	}
	if m := sink.Mismatch(s); m != "" {
		return nil, fmt.Errorf("stats conservation violated: sink %s", m)
	}

	cell.Shed, cell.BreakerShed, cell.Refused = s.Shed, s.BreakerShed, s.Refused
	cell.Faults = inj.Stats()
	secs := cell.Elapsed.Seconds()
	if secs > 0 {
		cell.GoodRate = float64(cell.GoodServed) / secs
		cell.HogRate = float64(cell.HogServed) / secs
	}
	rt.Enforcer().Sync(func() {
		if total := root.Usage().CPU(); total > 0 {
			cell.HogCPUPct = 100 * float64(hog.Usage().CPU()) / float64(total)
		}
	})
	if wd != nil {
		cell.Engagements, cell.Restores = wd.Engagements(), wd.Restores()
		if msg := mon.Alert().SelfCheck(); msg != "" {
			return nil, fmt.Errorf("alert self-check: %s", msg)
		}
		if checkJournal && cell.Engagements > 0 {
			var clamped, unclamped bool
			for _, ev := range mon.Alert().Events() {
				if ev.Check != alert.WatchdogCheckName {
					continue
				}
				if strings.Contains(ev.Detail, "clamped runaway") {
					clamped = true
				}
				if strings.Contains(ev.Detail, "unclamped") {
					unclamped = true
				}
			}
			if !clamped || !unclamped {
				return nil, fmt.Errorf("watchdog journal incomplete: clamp=%t unclamp=%t", clamped, unclamped)
			}
		}
	}
	return cell, nil
}
