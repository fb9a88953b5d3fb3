package experiments

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"rescon/internal/metrics"
	"rescon/internal/rc"
	"rescon/internal/rcruntime"
	"rescon/internal/sim"
)

// The live experiment is the real-runtime bridge: the same isolation
// story as the simulator's policed-vs-unpoliced ablations, reproduced on
// a *real* net/http server over a loopback listener, governed by
// rcruntime.Runtime. Time is virtual — an rcruntime.VirtualClock is
// injected into the runtime and the closed-loop load generator,
// handlers "burn" CPU by advancing it, and requests are issued
// sequentially in a fixed order — so goodput numbers are bit-identical run to run even though every
// request crosses a real TCP connection and the real net/http stack.
// Only the per-request accounting-overhead microbenchmark uses the wall
// clock (and varies run to run, exactly like Table 1's cost column).

// liveParams are the knobs of the live experiment.
type liveParams struct {
	rounds      int
	think       time.Duration // per-round idle advance
	floodLimit  float64       // flood subtree Limit when policed
	good, flood LiveTenant
	boot        LiveBoot
}

func liveParamsFor(opt Options) liveParams {
	p := liveParams{
		rounds:     50,
		think:      time.Millisecond,
		floodLimit: 0.1,
		good:       LiveTenant{Name: "good", Requests: 4, Cost: 2 * time.Millisecond, Calm: true},
		flood:      LiveTenant{Name: "flood", Requests: 16, Cost: 10 * time.Millisecond},
		boot: LiveBoot{
			Window:   100 * time.Millisecond,
			Loopback: true,
		},
	}
	if opt.Window != 0 && opt.Window <= 2*sim.Second {
		p.rounds = 12 // -quick
	}
	return p
}

// LiveCell is one config's outcome: goodput in requests per *virtual*
// second, per-tenant accounting, and the shed/refused tallies.
type LiveCell struct {
	// Config names the cell (policed / unpoliced).
	Config string
	// GoodRate and FloodRate are served requests per virtual second.
	GoodRate, FloodRate float64
	// GoodServed/FloodServed/Shed/Refused count request fates across the
	// run: completed per tenant, 429s at the middleware, and connections
	// refused at accept.
	GoodServed, FloodServed, Shed, Refused int
	// FloodCPUPct is the flood subtree's share of all CPU charged to the
	// hierarchy, in percent — what the books say the flood cost.
	FloodCPUPct float64
	// Elapsed is the virtual time the run consumed.
	Elapsed time.Duration
}

// LiveResult is the live experiment's outcome.
type LiveResult struct {
	// Cells hold the unpoliced and policed runs, in that order.
	Cells []LiveCell
	// OverheadNs is the measured per-request overhead of the governed
	// path (binder + admission + accounting) over a bare handler, in
	// wall-clock nanoseconds — the Table-1 cost story for the bridge.
	// Non-deterministic (real clock), like Table 1's cost column.
	OverheadNs float64
}

// Table renders the deterministic goodput cells.
func (r *LiveResult) Table() *metrics.Table {
	t := metrics.NewTable(
		"Live bridge: real net/http over loopback, virtual-time lockstep",
		"config", "good req/s", "flood req/s", "flood CPU %", "shed 429", "refused accepts")
	for _, c := range r.Cells {
		t.AddRow(c.Config, c.GoodRate, c.FloodRate, c.FloodCPUPct, c.Shed, c.Refused)
	}
	return t
}

// Live runs the real-runtime bridge experiment: a live net/http server
// on a loopback listener, governed by rcruntime, under a well-behaved
// tenant plus a flood tenant — once unpoliced, once policed (flood
// subtree limited, over-budget accepts refused). With opt.Invariants it
// returns an error unless the policed run's well-behaved goodput
// strictly exceeds the unpoliced run's.
func Live(opt Options) (*LiveResult, error) {
	p := liveParamsFor(opt)
	res := &LiveResult{}
	for _, policed := range []bool{false, true} {
		c, err := runLiveCell(p, policed)
		if err != nil {
			return nil, fmt.Errorf("live %s: %w", c.Config, err)
		}
		res.Cells = append(res.Cells, c)
	}
	res.OverheadNs = measureLiveOverheadNs()
	if opt.Invariants {
		up, pol := res.Cells[0], res.Cells[1]
		if pol.GoodRate <= up.GoodRate {
			return nil, fmt.Errorf("isolation failed: policed good goodput %.3f req/s does not exceed unpoliced %.3f req/s",
				pol.GoodRate, up.GoodRate)
		}
	}
	return res, nil
}

// runLiveCell boots the governed server on loopback and drives the
// closed-loop load generator for p.rounds rounds of sequential,
// fixed-order requests. The good tenant keeps its connection alive
// (established work). Half the flood's requests ride an established
// connection too — shed by the middleware (429, after the request is
// parsed); the other half reconnect for every request (new work) and
// are refused at accept, before a byte is read — the two shedding
// layers of the paper's defense, both exercised.
func runLiveCell(p liveParams, policed bool) (LiveCell, error) {
	cell, flood, boot := LiveCell{Config: "unpoliced"}, p.flood, p.boot
	if policed {
		cell.Config, flood.Limit = "policed", p.floodLimit
	}
	rig, err := NewLiveRig("live", []LiveTenant{p.good, flood})
	if err != nil {
		return cell, err
	}
	if policed {
		// Refuse the flood's reconnects at accept while its subtree is
		// over budget — new work shed for the cost of a close(2), while
		// the good tenant's established connection keeps serving.
		boot.Policy = rcruntime.AcceptPolicy{Enabled: true, OverBudgetOf: rig.Tenants[1]}
	}
	if err := rig.Start(boot); err != nil {
		return cell, err
	}
	defer rig.Close()
	elapsed, err := rig.Drive(p.rounds, 0, p.think, nil)
	if err != nil {
		return cell, err
	}
	if _, leak, sink := rig.Finish(0); leak != "" || sink != "" {
		return cell, fmt.Errorf("audit after drain: leak %q, sink %q", leak, sink)
	}
	all := rig.Total()
	cell.GoodServed, cell.FloodServed = int(rig.Ledger(0).Served), int(rig.Ledger(1).Served)
	cell.Shed, cell.Refused = int(all.Shed), int(all.Refused())
	cell.FloodCPUPct = rig.CPUPct(rig.Tenants[1])
	cell.Elapsed = elapsed
	if secs := elapsed.Seconds(); secs > 0 {
		cell.GoodRate = float64(cell.GoodServed) / secs
		cell.FloodRate = float64(cell.FloodServed) / secs
	}
	return cell, nil
}

// measureLiveOverheadNs times the governed handler path (binder +
// admission + per-request accounting on the wall clock) against the bare
// handler and returns the per-request difference in nanoseconds — the
// bridge's analogue of Table 1's primitive costs.
func measureLiveOverheadNs() float64 {
	root := rc.MustNew(nil, rc.FixedShare, "bench", rc.Attributes{})
	rt := rcruntime.MustNewRuntime(rcruntime.Config{Root: root})
	bare := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	governed := rt.Middleware(bare)
	req := httptest.NewRequest("GET", "/", nil)

	const iters = 20000
	run := func(h http.Handler) float64 {
		for i := 0; i < iters/10; i++ { // warmup
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
		return float64(time.Since(start).Nanoseconds()) / iters
	}
	bareNs := run(bare)
	governedNs := run(governed)
	d := governedNs - bareNs
	if d < 0 {
		d = 0 // timer noise on a loaded machine
	}
	return d
}
