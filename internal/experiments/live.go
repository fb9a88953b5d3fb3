package experiments

import (
	"fmt"
	"io"
	"net"
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

// liveParams are the knobs of one live cell.
type liveParams struct {
	rounds     int
	window     time.Duration
	goodN      int           // well-behaved closed-loop clients
	goodCost   time.Duration // per-request handler cost
	floodN     int           // flood clients
	floodCost  time.Duration
	floodLimit float64       // flood subtree Limit when policed (0 = unpoliced)
	think      time.Duration // per-round idle advance
	shedCost   time.Duration // virtual cost of a 429 (parse + middleware, no handler)
	refuseCost time.Duration // virtual cost of a connection refused at accept
}

func liveParamsFor(opt Options) liveParams {
	p := liveParams{
		rounds:     50,
		window:     100 * time.Millisecond,
		goodN:      4,
		goodCost:   2 * time.Millisecond,
		floodN:     16,
		floodCost:  10 * time.Millisecond,
		floodLimit: 0.1,
		think:      time.Millisecond,
		shedCost:   200 * time.Microsecond,
		refuseCost: 50 * time.Microsecond,
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
	unpoliced := p
	unpoliced.floodLimit = 0
	for _, cell := range []struct {
		name string
		p    liveParams
	}{{"unpoliced", unpoliced}, {"policed", p}} {
		c, err := runLiveCell(cell.name, cell.p)
		if err != nil {
			return nil, fmt.Errorf("live %s: %w", cell.name, err)
		}
		res.Cells = append(res.Cells, *c)
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

// runLiveCell boots the governed server and drives the closed-loop load
// generator for p.rounds rounds of sequential, fixed-order requests.
func runLiveCell(name string, p liveParams) (*LiveCell, error) {
	clk := &rcruntime.VirtualClock{}
	root := rc.MustNew(nil, rc.FixedShare, "live", rc.Attributes{})
	good := rc.MustNew(root, rc.FixedShare, "good", rc.Attributes{})
	flood := rc.MustNew(root, rc.FixedShare, "flood", rc.Attributes{Limit: p.floodLimit})

	cfg := rcruntime.Config{
		Root:     root,
		Window:   p.window,
		MaxDelay: rcruntime.NoDelay, // shed, don't block: the load is closed-loop
	}
	policed := p.floodLimit > 0
	if policed {
		// Refuse the flood's reconnects at accept while its subtree is
		// over budget — new work shed for the cost of a close(2), while
		// the good tenant's established connection keeps serving.
		cfg.Policy = rcruntime.AcceptPolicy{Enabled: true, OverBudgetOf: flood}
	}
	rt, err := rcruntime.NewRuntime(cfg,
		rcruntime.WithClock(clk),
		rcruntime.WithBinder(rcruntime.HeaderBinder("X-RC-Tenant",
			map[string]*rc.Container{"good": good, "flood": flood}, nil)))
	if err != nil {
		return nil, err
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/work", func(w http.ResponseWriter, r *http.Request) {
		cost, err := time.ParseDuration(r.Header.Get("X-Cost"))
		if err == nil && cost > 0 {
			clk.Sleep(cost) // burn virtual CPU
		}
		_, _ = io.WriteString(w, "ok\n")
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: rt.Middleware(mux)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(rt.Listener(ln))
	}()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	base := "http://" + ln.Addr().String() + "/work"

	// The good tenant keeps its connections alive (established work).
	// Half the flood clients hold an established connection too — their
	// over-budget requests are shed by the middleware (429, after the
	// request is parsed); the other half reconnect for every request
	// (new work) and are refused at accept, before a byte is read — the
	// two shedding layers of the paper's defense, both exercised.
	goodClient := &http.Client{Transport: &http.Transport{}}
	floodKA := &http.Client{Transport: &http.Transport{}}
	floodNKA := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	defer goodClient.CloseIdleConnections()
	defer floodKA.CloseIdleConnections()

	cell := &LiveCell{Config: name}
	issue := func(client *http.Client, tenant string, cost time.Duration) error {
		req, err := http.NewRequest("GET", base, nil)
		if err != nil {
			return err
		}
		req.Header.Set("X-RC-Tenant", tenant)
		req.Header.Set("X-Cost", cost.String())
		resp, err := client.Do(req)
		if err != nil {
			// Connection refused at accept: the policed listener closed
			// it before a byte of the request was processed.
			cell.Refused++
			clk.Sleep(p.refuseCost)
			return nil
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			if tenant == "good" {
				cell.GoodServed++
			} else {
				cell.FloodServed++
			}
		case http.StatusTooManyRequests:
			cell.Shed++
			clk.Sleep(p.shedCost)
		default:
			return fmt.Errorf("unexpected status %d", resp.StatusCode)
		}
		return nil
	}

	start := clk.Now()
	for round := 0; round < p.rounds; round++ {
		for i := 0; i < p.goodN; i++ {
			if err := issue(goodClient, "good", p.goodCost); err != nil {
				return nil, err
			}
		}
		for i := 0; i < p.floodN; i++ {
			client := floodKA
			if i%2 == 1 {
				client = floodNKA
			}
			if err := issue(client, "flood", p.floodCost); err != nil {
				return nil, err
			}
		}
		clk.Sleep(p.think)
	}
	cell.Elapsed = clk.Now().Sub(start)
	secs := cell.Elapsed.Seconds()
	if secs > 0 {
		cell.GoodRate = float64(cell.GoodServed) / secs
		cell.FloodRate = float64(cell.FloodServed) / secs
	}
	if total := root.Usage().CPU(); total > 0 {
		cell.FloodCPUPct = 100 * float64(flood.Usage().CPU()) / float64(total)
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
