package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rescon"
)

// The live workload: a real net/http server on loopback, governed by the
// runtime bridge. The good tenant is an open-loop Poisson client on one
// keep-alive connection that climbs a ladder of fixed rates; the flood
// is paced connection-per-request traffic spread over a group of limited
// leaf tenants. Both generators live in this process, with at most two
// client connections open at once.

// rung is one step of the good tenant's rate ladder.
type rung struct {
	name string
	rate float64 // requests per second
	// windows is how many latency windows the rung runs in each cycle.
	windows int
}

type liveParams struct {
	leaves     int
	groupLimit float64 // CPU limit of the flood tenants' group
	leafLimit  float64 // CPU limit of each leaf tenant
	window     time.Duration
	maxDelay   time.Duration
	burn       time.Duration // CPU one flood request burns in its handler
	floodRate  float64       // flood connections per second
	// The good tenant's measurement runs in cycles, as many as fit in
	// the budget: each climbs the whole ladder and then runs the
	// closed-loop capacity probe that gives req_per_wall_s. The host's
	// speed wanders from one second to the next, so interleaving every
	// figure's windows over the whole run and taking medians across them
	// keeps a slow stretch from landing on one figure alone.
	ladder []rung
	// windowSamples sizes a rung's latency window: it lasts as long as
	// this many requests take at the rung's rate, enough for a p99 with
	// minBeyond samples beyond it. Percentiles are taken per window and
	// reported as the median across a rung's windows.
	windowSamples float64
	// capacity is the closed-loop probe's length per cycle, in windows of
	// capWin; req_per_wall_s is the median of the windows' rates.
	capacity, capWin time.Duration
	// latencyLimit is the good tenant's p99 target: live.max_rps is the
	// highest rung that meets it without a growing backlog.
	latencyLimit time.Duration
	setups       int
	// shareSlack is how far over its limit the group's charged CPU share
	// may run: a request admitted just under budget still runs to the end,
	// so each window can overshoot by about one burn.
	shareSlack float64
	// lateLimit flags a run whose generator woke more than this late at
	// its 99th percentile: its latencies then measure the generator too.
	lateLimit time.Duration
}

func defaultLive() liveParams {
	return liveParams{
		leaves:     300,
		groupLimit: 0.1,
		leafLimit:  0.01,
		window:     20 * time.Millisecond,
		maxDelay:   5 * time.Millisecond,
		burn:       500 * time.Microsecond,
		floodRate:  250,
		ladder: []rung{
			{"light", 1000, 1},
			{"r2000", 2000, 1},
			{"heavy", 4000, 4},
			{"r6000", 6000, 1},
			{"r8000", 8000, 1},
		},
		windowSamples: 1200,
		capacity:      time.Second,
		capWin:        250 * time.Millisecond,
		latencyLimit:  2 * time.Millisecond,
		setups:        5,
		shareSlack:    0.025,
		lateLimit:     2 * time.Millisecond,
	}
}

const goodBody = "ok\n"
const floodBody = "burned\n"

// asLoadgen runs fn on the calling goroutine under the profiler label
// role=loadgen; goroutines it starts inherit the label. The CPU table
// then keeps the generators' cost, including the client side of every
// connection, apart from the server's.
func asLoadgen(fn func()) {
	pprof.Do(context.Background(), pprof.Labels("role", loadgenLabel), func(context.Context) { fn() })
}

// spanKey carries the wrapper span's ID from the benchmark's outer
// wrapper through the runtime middleware to the binder and handler.
type spanKey struct{}

// liveServer is one booted, governed server and its hierarchy.
type liveServer struct {
	p      liveParams
	rt     *rescon.Runtime
	root   *rescon.Container
	good   *rescon.Container
	group  *rescon.Container
	leaves []*rescon.Container
	names  []string
	mon    *rescon.RuntimeMonitor
	wd     *rescon.RuntimeWatchdog
	srv    *http.Server
	addr   string
	served chan struct{}

	// rec records spans while tracing is on; it is nil on untraced runs.
	rec     *recorder
	tracing atomic.Bool
	fail500 atomic.Bool  // planted fault: the next good request answers 500
	stall   atomic.Int64 // test hook: the next good request sleeps this many ns

	// Server-side timings of traced runs.
	sinkMu sync.Mutex
	delays []float64 // flood admission delays (ms)
	bindMu sync.Mutex
	bindNs []float64
	wrapMu sync.Mutex
	// Per good request id: wrapper, handler and client-side durations.
	wrapDur, handDur, clientDur map[uint64]time.Duration
}

// RecordRequest implements the runtime's telemetry sink; attached only
// on traced runs, it keeps the flood's admission delays.
func (s *liveServer) RecordRequest(ev rescon.RequestEvent) {
	if !s.tracing.Load() || ev.Container == s.good.Name() {
		return
	}
	s.sinkMu.Lock()
	s.delays = append(s.delays, float64(ev.Delay)/1e6)
	s.sinkMu.Unlock()
}

// timedBinder wraps the tenant binder to time every Bind on traced runs.
type timedBinder struct {
	s     *liveServer
	inner rescon.Binder
}

func (b timedBinder) Bind(r *http.Request) *rescon.Container {
	if !b.s.tracing.Load() {
		return b.inner.Bind(r)
	}
	rec := b.s.rec
	t0 := rec.now()
	c := b.inner.Bind(r)
	t1 := rec.now()
	parent, _ := r.Context().Value(spanKey{}).(uint64)
	rec.add("rcruntime.Binder", parent, reqID(r), t0, t1)
	b.s.bindMu.Lock()
	b.s.bindNs = append(b.s.bindNs, float64(t1-t0))
	b.s.bindMu.Unlock()
	return c
}

func reqID(r *http.Request) uint64 {
	id, _ := strconv.ParseUint(r.Header.Get("X-Req"), 10, 64)
	return id
}

// burnCPU spins for d of wall time, yielding every 50 µs so the
// in-process load generators are not held off the CPU for a whole burn.
func burnCPU(d time.Duration) {
	end := time.Now().Add(d)
	next := time.Now().Add(50 * time.Microsecond)
	for {
		now := time.Now()
		if !now.Before(end) {
			return
		}
		if now.After(next) {
			runtime.Gosched()
			next = now.Add(50 * time.Microsecond)
		}
	}
}

// bootLive builds the hierarchy and runtime and starts serving on a
// loopback port.
func bootLive(p liveParams, faults plantedFaults, rec *recorder) (*liveServer, error) {
	s := &liveServer{p: p, rec: rec, served: make(chan struct{}),
		wrapDur: map[uint64]time.Duration{}, handDur: map[uint64]time.Duration{}, clientDur: map[uint64]time.Duration{}}
	setup := rec.reserve()
	t0 := rec.now()
	phase := func(name string, fn func() error) error {
		st := rec.now()
		err := fn()
		rec.add(name, setup, 0, st, rec.now())
		return err
	}
	groupLimit, leafLimit := p.groupLimit, p.leafLimit
	if faults.unlimitFlood {
		groupLimit, leafLimit = 0, 0
	}
	err := phase("setup.hierarchy", func() error {
		var err error
		if s.root, err = rescon.NewContainer(nil, rescon.FixedShare, "live", rescon.Attributes{}); err != nil {
			return err
		}
		if s.good, err = rescon.NewContainer(s.root, rescon.FixedShare, "good", rescon.Attributes{}); err != nil {
			return err
		}
		if s.group, err = rescon.NewContainer(s.root, rescon.FixedShare, "tenants", rescon.Attributes{Limit: groupLimit}); err != nil {
			return err
		}
		for i := 0; i < p.leaves; i++ {
			name := fmt.Sprintf("t%03d", i)
			c, err := rescon.NewContainer(s.group, rescon.FixedShare, name, rescon.Attributes{Limit: leafLimit})
			if err != nil {
				return err
			}
			s.leaves = append(s.leaves, c)
			s.names = append(s.names, name)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("live hierarchy: %w", err)
	}
	err = phase("setup.runtime", func() error {
		tenants := map[string]*rescon.Container{"good": s.good}
		for i, c := range s.leaves {
			tenants[s.names[i]] = c
		}
		var err error
		s.rt, err = rescon.NewRuntime(rescon.RuntimeConfig{
			Root:     s.root,
			Window:   p.window,
			MaxDelay: p.maxDelay,
			Policy:   rescon.AcceptPolicy{Enabled: true, OverBudgetOf: s.group},
		},
			rescon.WithBinder(timedBinder{s: s, inner: rescon.HeaderBinder("X-Tenant", tenants, nil)}),
			rescon.WithTelemetrySink(s))
		if err != nil {
			return err
		}
		s.mon, err = rescon.AttachRuntimeMonitor(s.rt, rescon.NewAlertMonitor(),
			rescon.RuntimeMonitorConfig{Tenants: []*rescon.Container{s.good, s.group}})
		if err != nil {
			return err
		}
		s.wd = rescon.AttachRuntimeWatchdog(s.mon, rescon.RuntimeWatchdogConfig{Clampable: []*rescon.Container{s.group}})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("live runtime: %w", err)
	}
	err = phase("setup.server", func() error {
		mux := http.NewServeMux()
		mux.HandleFunc("/good", func(w http.ResponseWriter, r *http.Request) {
			defer s.handlerSpan(r, rec.now(), true)
			if d := s.stall.Swap(0); d > 0 {
				time.Sleep(time.Duration(d))
			}
			if s.fail500.CompareAndSwap(true, false) {
				http.Error(w, "planted fault", http.StatusInternalServerError)
				return
			}
			_, _ = io.WriteString(w, goodBody)
		})
		mux.HandleFunc("/flood", func(w http.ResponseWriter, r *http.Request) {
			defer s.handlerSpan(r, rec.now(), false)
			burnCPU(p.burn)
			_, _ = io.WriteString(w, floodBody)
		})
		governed := s.rt.Middleware(mux)
		outer := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !s.tracing.Load() {
				governed.ServeHTTP(w, r)
				return
			}
			id := rec.reserve()
			parent, _ := strconv.ParseUint(r.Header.Get("X-Span"), 10, 64)
			st := rec.now()
			governed.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
			end := rec.now()
			rid := reqID(r)
			rec.finish(id, "server.wrapper", parent, rid, st, end)
			if r.URL.Path == "/good" {
				s.wrapMu.Lock()
				s.wrapDur[rid] = end - st
				s.wrapMu.Unlock()
			}
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.addr = ln.Addr().String()
		s.srv = &http.Server{Handler: outer}
		go func() {
			defer close(s.served)
			_ = s.srv.Serve(s.rt.Listener(ln))
		}()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("live server: %w", err)
	}
	rec.finish(setup, "setup", 0, 0, t0, rec.now())
	return s, nil
}

// stallNext makes the next good request take at least d in its handler.
func (s *liveServer) stallNext(d time.Duration) { s.stall.Store(int64(d)) }

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// handlerSpan records a handler span under the wrapper span on traced
// runs, and the good handler's duration for the middleware self time.
func (s *liveServer) handlerSpan(r *http.Request, start time.Duration, good bool) {
	if !s.tracing.Load() {
		return
	}
	end := s.rec.now()
	parent, _ := r.Context().Value(spanKey{}).(uint64)
	name := "handler.flood"
	if good {
		name = "handler.good"
	}
	rid := reqID(r)
	s.rec.add(name, parent, rid, start, end)
	if good {
		s.wrapMu.Lock()
		s.handDur[rid] = end - start
		s.wrapMu.Unlock()
	}
}

// close drains the runtime, closes the server and waits for it to stop.
func (s *liveServer) close(grace time.Duration) rescon.DrainReport {
	rep := s.rt.Drain(grace)
	_ = s.srv.Close()
	<-s.served
	return rep
}

// goodClient is the good tenant's generator state: one keep-alive
// connection, requests strictly one after another.
type goodClient struct {
	s      *liveServer
	client *http.Client
	url    string
	dials  atomic.Int64
	seq    uint64

	attempted, failed int64
	codes             map[int]int64
	firstErr          string
}

func newGoodClient(s *liveServer) *goodClient {
	g := &goodClient{s: s, url: "http://" + s.addr + "/good", codes: map[int]int64{}}
	d := &net.Dialer{}
	g.client = &http.Client{
		Timeout: 5 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				g.dials.Add(1)
				return d.DialContext(ctx, network, addr)
			},
		},
	}
	return g
}

// do issues one good request and reports whether it succeeded.
func (g *goodClient) do() bool {
	g.seq++
	id := g.seq
	rec := g.s.rec
	tracing := g.s.tracing.Load()
	var spanID uint64
	var t0 time.Duration
	if tracing {
		spanID = rec.reserve()
		t0 = rec.now()
	}
	req, err := http.NewRequest(http.MethodGet, g.url, nil)
	if err != nil {
		g.fail("request: " + err.Error())
		return false
	}
	req.Header.Set("X-Tenant", "good")
	req.Header.Set("X-Req", strconv.FormatUint(id, 10))
	if tracing {
		req.Header.Set("X-Span", strconv.FormatUint(spanID, 10))
	}
	g.attempted++
	resp, err := g.client.Do(req)
	if err != nil {
		g.fail("transport: " + err.Error())
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if tracing {
		t1 := rec.now()
		rec.finish(spanID, "client.good", 0, id, t0, t1)
		g.s.wrapMu.Lock()
		g.s.clientDur[id] = t1 - t0
		g.s.wrapMu.Unlock()
	}
	g.codes[resp.StatusCode]++
	switch {
	case err != nil:
		g.fail("body: " + err.Error())
		return false
	case resp.StatusCode != http.StatusOK:
		g.fail(fmt.Sprintf("status %d", resp.StatusCode))
		return false
	case string(body) != goodBody:
		g.fail(fmt.Sprintf("body %q", body))
		return false
	}
	return true
}

func (g *goodClient) fail(msg string) {
	g.failed++
	if g.firstErr == "" {
		g.firstErr = msg
	}
}

// rungResult is one ladder rung's good-tenant outcome.
type rungResult struct {
	r       rung
	windows [][]float64 // latency from due time (ms), per window of due time
	late    []float64   // generator wake lateness (ms)
	sent    int
	due     int           // requests that fell due during the rung
	backlog time.Duration // the longest of any stretch
	p50     pctResult
	p99     pctResult
	ok      bool // p99 within the limit and no growing backlog
}

// merge adds another stretch of the same rung.
func (rr *rungResult) merge(o *rungResult) {
	rr.windows = append(rr.windows, o.windows...)
	rr.late = append(rr.late, o.late...)
	rr.sent += o.sent
	rr.due += o.due
	if o.backlog > rr.backlog {
		rr.backlog = o.backlog
	}
}

// waitUntil blocks until t: a coarse sleep while t is far off (the
// runtime's timers wake about 1 ms late on an idle box), then a yielding
// spin for the last stretch, so a sub-millisecond schedule is honoured.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 3*time.Millisecond {
			time.Sleep(d - 2500*time.Microsecond)
			continue
		}
		runtime.Gosched()
	}
}

// runRung drives the good tenant open-loop at the rung's rate for dur.
// Arrivals are a seeded Poisson process; each request is timed from when
// it was due, so a stall also charges the requests queued behind it.
// Requests still unsent when the rung ends are the backlog.
func (g *goodClient) runRung(r rung, dur, winLen time.Duration, rng *rand.Rand) *rungResult {
	res := &rungResult{r: r}
	nwin := int((dur + winLen - 1) / winLen)
	res.windows = make([][]float64, nwin)
	start := time.Now()
	end := start.Add(dur)
	rec := g.s.rec
	rs := rec.now()
	due := start
	prevDone := start
	for {
		due = due.Add(time.Duration(rng.ExpFloat64() / r.rate * float64(time.Second)))
		if !due.Before(end) {
			break
		}
		res.due++
		if time.Now().After(end) {
			continue // overdue when the rung ended: counted as backlog
		}
		waitUntil(due)
		woke := time.Now()
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		res.late = append(res.late, float64(woke.Sub(ready))/1e6)
		g.do()
		done := time.Now()
		prevDone = done
		res.sent++
		w := int(due.Sub(start) / winLen)
		res.windows[w] = append(res.windows[w], float64(done.Sub(due))/1e6)
	}
	if lag := time.Since(end); res.sent < res.due {
		res.backlog = lag
	}
	rec.add("loadgen.rung."+r.name, 0, 0, rs, rec.now())
	waitUntil(end)
	return res
}

// capacity runs the good tenant closed-loop for dur and adds the
// completion rate of each of its windows to gr. After each window it
// times the echo reference and adds the window's rate scaled by it.
func (g *goodClient) capacity(dur, winLen time.Duration, ref *echo, gr *goodRun) {
	start := time.Now()
	for time.Since(start) < dur {
		w := time.Now()
		n := 0
		wend := w.Add(winLen)
		for time.Now().Before(wend) {
			g.do()
			n++
		}
		rate := float64(n) / time.Since(w).Seconds()
		gr.capRates = append(gr.capRates, rate)
		gr.capN += n
		rtt, err := ref.rtt()
		if err != nil {
			g.fail("echo reference: " + err.Error())
			continue
		}
		gr.refUs = append(gr.refUs, float64(rtt)/1e3)
		gr.scaled = append(gr.scaled, rate*float64(rtt)/float64(echoNominal))
	}
}

// latencyWindow is the length of one of the rung's latency windows.
func (p liveParams) latencyWindow(r rung) time.Duration {
	return time.Duration(p.windowSamples / r.rate * float64(time.Second))
}

// cycleLen is the wall time of one measurement cycle.
func (p liveParams) cycleLen() time.Duration {
	d := p.capacity
	for _, r := range p.ladder {
		d += time.Duration(r.windows) * p.latencyWindow(r)
	}
	return d
}

// goodRun is the good tenant's outcome over a stretch of cycles.
type goodRun struct {
	rungs    []*rungResult // per ladder rung, pooled over the cycles
	capRates []float64     // completion rate of every capacity window
	capN     int
	refUs    []float64 // echo round trip after each capacity window (µs)
	scaled   []float64 // capRates scaled by their echo round trip / echoNominal
}

// cycles runs n measurement cycles: the ladder, then the capacity probe.
func (g *goodClient) cycles(p liveParams, n int, rng *rand.Rand, mem *memSampler, ref *echo) *goodRun {
	gr := &goodRun{}
	for _, r := range p.ladder {
		gr.rungs = append(gr.rungs, &rungResult{r: r})
	}
	for c := 0; c < n; c++ {
		for i, r := range p.ladder {
			win := p.latencyWindow(r)
			gr.rungs[i].merge(g.runRung(r, time.Duration(r.windows)*win, win, rng))
			mem.sample()
		}
		g.capacity(p.capacity, p.capWin, ref, gr)
		mem.cut()
	}
	for _, rr := range gr.rungs {
		rr.p50 = windowPct(rr.windows, 0.5)
		rr.p99 = windowPct(rr.windows, 0.99)
		// A request or two still unsent as a stretch ends is the last
		// arrival's wait, not a backlog that grows.
		rr.ok = float64(rr.due-rr.sent) <= 0.01*float64(rr.due) && rr.p99.Value <= float64(p.latencyLimit)/1e6
	}
	return gr
}

// flood is the attacker: paced connection-per-request traffic over the
// leaf tenants, each visited twice in a row in a seeded order, so the
// second request finds the leaf's budget spent.
type flood struct {
	s     *liveServer
	order []int
	rate  float64

	// attempts is read while the flood runs, to count the measured
	// stretch's requests; the other tallies are read after it stops.
	attempts                     atomic.Int64
	served, shed, refused, other int64
	dialErrs                     int64
	firstErr                     string
}

// one sends a single flood request on a fresh connection.
func (f *flood) one(i int64) {
	leaf := f.s.names[f.order[int(i/2)%len(f.order)]]
	rec := f.s.rec
	tracing := f.s.tracing.Load()
	var spanID uint64
	var t0 time.Duration
	if tracing {
		spanID = rec.reserve()
		t0 = rec.now()
		defer func() { rec.finish(spanID, "client.flood", 0, uint64(i), t0, rec.now()) }()
	}
	f.attempts.Add(1)
	conn, err := net.DialTimeout("tcp", f.s.addr, 2*time.Second)
	if err != nil {
		f.dialErrs++
		if f.firstErr == "" {
			f.firstErr = err.Error()
		}
		return
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	var b bytes.Buffer
	fmt.Fprintf(&b, "GET /flood HTTP/1.1\r\nHost: bench\r\nX-Tenant: %s\r\nX-Req: %d\r\n", leaf, i)
	if tracing {
		fmt.Fprintf(&b, "X-Span: %d\r\n", spanID)
	}
	b.WriteString("Connection: close\r\n\r\n")
	if _, err := conn.Write(b.Bytes()); err != nil {
		f.refused++ // closed at accept before the request was written
		return
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		f.refused++ // closed at accept: no response at all
		return
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK && string(body) == floodBody:
		f.served++
	case resp.StatusCode == http.StatusTooManyRequests:
		f.shed++
	default:
		f.other++
		if f.firstErr == "" {
			f.firstErr = fmt.Sprintf("status %d body %q", resp.StatusCode, body)
		}
	}
}

// run paces flood connections until stop closes. A slot missed while a
// request was in flight is skipped, not made up, so the rate never
// exceeds f.rate: the flood's reconnects are bounded, and back-to-back
// runs cannot exhaust the ephemeral ports held in TIME_WAIT.
func (f *flood) run(stop <-chan struct{}) {
	interval := time.Duration(float64(time.Second) / f.rate)
	next := time.Now()
	for i := int64(0); ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		f.one(i)
		next = next.Add(interval)
		if now := time.Now(); next.Before(now) {
			next = now
		}
		select {
		case <-stop:
			return
		case <-time.After(time.Until(next)):
		}
	}
}

// control is the runtime's control plane as the workload drives it: the
// monitor (and the watchdog it feeds) ticked once per enforcement window,
// and a timed Enforcer.Sync probe every 5 ms measuring how long the
// control plane waits for the enforcer's mutex.
type control struct {
	s        *liveServer
	mem      *memSampler
	tickUs   []float64
	syncUs   []float64
	stop     chan struct{}
	finished chan struct{}
}

func startControl(s *liveServer, mem *memSampler) *control {
	c := &control{s: s, mem: mem, stop: make(chan struct{}), finished: make(chan struct{})}
	go c.loop()
	return c
}

func (c *control) loop() {
	defer close(c.finished)
	const probe = 5 * time.Millisecond
	perTick := int(c.s.p.window / probe)
	t := time.NewTicker(probe)
	defer t.Stop()
	rec := c.s.rec
	enf := c.s.rt.Enforcer()
	for n := 1; ; n++ {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		tracing := c.s.tracing.Load()
		t0 := time.Now()
		s0 := rec.now()
		var waited time.Duration
		enf.Sync(func() { waited = time.Since(t0) })
		if tracing {
			rec.add("rcruntime.Enforcer.Sync", 0, 0, s0, rec.now())
			c.syncUs = append(c.syncUs, float64(waited)/1e3)
		}
		if n%perTick == 0 {
			t1 := time.Now()
			s1 := rec.now()
			c.s.mon.Tick()
			if tracing {
				rec.add("rcruntime.Monitor.Tick", 0, 0, s1, rec.now())
				c.tickUs = append(c.tickUs, float64(time.Since(t1))/1e3)
			}
			c.mem.sample()
		}
	}
}

func (c *control) halt() {
	close(c.stop)
	<-c.finished
}

// liveRun is one booted server with its two generators and control loop.
type liveRun struct {
	s          *liveServer
	good       *goodClient
	fl         *flood
	ctl        *control
	floodStart time.Time
	stop       chan struct{}
	done       chan struct{}
	stopped    bool
}

// startLive boots a server, connects the good tenant, starts the control
// loop and the flood, and warms the path up.
func startLive(p liveParams, cfg runConfig, rng *rand.Rand, mem *memSampler, rec *recorder) (*liveRun, error) {
	s, err := bootLive(p, cfg.faults, rec)
	if err != nil {
		return nil, err
	}
	lr := &liveRun{s: s, good: newGoodClient(s), stop: make(chan struct{}), done: make(chan struct{})}
	lr.fl = &flood{s: s, order: rng.Perm(p.leaves), rate: p.floodRate}
	t0 := rec.now()
	// The good tenant connects before the flood starts, so its one
	// keep-alive connection is never refused at accept.
	var warm bool
	asLoadgen(func() {
		for i := 0; i < 200; i++ {
			if !lr.good.do() {
				return
			}
		}
		warm = true
	})
	if !warm {
		close(lr.done)
		lr.shutdown()
		return nil, fmt.Errorf("live warm-up: good request failed: %s", lr.good.firstErr)
	}
	lr.ctl = startControl(s, mem)
	lr.floodStart = time.Now()
	asLoadgen(func() {
		go func() {
			defer close(lr.done)
			lr.fl.run(lr.stop)
		}()
		for i := 0; i < 300; i++ {
			lr.good.do()
		}
	})
	rec.add("setup.warmup", 0, 0, t0, rec.now())
	mem.sample()
	return lr, nil
}

// shutdown stops the flood and the control loop, then drains the runtime
// and closes the server. Every goroutine the run started has ended when
// it returns.
func (lr *liveRun) shutdown() rescon.DrainReport {
	if lr.stopped {
		return rescon.DrainReport{}
	}
	lr.stopped = true
	close(lr.stop)
	<-lr.done
	if lr.ctl != nil {
		lr.ctl.halt()
	}
	rep := lr.s.close(time.Second)
	lr.good.client.CloseIdleConnections()
	return rep
}

type cpuBooks struct{ root, good, group, leaves time.Duration }

// books reads the hierarchy's charged CPU under the enforcer's lock.
func (s *liveServer) books() cpuBooks {
	var b cpuBooks
	s.rt.Enforcer().Sync(func() {
		b.root = time.Duration(s.root.Usage().CPU())
		b.good = time.Duration(s.good.Usage().CPU())
		b.group = time.Duration(s.group.Usage().CPU())
		for _, c := range s.leaves {
			b.leaves += time.Duration(c.Usage().CPU())
		}
	})
	return b
}

func rungByName(rs []*rungResult, name string) *rungResult {
	for _, r := range rs {
		if r.r.name == name {
			return r
		}
	}
	return &rungResult{}
}

// joinDurations returns a[id]-b[id] in µs for every id present in both.
func joinDurations(a, b map[uint64]time.Duration) []float64 {
	var out []float64
	for id, x := range a {
		if y, ok := b[id]; ok {
			out = append(out, float64(x-y)/1e3)
		}
	}
	return out
}

// checkLive holds the run's outputs to the workload's contract; it
// returns one message per failed check.
func checkLive(p liveParams, lr *liveRun, st rescon.RuntimeStats, books cpuBooks, drain rescon.DrainReport, elapsed time.Duration) []string {
	var out []string
	g, fl := lr.good, lr.fl
	if g.failed > 0 {
		out = append(out, fmt.Sprintf("good tenant: %d of %d requests failed (first: %s)", g.failed, g.attempted, g.firstErr))
	}
	if fl.other > 0 || fl.dialErrs > 0 {
		out = append(out, fmt.Sprintf("flood: %d unexpected responses, %d dial errors (first: %s)", fl.other, fl.dialErrs, fl.firstErr))
	}
	var goodResponses int64
	for _, n := range g.codes {
		goodResponses += n
	}
	if got, want := int64(st.Served+st.Shed), goodResponses+fl.served+fl.shed; got != want {
		out = append(out, fmt.Sprintf("fates: runtime served+shed %d != client-observed responses %d (good %d, flood 200 %d, flood 429 %d)",
			got, want, goodResponses, fl.served, fl.shed))
	}
	if got, want := int64(st.Refused), fl.refused; got != want {
		out = append(out, fmt.Sprintf("fates: runtime refused %d != flood connections closed unanswered %d", got, want))
	}
	if got, want := int64(st.Accepted+st.Refused), fl.attempts.Load()-fl.dialErrs+g.dials.Load(); got != want {
		out = append(out, fmt.Sprintf("fates: runtime accepted+refused %d != client dials %d", got, want))
	}
	if books.root != books.good+books.group {
		out = append(out, fmt.Sprintf("accounting: root CPU %v != good %v + tenant group %v", books.root, books.good, books.group))
	}
	if books.group != books.leaves {
		out = append(out, fmt.Sprintf("accounting: tenant group CPU %v != sum of its leaves %v", books.group, books.leaves))
	}
	if share := float64(books.group) / float64(elapsed); share > p.groupLimit+p.shareSlack {
		out = append(out, fmt.Sprintf("isolation: tenant group charged %.4f of the wall clock, over its limit %.3f + slack %.3f",
			share, p.groupLimit, p.shareSlack))
	}
	if !drain.Clean {
		out = append(out, fmt.Sprintf("drain: %d request(s) still in flight after the grace period", drain.LeakedRequests))
	}
	return out
}

// runLive runs the live workload. It boots the server p.setups times
// (setup_s is the median) and keeps the last. Untraced, it then runs as
// many measurement cycles as fit in the budget. Traced, it runs half of
// them untraced, then turns on spans and the CPU profiler for the other
// half; the two halves' capacity probes give trace_overhead_frac, and the
// good tenant's latencies come from the untraced half. The output checks
// run on every run, over the whole life of the server.
func runLive(p liveParams, cfg runConfig) (*report, error) {
	rep := newReport()
	mem := newMemSampler()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var setups []float64
	var lr *liveRun
	for i := 0; i < p.setups; i++ {
		var r *recorder
		if i == p.setups-1 {
			r = rec
		}
		runtime.GC() // no boot pays for the previous one's garbage
		t0 := time.Now()
		run, err := startLive(p, cfg, newRand(cfg.seed), mem, r)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < p.setups-1 {
			run.shutdown()
			continue
		}
		lr = run
	}
	defer lr.shutdown()
	s, g := lr.s, lr.good
	rng := newRand(cfg.seed + 1)
	if cfg.faults.good500 {
		s.fail500.Store(true)
	}

	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	n := int(budget / p.cycleLen())
	if n < 1 {
		n = 1
	}
	ref, err := startEcho()
	if err != nil {
		return nil, fmt.Errorf("echo reference: %w", err)
	}
	defer ref.close()
	var untraced *goodRun
	var prof bytes.Buffer
	if cfg.trace {
		asLoadgen(func() { untraced = g.cycles(p, n, rng, mem, ref) })
		s.tracing.Store(true)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	att0, flood0 := g.attempted, lr.fl.attempts.Load()
	mark := markAllocs()
	var gr *goodRun
	asLoadgen(func() { gr = g.cycles(p, n, rng, mem, ref) })
	allocs, bytesAlloc, gcs := mark.since()
	reqs := float64(g.attempted - att0 + lr.fl.attempts.Load() - flood0)
	if cfg.trace {
		pprof.StopCPUProfile()
		s.tracing.Store(false)
	}
	peak, stretches := mem.peakMB()
	lat := gr
	if cfg.trace {
		lat = untraced
	}
	rungs := lat.rungs

	drain := lr.shutdown()
	fl := lr.fl
	elapsed := time.Since(lr.floodStart)
	st := s.rt.Stats()
	books := s.books()
	for _, msg := range checkLive(p, lr, st, books, drain, elapsed) {
		rep.problem("%s", msg)
	}
	for _, run := range []*goodRun{untraced, gr} {
		if run == nil {
			continue
		}
		for _, rr := range run.rungs {
			if rr.sent == 0 {
				rep.problem("rung %s sent no request", rr.r.name)
			}
		}
	}
	rep.attempted, rep.failed = g.attempted, g.failed

	heavy, light := rungByName(rungs, "heavy"), rungByName(rungs, "light")
	rep.set("setup_s", median(setups), "median of %d boots (hierarchy of %d leaves, runtime, server, warm-up)", len(setups), p.leaves)
	rep.set("req_per_wall_s", median(lat.scaled), "good tenant closed-loop on one connection beside the flood, each window's rate scaled by the echo round trip after it / %v; median of %d %v windows, %d requests",
		echoNominal, len(lat.scaled), p.capWin, lat.capN)
	rep.set("live.req_per_wall_s_raw", median(lat.capRates), "the same, unscaled")
	rep.set("host.echo_rtt_us", median(lat.refUs), "loopback echo round trip after each capacity window, median of %d", len(lat.refUs))
	rep.set("allocs_per_req", allocs/reqs, "heap objects per request, good and flood, client and server side")
	rep.set("bytes_per_req", bytesAlloc/reqs, "heap bytes per request")
	rep.set("peak_heap_mb", peak, "peak live heap of a cycle (sampled every enforcement window), median of %d cycles", stretches)

	maxRPS := 0.0
	var late []float64
	for _, rr := range rungs {
		tail := highestTail(pooled(rr.windows))
		rep.note("rung %-6s %6.0f req/s: sent %d of %d due; p50 %.3f ms, p%s %.3f ms (median of windows); pooled p%s %.3f ms; backlog %v",
			rr.r.name, rr.r.rate, rr.sent, rr.due, rr.p50.Value, qLabel(rr.p99.Q), rr.p99.Value,
			qLabel(tail.Q), tail.Value, rr.backlog.Round(time.Microsecond))
		if rr.ok && rr.r.rate > maxRPS {
			maxRPS = rr.r.rate
		}
		late = append(late, rr.late...)
	}
	rep.note("flood: %d attempts, %d served, %d shed (429), %d refused at accept; %d admitted after a delay",
		fl.attempts.Load(), fl.served, fl.shed, fl.refused, st.Delayed)
	rep.note("tenant group charged %.4f of the wall clock (limit %.3f); runtime watchdog engaged %d times",
		float64(books.group)/float64(elapsed), p.groupLimit, s.wd.Engagements())

	lateP := pct(late, 0.99)
	rep.note("load generator: p%s wake-up lateness %.3f ms over %d requests", qLabel(lateP.Q), lateP.Value, lateP.N)
	behind := 0.0
	if lateP.Value > float64(p.lateLimit)/1e6 {
		behind = 1
		rep.note("WARNING: the load generator fell behind: p%s wake-up lateness %.3f ms > %v",
			qLabel(lateP.Q), lateP.Value, p.lateLimit)
	}
	for _, rr := range []*rungResult{light, heavy} {
		rep.set("live."+rr.r.name+".p50_ms", rr.p50.Value, "%s rung (%.0f req/s) from due time: median over %d windows of p%s, %d samples",
			rr.r.name, rr.r.rate, len(rr.windows), qLabel(rr.p50.Q), rr.p50.N)
		rep.set("live."+rr.r.name+".p99_ms", rr.p99.Value, "%s rung from due time: median over %d windows of p%s", rr.r.name, len(rr.windows), qLabel(rr.p99.Q))
	}
	rep.set("live.max_rps", maxRPS, "highest rung with p99 <= %v and no growing backlog", p.latencyLimit)
	if !cfg.trace {
		return rep, nil
	}
	rep.set("loadgen.late_ms.p99", lateP.Value, "p%s of %d wake-ups", qLabel(lateP.Q), lateP.N)
	rep.set("loadgen.behind", behind, "")
	rep.set("gc.cycles_per_kreq", 1000*gcs/reqs, "")
	rep.set("error_rate", float64(g.failed)/float64(g.attempted), "")
	rep.set("rcruntime.shed_frac", float64(fl.shed)/float64(fl.attempts.Load()), "flood requests shed with 429")
	rep.set("rcruntime.refuse_frac", float64(fl.refused)/float64(fl.attempts.Load()), "flood connections refused at accept")
	rep.set("rcruntime.watchdog_engagements", float64(s.wd.Engagements()), "")
	mw := joinDurations(s.wrapDur, s.handDur)
	mw50 := pct(mw, 0.5)
	mw99 := pct(mw, 0.99)
	rep.set("rcruntime.mw_self_us.p50", mw50.Value, "wrapper minus handler, %d good requests", mw50.N)
	rep.set("rcruntime.mw_self_us.p99", mw99.Value, "p%s of %d", qLabel(mw99.Q), mw99.N)
	bind := pct(s.bindNs, 0.5)
	rep.set("rcruntime.bind_ns.p50", bind.Value, "%d binds", bind.N)
	ad := pct(s.delays, 0.99)
	rep.set("rcruntime.admit_delay_ms.p99", ad.Value, "p%s of %d flood admissions", qLabel(ad.Q), ad.N)
	tk := pct(lr.ctl.tickUs, 0.99)
	rep.set("rcruntime.tick_us.p99", tk.Value, "p%s of %d monitor ticks", qLabel(tk.Q), tk.N)
	sw := pct(lr.ctl.syncUs, 0.99)
	rep.set("rcruntime.sync_wait_us.p99", sw.Value, "p%s of %d Sync probes", qLabel(sw.Q), sw.N)
	out := pct(joinDurations(s.clientDur, s.wrapDur), 0.5)
	rep.set("nethttp.outside_us.p50", out.Value, "client time minus wrapper time, %d good requests", out.N)
	untracedCap, capRate := median(untraced.capRates), median(gr.capRates)
	rep.set("trace_overhead_frac", untracedCap/capRate-1,
		"closed-loop rate untraced %.0f vs traced %.0f req/s, medians of windows", untracedCap, capRate)
	rep.spans = rec.spans
	if err := rep.cpuShares(prof.Bytes()); err != nil {
		return nil, err
	}
	return rep, nil
}

// pooled concatenates a rung's windows.
func pooled(windows [][]float64) []float64 {
	var out []float64
	for _, w := range windows {
		out = append(out, w...)
	}
	return out
}
