package experiments

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"rescon/internal/alert"
	"rescon/internal/fault"
	"rescon/internal/rc"
	"rescon/internal/rcruntime"
	"rescon/internal/sim"
)

// LiveRig is the governed-live rig: the one harness behind every
// virtual-time run of the real runtime — the live and livechaos
// experiments and the live chaos fuzzer (internal/chaos). It boots a
// tenant tree under an rcruntime.Runtime on a lockstep VirtualClock with
// a /work handler that burns virtual CPU, optionally arms the monitor
// and watchdog, drives hostile-then-calm rounds of sequential requests,
// classifies every response, and ends with a drain and an audit.
//
// Callers choose only the transport: loopback serves real net/http on
// 127.0.0.1, because only real sockets exercise accept-time refusal and
// socket faults; in-process calls the handler stack through an
// httptest.ResponseRecorder, so a fuzzing scenario costs milliseconds.
type LiveRig struct {
	Clock *rcruntime.VirtualClock
	Root  *rc.Container
	// Tenants are the tenant containers, in NewLiveRig order.
	Tenants  []*rc.Container
	Runtime  *rcruntime.Runtime
	Faults   *fault.LiveInjector // nil without LiveBoot.Faults
	Monitor  *rcruntime.Monitor  // nil without LiveBoot.Monitor
	Watchdog *alert.Watchdog     // nil without LiveBoot.Watchdog

	specs                []LiveTenant
	ledger               []LiveLedger
	sink                 rcruntime.TallySink
	shedCost, refuseCost time.Duration
	url                  string
	handler              http.Handler // the in-process transport
	// The loopback transport: the server, one keep-alive client per
	// tenant and one reconnecting client.
	srv       *httptest.Server
	keepAlive []*http.Client
	reconnect *http.Client
}

// LiveTenant is one tenant population of a LiveRig. Calm tenants issue
// in every round over one keep-alive connection; hostile tenants issue
// only in hostile rounds, alternating their keep-alive connection (shed
// at the middleware) with a fresh connection per request (refused at
// accept while policed).
//
// The JSON form is the tenant entry of a live chaos repro; Cost
// marshals as integer nanoseconds.
type LiveTenant struct {
	Name     string        `json:"name"`            // container name and X-RC-Tenant value
	Limit    float64       `json:"limit,omitempty"` // container CPU limit (0 = unlimited)
	Requests int           `json:"requests"`        // per round, each burning Cost of virtual CPU
	Cost     time.Duration `json:"cost"`
	Calm     bool          `json:"calm,omitempty"`
}

// LiveBoot configures LiveRig.Start. The rig itself sets the runtime's
// clock, its tally sink and its X-RC-Tenant binder, and sheds rather
// than delays (NoDelay): the load is closed-loop.
type LiveBoot struct {
	Window  time.Duration
	Policy  rcruntime.AcceptPolicy
	Options []rcruntime.Option // extra runtime options, e.g. breakers
	// Seed seeds the fault schedule and the alert run.
	Seed int64
	// Faults, when set, wraps the handler (and, on loopback, the
	// listener) in a fault injector on the rig's clock.
	Faults *fault.LiveConfig
	// Monitor, when set, attaches the runtime check battery to a fresh
	// alert monitor; Watchdog, when also set, closes the loop on it.
	Monitor  *rcruntime.MonitorConfig
	Watchdog *alert.WatchdogConfig
	// Loopback selects real sockets over the in-process recorder.
	Loopback bool
}

// The loopback client's virtual costs: reading a shed response (parse
// and middleware, no handler) and a connection that died before a
// response (a close(2)). The in-process transport has no client to
// charge.
const (
	loopbackShedCost   = 200 * time.Microsecond
	loopbackRefuseCost = 50 * time.Microsecond
)

// LiveLedger is one tenant's client-side ledger: what the driver issued
// and how each response was classified.
type LiveLedger struct {
	Issued, Served, Shed, Panicked uint64
}

// Refused counts requests whose connection died before a response.
func (l LiveLedger) Refused() uint64 { return l.Issued - l.Served - l.Shed - l.Panicked }

// NewLiveRig builds the clock and the tenant tree: a root named name
// with one fixed-share child per tenant.
func NewLiveRig(name string, tenants []LiveTenant) (*LiveRig, error) {
	r := &LiveRig{
		Clock:  &rcruntime.VirtualClock{},
		Root:   rc.MustNew(nil, rc.FixedShare, name, rc.Attributes{}),
		specs:  tenants,
		ledger: make([]LiveLedger, len(tenants)),
	}
	for _, t := range tenants {
		c, err := rc.New(r.Root, rc.FixedShare, t.Name, rc.Attributes{Limit: t.Limit})
		if err != nil {
			return nil, fmt.Errorf("tenant %q: %w", t.Name, err)
		}
		r.Tenants = append(r.Tenants, c)
	}
	return r, nil
}

// Hostile returns the containers of the tenants that are not calm.
func (r *LiveRig) Hostile() (out []*rc.Container) {
	for i, t := range r.specs {
		if !t.Calm {
			out = append(out, r.Tenants[i])
		}
	}
	return out
}

// Start boots the runtime, the monitor and watchdog (attached before
// any controller the caller adds, so the watchdog acts first on a
// shared tick) and the transport. Call Close when done.
func (r *LiveRig) Start(b LiveBoot) error {
	bound := make(map[string]*rc.Container, len(r.specs))
	for i, t := range r.specs {
		bound[t.Name] = r.Tenants[i]
	}
	rt, err := rcruntime.NewRuntime(rcruntime.Config{
		Root: r.Root, Window: b.Window, MaxDelay: rcruntime.NoDelay, Policy: b.Policy,
	}, append([]rcruntime.Option{
		rcruntime.WithClock(r.Clock),
		rcruntime.WithTelemetrySink(&r.sink),
		rcruntime.WithBinder(rcruntime.HeaderBinder("X-RC-Tenant", bound, nil)),
	}, b.Options...)...)
	if err != nil {
		return err
	}
	r.Runtime = rt
	if b.Monitor != nil {
		am := alert.New()
		am.SetRun(b.Seed, r.Root.Name(), sim.Duration(b.Window))
		if r.Monitor, err = rcruntime.AttachMonitor(rt, am, *b.Monitor); err != nil {
			return err
		}
		if b.Watchdog != nil {
			r.Watchdog = rcruntime.AttachWatchdog(r.Monitor, *b.Watchdog)
		}
	}

	var handler http.Handler = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if cost, err := time.ParseDuration(req.Header.Get("X-Cost")); err == nil && cost > 0 {
			r.Clock.Sleep(cost) // burn virtual CPU
		}
		_, _ = io.WriteString(w, "ok\n")
	})
	if b.Faults != nil {
		r.Faults = fault.NewLive(b.Seed, *b.Faults, r.Clock)
		handler = r.Faults.Middleware(handler)
	}
	handler = rt.Middleware(handler)
	if !b.Loopback {
		r.handler, r.url = handler, "http://"+r.Root.Name()+"/work"
		return nil
	}
	r.shedCost, r.refuseCost = loopbackShedCost, loopbackRefuseCost
	r.srv = httptest.NewUnstartedServer(handler)
	if r.Faults != nil {
		// Under the policed listener: fates are drawn in accept order.
		r.srv.Listener = r.Faults.Listener(r.srv.Listener)
	}
	r.srv.Listener = rt.Listener(r.srv.Listener)
	r.srv.Start()
	r.url = r.srv.URL + "/work"
	for range r.specs {
		r.keepAlive = append(r.keepAlive, &http.Client{Transport: &http.Transport{}})
	}
	r.reconnect = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	return nil
}

// Close stops the loopback server, if any.
func (r *LiveRig) Close() {
	if r.srv == nil {
		return
	}
	for _, c := range r.keepAlive {
		c.CloseIdleConnections()
	}
	r.srv.Close()
	r.srv = nil
}

// Drive runs hostile rounds, then calm rounds, and returns the virtual
// time they took. Each round issues every active tenant's requests in
// tenant order, advances the clock by think, ticks the monitor, then
// calls after (if non-nil) with the phase and the round's index in it.
// A status the classifier does not know ends the run with an error.
func (r *LiveRig) Drive(hostile, calm int, think time.Duration, after func(hostile bool, round int)) (time.Duration, error) {
	start := r.Clock.Now()
	for round := 0; round < hostile+calm; round++ {
		h := round < hostile
		for i, t := range r.specs {
			if !h && !t.Calm {
				continue // hostile tenants sit the calm phase out
			}
			for n := 0; n < t.Requests; n++ {
				if err := r.issue(i, !t.Calm && n%2 == 1); err != nil {
					return 0, err
				}
			}
		}
		r.Clock.Sleep(think)
		if r.Monitor != nil {
			r.Monitor.Tick()
		}
		if after != nil {
			if h {
				after(true, round)
			} else {
				after(false, round-hostile)
			}
		}
	}
	return r.Clock.Now().Sub(start), nil
}

// issue sends one request for tenant i and books the outcome: 200
// served, 429 or 503 shed, 500 a recovered panic, no response refused.
func (r *LiveRig) issue(i int, reconnect bool) error {
	t := r.specs[i]
	req, err := http.NewRequest("GET", r.url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-RC-Tenant", t.Name)
	req.Header.Set("X-Cost", t.Cost.String())
	code := 0 // no response: refused at accept, or reset by a fault
	if r.srv == nil {
		rr := httptest.NewRecorder()
		r.handler.ServeHTTP(rr, req)
		code = rr.Code
	} else {
		client := r.keepAlive[i]
		if reconnect {
			client = r.reconnect
		}
		if resp, err := client.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			code = resp.StatusCode
		}
	}
	led := &r.ledger[i]
	switch code {
	case 0:
		r.Clock.Sleep(r.refuseCost)
	case http.StatusOK:
		led.Served++
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		led.Shed++
		r.Clock.Sleep(r.shedCost)
	case http.StatusInternalServerError:
		led.Panicked++
	default:
		return fmt.Errorf("tenant %q: unexpected status %d", t.Name, code)
	}
	led.Issued++
	return nil
}

// Ledger returns tenant i's client-side ledger.
func (r *LiveRig) Ledger(i int) LiveLedger { return r.ledger[i] }

// Total sums every tenant's ledger.
func (r *LiveRig) Total() (sum LiveLedger) {
	for _, l := range r.ledger {
		sum = LiveLedger{sum.Issued + l.Issued, sum.Served + l.Served, sum.Shed + l.Shed, sum.Panicked + l.Panicked}
	}
	return sum
}

// CPUPct is c's share of all CPU charged to the hierarchy, in percent.
func (r *LiveRig) CPUPct(c *rc.Container) (pct float64) {
	r.Runtime.Enforcer().Sync(func() {
		if total := r.Root.Usage().CPU(); total > 0 {
			pct = 100 * float64(c.Usage().CPU()) / float64(total)
		}
	})
	return pct
}

// Finish drains the runtime for up to grace and audits its books. It
// returns the final stats, a description of any work left in flight,
// and of any telemetry that disagrees with the stats ("" when clean).
func (r *LiveRig) Finish(grace time.Duration) (s rcruntime.Stats, leak, sink string) {
	rep := r.Runtime.Drain(grace)
	s = r.Runtime.Stats()
	if !rep.Clean || rep.LeakedRequests != 0 || s.InflightRequests != 0 {
		leak = fmt.Sprintf("drain clean=%t leaked=%d inflight=%d", rep.Clean, rep.LeakedRequests, s.InflightRequests)
	}
	return s, leak, r.sink.Mismatch(s)
}
