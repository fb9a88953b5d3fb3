// Command rcserve boots a container-governed net/http server: every
// request is bound to a resource container (by the X-RC-Tenant header or
// the ?tenant= query parameter), charged for its wall-clock cost, and
// shed with a 429 once its tenant's subtree exhausts the sliding-window
// CPU budget. It is the production face of internal/rcruntime — the same
// runtime the `rcbench -exp live` experiment drives under virtual time.
//
// Usage:
//
//	rcserve -addr :8080 -window 100ms -tenant gold=0.6 -tenant bronze=0.1
//
// Endpoints:
//
//	/work?ms=N   spin real CPU for N milliseconds, charged to the tenant
//	/stats       runtime counters and per-tenant usage as JSON
//
// Each -tenant flag declares a container under the server root with the
// given CPU limit (fraction of the window; 0 means unlimited). Requests
// naming no tenant, or an unknown one, are charged to the root.
//
// With -demo the server drives itself: it issues a short burst of
// requests against its own listener (one well-behaved tenant, one
// flooding tenant), prints the resulting stats, and exits — a smoke of
// the governed path over real loopback TCP without an external client.
//
// SIGINT or SIGTERM triggers a graceful drain: accepts stop, new
// requests are shed with 503 + Connection: close, in-flight requests
// get -grace to finish, and the final counters (plus the drain report)
// are written to stderr as JSON before the process exits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rescon/internal/rc"
	"rescon/internal/rcruntime"
	"rescon/internal/sim"
)

// signalNotify subscribes ch to the shutdown signals; a package variable
// so tests can deliver a synthetic signal instead of killing the test
// process.
var signalNotify = func(ch chan<- os.Signal) {
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
}

// tenantFlags collects repeated -tenant name=limit declarations.
type tenantFlags map[string]float64

// String renders the declared tenants for flag help output.
func (t tenantFlags) String() string {
	parts := make([]string, 0, len(t))
	for name, limit := range t {
		parts = append(parts, fmt.Sprintf("%s=%g", name, limit))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Set parses one name=limit pair.
func (t tenantFlags) Set(s string) error {
	name, limitStr, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=limit, got %q", s)
	}
	limit, err := strconv.ParseFloat(limitStr, 64)
	if err != nil {
		return fmt.Errorf("bad limit in %q: %v", s, err)
	}
	if math.IsNaN(limit) || limit < 0 || limit > 1 {
		return fmt.Errorf("limit %g out of [0,1] in %q", limit, s)
	}
	if _, dup := t[name]; dup {
		return fmt.Errorf("tenant %q declared twice", name)
	}
	t[name] = limit
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "rcserve: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of the command: parse flags, build the
// governed server, and either serve until a shutdown signal drains it or
// (with -demo) drive a self-test burst and return. Final stats and the
// drain report go to errOut as JSON, so they survive stdout pipelines.
func run(argv []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("rcserve", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	window := fs.Duration("window", 100*time.Millisecond, "enforcement window")
	maxDelay := fs.Duration("maxdelay", 0, "max admission delay before a 429 (0 = one window)")
	maxConns := fs.Int("maxconns", 0, "refuse accepts beyond this many open connections (0 = unlimited)")
	grace := fs.Duration("grace", 5*time.Second, "in-flight grace period for graceful shutdown")
	demo := fs.Bool("demo", false, "drive a self-test burst against the server and exit")
	tenants := tenantFlags{}
	fs.Var(tenants, "tenant", "declare a tenant as name=limit (repeatable)")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *grace < 0 {
		return fmt.Errorf("negative -grace %v", *grace)
	}
	if *maxConns < 0 {
		return fmt.Errorf("negative -maxconns %d", *maxConns)
	}

	root := rc.MustNew(nil, rc.FixedShare, "rcserve", rc.Attributes{})
	bound := map[string]*rc.Container{}
	for name, limit := range tenants {
		c, err := rc.New(root, rc.FixedShare, name, rc.Attributes{Limit: limit})
		if err != nil {
			return fmt.Errorf("tenant %q: %w", name, err)
		}
		bound[name] = c
	}

	cfg := rcruntime.Config{Root: root, Window: *window, MaxDelay: *maxDelay}
	if *demo {
		// The demo wants visible shedding, not silent admission delays.
		cfg.MaxDelay = rcruntime.NoDelay
	}
	if *maxConns > 0 {
		cfg.Policy = rcruntime.AcceptPolicy{Enabled: true, MaxConns: *maxConns}
	}
	rt, err := rcruntime.NewRuntime(cfg,
		rcruntime.WithBinder(requestBinder(bound)))
	if err != nil {
		return err
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/work", workHandler)
	mux.HandleFunc("/stats", statsHandler(rt, root, bound))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	srv := &http.Server{Handler: rt.Middleware(mux)}
	fmt.Fprintf(out, "rcserve: listening on %s (window %v, %d tenant(s))\n",
		ln.Addr(), rt.Window(), len(bound))

	if *demo {
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve(rt.Listener(ln)) }()
		err := runDemo(out, ln.Addr().String())
		_ = srv.Close()
		if se := <-serveErr; se != nil && !errors.Is(se, http.ErrServerClosed) && err == nil {
			err = se
		}
		return err
	}

	// Serve until a shutdown signal arrives, then drain: stop accepting,
	// shed new requests with 503 + Connection: close, wait out the grace
	// period for in-flight work, and report what the run did.
	sigCh := make(chan os.Signal, 1)
	signalNotify(sigCh)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(rt.Listener(ln)) }()
	select {
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case sig := <-sigCh:
		fmt.Fprintf(errOut, "rcserve: %v: draining (grace %v)\n", sig, *grace)
		rep, drainErr := rt.Shutdown(*grace)
		_ = srv.Close()
		<-serveErr // Serve returns once Shutdown closes the listener
		writeFinalStats(errOut, rt, root, bound, rep)
		if drainErr != nil {
			return drainErr
		}
		return nil
	}
}

// writeFinalStats emits the runtime's closing books — request counters,
// per-tenant CPU, and the drain report — as one JSON object on errOut.
func writeFinalStats(errOut io.Writer, rt *rcruntime.Runtime, root *rc.Container, bound map[string]*rc.Container, rep rcruntime.DrainReport) {
	st := rt.Stats()
	usage := map[string]float64{"root": float64(root.Usage().CPU()) / float64(sim.Second)}
	for name, c := range bound {
		usage[name] = float64(c.Usage().CPU()) / float64(sim.Second)
	}
	_ = json.NewEncoder(errOut).Encode(map[string]any{
		"served":     st.Served,
		"shed":       st.Shed,
		"drain_shed": st.DrainShed,
		"panics":     st.Panics,
		"delayed":    st.Delayed,
		"accepted":   st.Accepted,
		"refused":    st.Refused,
		"cpu_s":      usage,
		"drain": map[string]any{
			"waited":          rep.Waited.String(),
			"leaked_requests": rep.LeakedRequests,
			"open_conns":      rep.OpenConns,
			"clean":           rep.Clean,
		},
	})
}

// requestBinder resolves the tenant from the X-RC-Tenant header, falling
// back to the ?tenant= query parameter; unmatched requests go to the
// binder's default (the root).
func requestBinder(bound map[string]*rc.Container) rcruntime.Binder {
	header := rcruntime.HeaderBinder("X-RC-Tenant", bound, nil)
	return rcruntime.BinderFunc(func(r *http.Request) *rc.Container {
		if c := header.Bind(r); c != nil {
			return c
		}
		return bound[r.URL.Query().Get("tenant")]
	})
}

// workHandler spins real CPU for ?ms= milliseconds — the charged work.
func workHandler(w http.ResponseWriter, r *http.Request) {
	ms, err := strconv.Atoi(r.URL.Query().Get("ms"))
	if err != nil || ms < 0 || ms > 10000 {
		http.Error(w, "want ?ms=N in [0,10000]", http.StatusBadRequest)
		return
	}
	spin(time.Duration(ms) * time.Millisecond)
	fmt.Fprintf(w, "worked %dms\n", ms)
}

// spin busy-loops for roughly d of real CPU time.
func spin(d time.Duration) {
	deadline := time.Now().Add(d)
	x := 0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x += i
		}
	}
	_ = x
}

// statsHandler reports runtime counters and per-tenant CPU usage.
func statsHandler(rt *rcruntime.Runtime, root *rc.Container, bound map[string]*rc.Container) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st := rt.Stats()
		usage := map[string]float64{"root": float64(root.Usage().CPU()) / float64(sim.Second)}
		for name, c := range bound {
			usage[name] = float64(c.Usage().CPU()) / float64(sim.Second)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"served":    st.Served,
			"shed":      st.Shed,
			"delayed":   st.Delayed,
			"accepted":  st.Accepted,
			"refused":   st.Refused,
			"inflight":  st.Inflight,
			"window":    rt.Window().String(),
			"cpu_s":     usage,
			"timestamp": time.Now().UTC().Format(time.RFC3339),
		})
	}
}

// runDemo issues a short burst against the live server: a well-behaved
// tenant alongside a flood, then prints where the requests ended up.
func runDemo(out io.Writer, addr string) error {
	base := "http://" + addr
	client := &http.Client{Timeout: 10 * time.Second}
	get := func(path, tenant string) (int, error) {
		req, err := http.NewRequest("GET", base+path, nil)
		if err != nil {
			return 0, err
		}
		if tenant != "" {
			req.Header.Set("X-RC-Tenant", tenant)
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode, nil
	}
	served, shed := 0, 0
	for i := 0; i < 20; i++ {
		code, err := get("/work?ms=2", "demo")
		if err != nil {
			return err
		}
		switch code {
		case http.StatusOK:
			served++
		case http.StatusTooManyRequests:
			shed++
		default:
			return fmt.Errorf("demo request got status %d", code)
		}
	}
	fmt.Fprintf(out, "rcserve: demo burst done — %d served, %d shed\n", served, shed)
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	stats, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "rcserve: stats %s", stats)
	return nil
}
