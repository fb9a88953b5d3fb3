package rescon

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestQuickstartFlow(t *testing.T) {
	// The README quick-start, as a test: build a prioritized server on
	// the RC kernel and drive it with the public API only.
	s := NewSim(ModeRC, 42)
	premium := CIDR("10.9.0.0", 16)
	srv, err := NewServer(ServerConfig{
		Kernel:            s.Kernel,
		Name:              "httpd",
		Addr:              Addr("10.0.0.1", 80),
		API:               EventAPI,
		PerConnContainers: true,
		ConnPriority: func(a Address) int {
			if premium.Matches(a.IP) {
				return 30
			}
			return 1
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clients := MustStartPopulation(8, ClientConfig{
		Kernel: s.Kernel,
		Src:    Addr("10.1.0.1", 1024),
		Dst:    Addr("10.0.0.1", 80),
	})
	vip := MustStartClient(ClientConfig{
		Kernel: s.Kernel,
		Src:    Addr("10.9.0.1", 1024),
		Dst:    Addr("10.0.0.1", 80),
		Think:  5 * Millisecond,
	})
	s.RunFor(3 * Second)

	if clients.Completed() < 1000 {
		t.Fatalf("population completed %d", clients.Completed())
	}
	if vip.Latency.N() == 0 {
		t.Fatal("premium client served nothing")
	}
	if srv.StaticServed == 0 {
		t.Fatal("server served nothing")
	}
	u := srv.Process().DefaultContainer.Usage()
	if u.CPUKernel == 0 {
		t.Fatal("no kernel CPU accounted to the server's default container")
	}
}

func TestContainerHierarchyPublicAPI(t *testing.T) {
	parent, err := NewContainer(nil, FixedShare, "guest", Attributes{Share: 0.5, Limit: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	child, err := NewContainer(parent, TimeShare, "conn", Attributes{Priority: DefaultPriority})
	if err != nil {
		t.Fatal(err)
	}
	if child.Parent() != parent {
		t.Fatal("hierarchy broken")
	}
	child.ChargeCPU(0, Millisecond, nil)
	if parent.Usage().CPU() != Millisecond {
		t.Fatal("usage did not aggregate to parent")
	}
}

func TestSynFloodDefensePublicAPI(t *testing.T) {
	s := NewSim(ModeRC, 99)
	srv, err := NewServer(ServerConfig{
		Kernel: s.Kernel, Name: "httpd",
		Addr: Addr("10.0.0.1", 80),
		API:  EventAPI, PerConnContainers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	floodCont, err := NewContainer(nil, TimeShare, "attackers", Attributes{Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AddListener(CIDR("66.0.0.0", 8), floodCont); err != nil {
		t.Fatal(err)
	}
	good := MustStartPopulation(16, ClientConfig{
		Kernel: s.Kernel,
		Src:    Addr("10.1.0.1", 1024),
		Dst:    Addr("10.0.0.1", 80),
	})
	StartFlood(s.Kernel, 30_000, Addr("66.0.0.1", 0).IP, 256, Addr("10.0.0.1", 80))
	s.RunFor(Second)
	good.ResetStats()
	s.RunFor(2 * Second)
	rate := good.Rate(s.Now())
	if rate < 1500 {
		t.Fatalf("defended throughput %.0f req/s under 30k SYN/s flood", rate)
	}
}

func TestModesDiffer(t *testing.T) {
	// The three kernel modes must be distinguishable end to end: under a
	// 20k SYN/s flood the unmodified kernel collapses, RC does not.
	run := func(mode Mode, defend bool) float64 {
		s := NewSim(mode, 3)
		srv, err := NewServer(ServerConfig{
			Kernel: s.Kernel, Name: "httpd",
			Addr: Addr("10.0.0.1", 80), API: SelectAPI,
			PerConnContainers: mode == ModeRC,
		})
		if err != nil {
			t.Fatal(err)
		}
		if defend {
			fc, _ := NewContainer(nil, TimeShare, "attackers", Attributes{Priority: 0})
			if _, err := srv.AddListener(CIDR("66.0.0.0", 8), fc); err != nil {
				t.Fatal(err)
			}
		}
		good := MustStartPopulation(16, ClientConfig{
			Kernel: s.Kernel,
			Src:    Addr("10.1.0.1", 1024),
			Dst:    Addr("10.0.0.1", 80),
		})
		StartFlood(s.Kernel, 20_000, Addr("66.0.0.1", 0).IP, 256, Addr("10.0.0.1", 80))
		s.RunFor(Second)
		good.ResetStats()
		s.RunFor(2 * Second)
		return good.Rate(s.Now())
	}
	unmod := run(ModeUnmodified, false)
	rc := run(ModeRC, true)
	if unmod > rc/10 {
		t.Fatalf("unmodified (%v) should collapse vs defended RC (%v)", unmod, rc)
	}
}

func TestWithAlertsPublicAPI(t *testing.T) {
	// WithWatchdog implies telemetry + alerts: the full stack from one
	// option. Under a flood the facade must surface a critical alert and
	// an engaged watchdog without touching any internal package.
	s := NewSim(ModeUnmodified, 42, WithWatchdog(WatchdogConfig{}))
	if s.Telemetry == nil || s.Alerts == nil || s.Watchdog == nil {
		t.Fatal("WithWatchdog did not attach telemetry, alerts and the watchdog")
	}
	if _, err := NewServer(ServerConfig{
		Kernel: s.Kernel, Name: "httpd",
		Addr: Addr("10.0.0.1", 80), API: EventAPI,
	}); err != nil {
		t.Fatal(err)
	}
	MustStartPopulation(8, ClientConfig{
		Kernel: s.Kernel,
		Src:    Addr("10.1.0.1", 1024),
		Dst:    Addr("10.0.0.1", 80),
	})
	s.RunFor(100 * Millisecond)
	if got := s.Alerts.Worst(); got != AlertOk {
		t.Fatalf("quiet baseline at level %v, want %v", got, AlertOk)
	}
	StartFlood(s.Kernel, 20_000, Addr("66.0.0.1", 0).IP, 256, Addr("10.0.0.1", 80))
	s.RunFor(300 * Millisecond)
	if got := s.Alerts.Worst(); got != AlertCritical {
		t.Fatalf("flood raised %v, want %v", got, AlertCritical)
	}
	if s.Watchdog.Engagements() == 0 {
		t.Fatal("watchdog never engaged under flood")
	}
}

func TestFacadeConstructors(t *testing.T) {
	s := NewSim(ModeLRP, 3)
	if s.Kernel.Mode() != ModeLRP {
		t.Fatal("mode not applied")
	}
	s.RunUntil(Time(Millisecond))
	if s.Now() != Time(Millisecond) {
		t.Fatal("RunUntil did not advance")
	}
	smp := NewSim(ModeRC, 3, WithCPUs(2))
	if smp.Kernel.NumCPUs() != 2 {
		t.Fatal("SMP CPUs not applied")
	}
	e := NewEnforcer(0)
	if e.Window() <= 0 {
		t.Fatal("enforcer window")
	}
	c, err := NewContainer(nil, TimeShare, "c", Attributes{Priority: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Acquire(c)(0)
}

// TestRuntimeFacade drives the real-runtime bridge entirely through the
// facade: configuration validation, tenant binding, per-request
// charging, and the in-request rebind helper.
func TestRuntimeFacade(t *testing.T) {
	if _, err := NewRuntime(RuntimeConfig{}); err == nil {
		t.Fatal("NewRuntime accepted a config with no root container")
	}
	root, err := NewContainer(nil, FixedShare, "root", Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	tenant, err := NewContainer(root, FixedShare, "tenant", Attributes{Limit: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rt := MustNewRuntime(RuntimeConfig{Root: root},
		WithBinder(HeaderBinder("X-RC-Tenant", map[string]*Container{"tenant": tenant}, nil)),
		WithTelemetrySink(nil))
	h := rt.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !RebindRequest(r.Context(), root) {
			t.Error("rebind to root refused")
		}
	}))
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("X-RC-Tenant", "tenant")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if st := rt.Stats(); st.Served != 1 {
		t.Fatalf("stats %+v, want 1 served", st)
	}
}

// TestSurvivabilityFacade exercises the degradation and governance
// surface through the facade: breakers, the runtime monitor/watchdog
// pair, and drain reporting.
func TestSurvivabilityFacade(t *testing.T) {
	root, err := NewContainer(nil, FixedShare, "root", Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	tenant, err := NewContainer(root, FixedShare, "tenant", Attributes{Limit: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rt := MustNewRuntime(RuntimeConfig{Root: root},
		WithBinder(HeaderBinder("X-RC-Tenant", map[string]*Container{"tenant": tenant}, nil)),
		WithBreakers(BreakerConfig{OpenAfter: 3}))

	am := NewAlertMonitor()
	mon, err := AttachRuntimeMonitor(rt, am, RuntimeMonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wd := AttachRuntimeWatchdog(mon, RuntimeWatchdogConfig{Clampable: []*Container{tenant}})
	if wd.Engaged() {
		t.Fatal("watchdog engaged before any traffic")
	}

	h := rt.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("X-RC-Tenant", "tenant")
	h.ServeHTTP(httptest.NewRecorder(), req)
	mon.Tick()
	if rt.BreakerOpen(tenant) {
		t.Fatal("breaker open after a served request")
	}

	var rep DrainReport = rt.Drain(time.Second)
	if !rep.Clean || rep.LeakedRequests != 0 {
		t.Fatalf("drain report %+v, want clean", rep)
	}
}

// TestWithRebalancer drives the closed-loop share controller through
// the facade only: two sibling containers in a CPU-share pool, demand
// concentrated on one of them, and the controller expected to shift
// share toward it without crossing the starvation floor or breaking
// conservation.
func TestWithRebalancer(t *testing.T) {
	s := NewSim(ModeRC, 7,
		WithWatchdog(WatchdogConfig{}),
		WithRebalancer(RebalanceConfig{}))
	if s.Rebalancer == nil || s.Telemetry == nil || s.Watchdog == nil {
		t.Fatal("WithRebalancer must wire telemetry, watchdog and controller")
	}
	root, err := NewContainer(nil, FixedShare, "pool", Attributes{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewContainer(root, TimeShare, "a", Attributes{Share: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewContainer(root, TimeShare, "b", Attributes{Share: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	var hot int64
	if err := s.Rebalancer.AddPool(RebalancePool{
		Name:     "cpu",
		Resource: RebalanceCPUShare,
		Members: []RebalanceMember{
			{Container: a, Demand: func() int64 { hot += 100; return hot }},
			{Container: b, Demand: func() int64 { return 0 }},
		},
	}); err != nil {
		t.Fatal(err)
	}
	s.RunFor(2 * Second)
	if s.Rebalancer.Steps() == 0 {
		t.Fatal("controller never stepped under one-sided demand")
	}
	if a.Attributes().Share <= b.Attributes().Share {
		t.Fatalf("share did not follow demand: a=%g b=%g",
			a.Attributes().Share, b.Attributes().Share)
	}
	for _, audit := range []struct{ name, v string }{
		{"conservation", s.Rebalancer.AuditConservation()},
		{"floors", s.Rebalancer.AuditFloors()},
		{"restore", s.Rebalancer.AuditRestore()},
	} {
		if audit.v != "" {
			t.Errorf("%s audit: %s", audit.name, audit.v)
		}
	}
	if s.Rebalancer.Disarmed() {
		t.Fatal("controller disarmed under steady one-sided demand")
	}
}
