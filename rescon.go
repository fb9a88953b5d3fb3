// Package rescon is the public facade of the resource-containers
// reproduction (Banga, Druschel & Mogul, "Resource Containers: A New
// Facility for Resource Management in Server Systems", OSDI 1999).
//
// The package re-exports the core abstractions so that applications deal
// with a single import:
//
//   - Container / Attributes — the resource principal (§4.1–§4.6)
//   - Kernel — the simulated monolithic kernel with three execution
//     models (unmodified, LRP, resource containers)
//   - Server — the event-driven HTTP server model of §2
//   - Client / Population / Flooder — workload generators (§5.2)
//   - Telemetry — structured tracing, usage timelines and the
//     virtual-CPU profile (attach with WithTelemetry)
//   - AlertMonitor / Watchdog — sockstat-style overload detection on the
//     telemetry stream and the closed-loop reaction (attach with
//     WithWatchdog, or AttachRuntimeMonitor + AttachRuntimeWatchdog on
//     the real runtime)
//   - Rebalancer — the closed-loop adaptive share controller: shifts
//     container attributes between pool members in proportion to
//     demand, with starvation floors, damping and a self-disarming
//     oscillation detector (attach with WithRebalancer, or
//     AttachRuntimeRebalancer)
//   - Runtime / Binder / AcceptPolicy — the real-runtime bridge: govern
//     a live net/http server with containers (NewRuntime, cmd/rcserve,
//     `rcbench -exp live`)
//
// # Quick start
//
//	s := rescon.NewSim(rescon.ModeRC, 42,
//	    rescon.WithTelemetry())
//	srv, err := rescon.NewServer(rescon.ServerConfig{
//	    Kernel: s.Kernel, Name: "httpd",
//	    Addr:   rescon.Addr("10.0.0.1", 80),
//	    API:    rescon.EventAPI,
//	    PerConnContainers: true,
//	})
//	if err != nil {
//	    log.Fatal(err)
//	}
//	clients, err := rescon.StartPopulation(8, rescon.ClientConfig{
//	    Kernel: s.Kernel, Src: rescon.Addr("10.1.0.1", 1024),
//	    Dst: rescon.Addr("10.0.0.1", 80),
//	})
//	if err != nil {
//	    log.Fatal(err)
//	}
//	s.RunFor(5 * rescon.Second)
//	fmt.Println(clients.Rate(s.Now()), "requests/s")
//	s.Telemetry.WriteProfile(os.Stdout, 10)
//	_ = srv
//
// # Constructor naming
//
// The facade follows one convention throughout: New* constructors are
// passive — they build a value (and may register callbacks) but schedule
// no engine work, so virtual time can pass without them doing anything
// (NewSim, NewContainer, NewServer, NewFaultInjector,
// NewInvariantChecker, NewEnforcer, NewTelemetry). Start* constructors
// put work on the engine before returning — the returned object is
// already acting and will consume virtual time as soon as the simulation
// runs (StartPopulation, StartFlood, StartCrasher, StartSlowLoris). A
// Server is New* because it only reacts to kernel upcalls; a Population
// is Start* because its request loops begin immediately.
//
// # Scope
//
// The facade exports exactly what its consumers use — the examples/
// programs, example_test.go, perfbench/, README.md and docs/TUTORIAL.md —
// and TestFacadeExportsHaveConsumers fails on any other export.
//
// See the examples/ directory for complete programs and cmd/rcbench for
// the harness that regenerates every table and figure of the paper.
package rescon

import (
	"context"
	"time"

	"rescon/internal/alert"
	"rescon/internal/fault"
	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/netsim"
	"rescon/internal/rc"
	"rescon/internal/rcruntime"
	"rescon/internal/rebalance"
	"rescon/internal/sim"
	"rescon/internal/telemetry"
	"rescon/internal/trace"
	"rescon/internal/workload"
)

// Core resource-container types (internal/rc).
type (
	// Container is a resource principal: the paper's core abstraction.
	Container = rc.Container
	// Attributes hold a container's scheduling parameters and limits.
	Attributes = rc.Attributes
	// Class distinguishes fixed-share from time-share containers.
	Class = rc.Class
)

// Container classes.
const (
	TimeShare  Class = rc.TimeShare
	FixedShare Class = rc.FixedShare
)

// NewContainer creates a resource container; see rc.New.
func NewContainer(parent *Container, class Class, name string, attrs Attributes) (*Container, error) {
	return rc.New(parent, class, name, attrs)
}

// Simulated kernel types (internal/kernel).
type (
	// Kernel is one simulated server machine.
	Kernel = kernel.Kernel
	// Mode selects the resource-management model.
	Mode = kernel.Mode
	// CostModel holds the calibrated CPU costs of every processing stage.
	CostModel = kernel.CostModel
	// Address is a transport endpoint.
	Address = netsim.Addr
	// Filter is a CIDR filter of the new sockaddr namespace (§4.8).
	Filter = netsim.Filter
	// IP is an IPv4 address.
	IP = netsim.IP
)

// Kernel execution models.
const (
	ModeUnmodified Mode = kernel.ModeUnmodified
	ModeLRP        Mode = kernel.ModeLRP
	ModeRC         Mode = kernel.ModeRC
)

// DefaultPriority is the container priority used when none is specified;
// priority 0 is the idle class.
const DefaultPriority = kernel.DefaultPriority

// Addr builds an endpoint from a dotted-quad IP string and port.
func Addr(ip string, port uint16) Address { return kernel.Addr(ip, port) }

// CIDR builds a client filter from a dotted-quad prefix and mask length.
func CIDR(prefix string, bits int) Filter { return kernel.FilterCIDR(prefix, bits) }

// DefaultCosts returns the cost model calibrated to the paper's testbed.
func DefaultCosts() CostModel { return kernel.DefaultCosts() }

// Server models (internal/httpsim).
type (
	// Server is the single-process event-driven server (Fig. 2/10).
	Server = httpsim.Server
	// ServerConfig configures an event-driven server.
	ServerConfig = httpsim.Config
	// API selects select() vs the scalable event API.
	API = httpsim.API
)

// Event APIs.
const (
	SelectAPI API = httpsim.SelectAPI
	EventAPI  API = httpsim.EventAPI
)

// Request kinds.
const (
	Static = httpsim.Static
	CGI    = httpsim.CGI
)

// NewServer starts an event-driven server; see httpsim.NewServer.
func NewServer(cfg ServerConfig) (*Server, error) { return httpsim.NewServer(cfg) }

// Workload types (internal/workload).
type (
	// Client is a closed-loop request generator (one S-Client slot).
	Client = workload.Client
	// ClientConfig configures a client.
	ClientConfig = workload.ClientConfig
	// Population is a set of clients with pooled statistics.
	Population = workload.Population
	// Flooder emits bogus SYNs at a fixed rate (§5.7).
	Flooder = workload.Flooder
)

// StartPopulation validates the configuration and launches n clients
// with consecutive source addresses.
func StartPopulation(n int, cfg ClientConfig) (*Population, error) {
	return workload.StartPopulation(n, cfg)
}

// MustStartClient launches one closed-loop client and panics on an
// invalid configuration; convenient for examples and tests with
// known-good configs.
func MustStartClient(cfg ClientConfig) *Client { return workload.MustStartClient(cfg) }

// MustStartPopulation is StartPopulation that panics on an invalid
// configuration; convenient for examples and tests with known-good
// configs.
func MustStartPopulation(n int, cfg ClientConfig) *Population {
	return workload.MustStartPopulation(n, cfg)
}

// StartFlood begins a SYN flood; see workload.StartFlood.
func StartFlood(k *Kernel, rate Rate, prefix IP, hosts uint32, dst Address) *Flooder {
	return workload.StartFlood(k, rate, prefix, hosts, dst)
}

// Virtual-time types (internal/sim).
type (
	// Time is a point in virtual time.
	Time = sim.Time
	// Duration is a span of virtual time.
	Duration = sim.Duration
	// Rate is events per virtual second.
	Rate = sim.Rate
	// Engine is the discrete-event engine.
	Engine = sim.Engine
)

// Duration units.
const (
	Millisecond Duration = sim.Millisecond
	Second      Duration = sim.Second
)

// Fault injection and resilience (internal/fault, internal/workload).
type (
	// FaultConfig sets the per-class probabilities of the deterministic
	// fault injector: wire drop/duplicate/reorder/delay and disk
	// error/latency-spike rates.
	FaultConfig = fault.Config
	// FaultInjector draws seed-stable wire and disk fault schedules;
	// assign it to Kernel.Faults and Kernel.Disk().Faults.
	FaultInjector = fault.Injector
	// InvariantChecker periodically asserts CPU-charge conservation,
	// virtual-clock monotonicity and queue bounds at runtime; wire a
	// kernel in with Kernel.WatchInvariants.
	InvariantChecker = fault.Checker
	// CrashPlan configures a crash-and-restart schedule (MTBF, downtime).
	CrashPlan = fault.CrashPlan
	// Crasher drives crash/restart callbacks on an Exp(MTBF) schedule.
	Crasher = fault.Crasher
	// SlowLoris is an attacker that holds server connections open by
	// trickling bytes that never form a request.
	SlowLoris = workload.SlowLoris
	// SlowLorisConfig configures a slow-loris attacker.
	SlowLorisConfig = workload.SlowLorisConfig
)

// NewFaultInjector returns a deterministic fault injector drawing from
// the engine's seed; each fault class uses its own forked stream, so
// enabling one class never perturbs another's schedule.
func NewFaultInjector(eng *Engine, cfg FaultConfig) *FaultInjector {
	return fault.NewInjector(eng, cfg)
}

// NewInvariantChecker returns a runtime invariant checker; call Start to
// begin periodic checks.
func NewInvariantChecker(eng *Engine) *InvariantChecker { return fault.NewChecker(eng) }

// StartCrasher schedules crash/restart cycles; see fault.StartCrasher.
// It returns fault.ErrCrashPlan if the plan's MTBF is not positive.
func StartCrasher(eng *Engine, plan CrashPlan, crash, restart func()) (*Crasher, error) {
	return fault.StartCrasher(eng, plan, crash, restart)
}

// StartSlowLoris launches a slow-loris attacker; see
// workload.StartSlowLoris.
func StartSlowLoris(cfg SlowLorisConfig) *SlowLoris { return workload.StartSlowLoris(cfg) }

// Enforcer applies container CPU limits and accounting to real
// (non-simulated) Go programs via cooperative bracketing — the userspace
// approximation of the paper's kernel mechanism. See
// examples/realtime-limiter.
type Enforcer = rcruntime.Enforcer

// NewEnforcer returns an enforcer over the wall clock with the given
// limit window (0 for the default).
func NewEnforcer(window time.Duration) *Enforcer {
	return rcruntime.New(nil, window)
}

// Runtime surface: govern a real net/http server with containers
// (internal/rcruntime). The Runtime binds each request to a Container,
// charges its wall-clock cost into the hierarchy, sheds over-budget
// requests at the middleware (429) and over-budget or over-cap
// connections at accept — the production counterpart of the simulated
// kernel's Policing. See cmd/rcserve and `rcbench -exp live`.
type (
	// Runtime binds containers to goroutines serving real net/http load:
	// Middleware charges and sheds requests, Listener polices accepts.
	Runtime = rcruntime.Runtime
	// RuntimeConfig configures a Runtime; validate with its Validate
	// method, or let NewRuntime do it.
	RuntimeConfig = rcruntime.Config
	// RuntimeOption is a functional option for NewRuntime (WithBinder,
	// WithTelemetrySink, WithBreakers).
	RuntimeOption = rcruntime.Option
	// RuntimeStats is a snapshot of a Runtime's request and connection
	// counters.
	RuntimeStats = rcruntime.Stats
	// Binder resolves an incoming request to the Container that pays for
	// it (§4.2 dynamic binding).
	Binder = rcruntime.Binder
	// AcceptPolicy configures connection shedding at accept — the real
	// analogue of the simulated kernel's Policing.
	AcceptPolicy = rcruntime.AcceptPolicy
	// RequestEvent is the telemetry record emitted per governed request.
	RequestEvent = rcruntime.RequestEvent
	// TelemetrySink receives RequestEvents from a Runtime.
	TelemetrySink = rcruntime.TelemetrySink
)

// NewRuntime validates cfg, applies opts, and returns a Runtime
// governing real HTTP load with the configured container hierarchy.
func NewRuntime(cfg RuntimeConfig, opts ...RuntimeOption) (*Runtime, error) {
	return rcruntime.NewRuntime(cfg, opts...)
}

// MustNewRuntime is NewRuntime, panicking on error — for wiring known
// at compile time.
func MustNewRuntime(cfg RuntimeConfig, opts ...RuntimeOption) *Runtime {
	return rcruntime.MustNewRuntime(cfg, opts...)
}

// WithBinder sets how requests resolve to containers (nil keeps
// bind-to-root).
func WithBinder(b Binder) RuntimeOption { return rcruntime.WithBinder(b) }

// WithTelemetrySink streams per-request events to s (nil discards).
func WithTelemetrySink(s TelemetrySink) RuntimeOption { return rcruntime.WithTelemetrySink(s) }

// HeaderBinder binds requests by the named header to the matching
// container in tenants, falling back to def (nil def means the
// Runtime's root).
func HeaderBinder(header string, tenants map[string]*Container, def *Container) Binder {
	return rcruntime.HeaderBinder(header, tenants, def)
}

// RebindRequest re-binds an in-flight request to c (§4.2): the running
// segment is charged to the old container and subsequent time accrues
// to c. It reports false if the request carries no binding or c is
// unusable.
func RebindRequest(ctx context.Context, c *Container) bool { return rcruntime.Rebind(ctx, c) }

// Survivability surface: graceful degradation and closed-loop
// governance for the real runtime — per-tenant circuit breakers,
// drain/shutdown with a leak report, an alert-check battery sampling
// the runtime's counters, and a watchdog that clamps the dominant
// over-budget tenant and restores it once the storm passes. See
// DESIGN.md §13 and `rcbench -exp livechaos`.
type (
	// DrainReport summarizes a Runtime drain: whether every in-flight
	// request finished inside the grace period, how many leaked, and how
	// long the drain waited.
	DrainReport = rcruntime.DrainReport
	// BreakerConfig tunes the per-tenant circuit breakers enabled by
	// WithBreakers: the consecutive sheds that open a breaker.
	BreakerConfig = rcruntime.BreakerConfig
	// RuntimeMonitorConfig tunes the runtime check battery: the
	// shed-rate thresholds, the clear hysteresis and the tenants whose
	// CPU share is watched.
	RuntimeMonitorConfig = rcruntime.MonitorConfig
	// RuntimeMonitor samples a Runtime's counters into an AlertMonitor
	// on every Tick — the adapter between the live runtime and the
	// alerting subsystem.
	RuntimeMonitor = rcruntime.Monitor
	// RuntimeWatchdogConfig is WatchdogConfig; on the runtime its
	// Triggers default to the rt-* checks and Clampable lists the
	// tenants the watchdog may clamp.
	RuntimeWatchdogConfig = alert.WatchdogConfig
	// RuntimeWatchdog is Watchdog acting on the runtime: on critical
	// runtime alerts it clamps the runaway tenant and tightens the
	// accept policy toward it, then restores the saved settings after a
	// calm stretch — every action journaled in the alert stream.
	RuntimeWatchdog = alert.Watchdog
)

// NewAlertMonitor returns an empty alert monitor, ready for a check
// battery — the runtime path registers one via AttachRuntimeMonitor
// (WithWatchdog builds the simulated kernel's own).
func NewAlertMonitor() *AlertMonitor { return alert.New() }

// WithBreakers enables per-tenant circuit breakers on a Runtime:
// consecutive sheds open a tenant's breaker, which fails fast with 503
// until a half-open probe is admitted again.
func WithBreakers(cfg BreakerConfig) RuntimeOption { return rcruntime.WithBreakers(cfg) }

// AttachRuntimeMonitor registers the runtime check battery on am and
// returns the adapter whose Tick samples rt's counters into it.
func AttachRuntimeMonitor(rt *Runtime, am *AlertMonitor, cfg RuntimeMonitorConfig) (*RuntimeMonitor, error) {
	return rcruntime.AttachMonitor(rt, am, cfg)
}

// AttachRuntimeWatchdog wires the closed-loop watchdog to a runtime
// monitor's critical alerts.
func AttachRuntimeWatchdog(m *RuntimeMonitor, cfg RuntimeWatchdogConfig) *RuntimeWatchdog {
	return rcruntime.AttachWatchdog(m, cfg)
}

// Telemetry (internal/telemetry, internal/trace).
type (
	// Telemetry collects structured trace events, per-principal usage
	// timelines and the virtual-CPU profile for one kernel.
	Telemetry = telemetry.Collector
	// Stage is the kernel execution stage CPU time is attributed to.
	Stage = trace.Stage
)

// Kernel execution stages of the virtual-CPU profile.
const (
	StageInterrupt Stage = trace.StageInterrupt
	StageIP        Stage = trace.StageIP
	StageSocket    Stage = trace.StageSocket
	StageSyscall   Stage = trace.StageSyscall
	StageUser      Stage = trace.StageUser
	StageDisk      Stage = trace.StageDisk
)

// NewTelemetry returns a detached telemetry collector; attach it to a
// running sim with Kernel.AttachTelemetry (WithTelemetry builds and
// attaches its own at construction).
func NewTelemetry() *Telemetry { return telemetry.New() }

// Alerting and the closed-loop overload watchdog (internal/alert). The
// monitor consumes the telemetry sampling tick, so the kernel must have
// a collector attached first (WithWatchdog takes care of that).
type (
	// AlertMonitor evaluates a registered check battery on every
	// telemetry sampling tick and publishes a deterministic,
	// hysteresis-filtered event stream (JSONL via WriteJSONL).
	AlertMonitor = alert.Monitor
	// AlertLevel is an alert severity (ok, warning, critical).
	AlertLevel = alert.Level
	// Watchdog is the closed loop on the alert stream, one state machine
	// for both worlds: on critical overload it tightens admission
	// control (kernel SYN policing in the simulation, the accept policy
	// on the runtime) and clamps a runaway container, restoring with
	// exponential backoff.
	Watchdog = alert.Watchdog
	// WatchdogConfig tunes the watchdog's triggers, clamp limit and
	// restore backoff.
	WatchdogConfig = alert.WatchdogConfig
)

// Alert severities.
const (
	AlertOk       AlertLevel = alert.LevelOk
	AlertWarning  AlertLevel = alert.LevelWarning
	AlertCritical AlertLevel = alert.LevelCritical
)

// Closed-loop adaptive rebalancing (internal/rebalance). The controller
// watches per-member demand counters on the telemetry sampling tick and
// live-rewrites container attributes toward the demand split, under
// hard robustness bounds: per-tick step clamps with cooldowns, a
// starvation floor no member is ever pushed below, conserved pool
// totals, and an oscillation detector that disarms the controller and
// restores the saved static shares verbatim if damping proves
// insufficient. Every decision lands in a deterministic JSONL journal.
type (
	// Rebalancer is the feedback controller; inspect it with Steps,
	// Disarms, Disarmed, Allocations, the Audit* invariant probes and
	// the WriteJSONL decision journal.
	Rebalancer = rebalance.Controller
	// RebalanceConfig tunes damping (step clamp, cooldown, deadband),
	// the starvation floor, the oscillation detector and the demand
	// smoothing window. The zero value picks conservative defaults.
	RebalanceConfig = rebalance.Config
	// RebalancePool declares one governed pool: a named resource and at
	// least two members whose current allocations become both the saved
	// static split and the conserved pool total.
	RebalancePool = rebalance.PoolConfig
	// RebalanceMember pairs a container with its cumulative demand
	// counter (monotonic; the controller differences it per tick).
	RebalanceMember = rebalance.Member
	// RebalanceResource selects which attribute a pool trades between
	// members: CPU share, CPU limit or memory quota.
	RebalanceResource = rebalance.Resource
)

// Rebalanceable resources.
const (
	RebalanceCPUShare RebalanceResource = rebalance.CPUShare
	RebalanceCPULimit RebalanceResource = rebalance.CPULimit
	RebalanceMemQuota RebalanceResource = rebalance.MemQuota
)

// AttachRuntimeRebalancer drives a rebalance controller from a live
// runtime monitor's enforcement tick, serialized against the enforcer's
// snapshot-decide-apply cycle; see rcruntime.AttachRebalancer. Attach
// the runtime watchdog first and list it in cfg.Freeze so emergency
// actuation wins arbitration.
func AttachRuntimeRebalancer(m *RuntimeMonitor, cfg RebalanceConfig) (*Rebalancer, error) {
	return rcruntime.AttachRebalancer(m, cfg)
}

// Sim bundles a discrete-event engine with a simulated kernel.
type Sim struct {
	Engine *Engine
	Kernel *Kernel
	// Telemetry is the attached collector, nil unless WithTelemetry was
	// used (or a collector was attached to the kernel afterwards).
	Telemetry *Telemetry
	// Alerts is the alert monitor the watchdog reacts to, nil unless
	// WithWatchdog was used.
	Alerts *AlertMonitor
	// Watchdog is the attached closed loop, nil unless WithWatchdog was
	// used.
	Watchdog *Watchdog
	// Rebalancer is the attached adaptive share controller, nil unless
	// WithRebalancer was used. Pools are added with AddPool once the
	// governed containers exist.
	Rebalancer *Rebalancer
}

// SimOption customizes NewSim.
type SimOption func(*simOptions)

type simOptions struct {
	costs CostModel
	ncpus int
	tel   *telemetry.Collector
	wd    *alert.WatchdogConfig
	reb   *rebalance.Config
}

// WithCosts replaces the default (paper-calibrated) cost model.
func WithCosts(costs CostModel) SimOption {
	return func(o *simOptions) { o.costs = costs }
}

// WithCPUs simulates a multiprocessor machine: interrupts go to CPU 0,
// threads migrate freely, and container shares/limits are fractions of
// the whole machine.
func WithCPUs(n int) SimOption {
	return func(o *simOptions) { o.ncpus = n }
}

// WithTelemetry attaches a telemetry collector: structured tracing,
// usage-timeline sampling and virtual-CPU profiling are active from the
// first event. The collector is reachable as Sim.Telemetry.
func WithTelemetry() SimOption {
	return func(o *simOptions) { o.tel = telemetry.New() }
}

// WithWatchdog attaches the built-in alert battery on the telemetry
// sampling tick (reachable as Sim.Alerts) plus the closed-loop overload
// watchdog reacting to it (reachable as Sim.Watchdog). A telemetry
// collector is attached implicitly if WithTelemetry is not also given.
func WithWatchdog(cfg WatchdogConfig) SimOption {
	return func(o *simOptions) { o.wd = &cfg }
}

// WithRebalancer attaches the closed-loop adaptive share controller on
// the telemetry sampling tick; the controller is reachable as
// Sim.Rebalancer (add pools with AddPool once the governed containers
// exist). A telemetry collector is attached implicitly if WithTelemetry
// is not also given. When WithWatchdog is also given, the watchdog is
// attached first and appended to cfg.Freeze automatically, so emergency
// actuation always wins arbitration and the controller freezes while
// the watchdog is engaged. Zero-valued damping knobs in cfg take the
// package defaults.
func WithRebalancer(cfg RebalanceConfig) SimOption {
	return func(o *simOptions) { o.reb = &cfg }
}

// NewSim creates a deterministic simulation in the given kernel mode,
// customized by functional options: WithCosts, WithCPUs, WithTelemetry,
// WithWatchdog, WithRebalancer.
func NewSim(mode Mode, seed int64, opts ...SimOption) *Sim {
	o := simOptions{costs: kernel.DefaultCosts(), ncpus: 1}
	for _, opt := range opts {
		opt(&o)
	}
	eng := sim.NewEngine(seed)
	k := kernel.NewSMP(eng, mode, o.costs, o.ncpus)
	s := &Sim{Engine: eng, Kernel: k}
	if o.tel == nil && (o.wd != nil || o.reb != nil) {
		o.tel = telemetry.New()
	}
	if o.tel != nil {
		k.AttachTelemetry(o.tel)
		s.Telemetry = o.tel
	}
	if o.wd != nil {
		m, err := alert.Attach(k)
		if err != nil {
			panic("rescon: WithWatchdog: " + err.Error())
		}
		s.Alerts = m
		s.Watchdog = alert.AttachWatchdog(m, k, *o.wd)
	}
	if o.reb != nil {
		rcfg := *o.reb
		if s.Watchdog != nil {
			// The watchdog registered its sample hook first, so by the
			// time the controller ticks its Engaged state is current;
			// listing it in Freeze makes emergency actuation win.
			rcfg.Freeze = append(rcfg.Freeze, s.Watchdog)
		}
		r, err := rebalance.Attach(s.Telemetry, rcfg)
		if err != nil {
			panic("rescon: WithRebalancer: " + err.Error())
		}
		s.Rebalancer = r
	}
	return s
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.Engine.Now() }

// RunFor advances the simulation by d of virtual time.
func (s *Sim) RunFor(d Duration) { s.Engine.RunUntil(s.Engine.Now().Add(d)) }

// RunUntil advances the simulation to absolute virtual time t.
func (s *Sim) RunUntil(t Time) { s.Engine.RunUntil(t) }
