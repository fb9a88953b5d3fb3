// Package rescon is the public facade of the resource-containers
// reproduction (Banga, Druschel & Mogul, "Resource Containers: A New
// Facility for Resource Management in Server Systems", OSDI 1999).
//
// The package re-exports the core abstractions so that applications deal
// with a single import:
//
//   - Container / Attributes / Usage — the resource principal (§4.1–§4.6)
//   - Kernel / Process / Thread — the simulated monolithic kernel with
//     three execution models (unmodified, LRP, resource containers)
//   - Server / MTServer — the event-driven and multi-threaded HTTP server
//     models of §2
//   - Client / Population / Flooder — workload generators (§5.2)
//   - Telemetry — structured tracing, usage timelines and the
//     virtual-CPU profile (attach with WithTelemetry)
//   - AlertMonitor / Watchdog — sockstat-style overload detection on the
//     telemetry stream and the closed-loop reaction (attach with
//     WithAlerts, or AttachAlerts + AttachWatchdog)
//   - Rebalancer — the closed-loop adaptive share controller: shifts
//     container attributes between pool members in proportion to
//     demand, with starvation floors, damping and a self-disarming
//     oscillation detector (attach with WithRebalancer, or
//     AttachRebalancer / AttachRuntimeRebalancer)
//   - Runtime / Binder / AcceptPolicy — the real-runtime bridge: govern
//     a live net/http server with containers (NewRuntime, cmd/rcserve,
//     `rcbench -exp live`)
//
// # Quick start
//
//	s := rescon.NewSim(rescon.ModeRC, 42,
//	    rescon.WithTelemetry(rescon.TelemetryConfig{}))
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
// (NewSim, NewContainer, NewServer, NewMTServer, NewFaultInjector,
// NewInvariantChecker, NewEnforcer, NewTelemetry). Start* constructors
// put work on the engine before returning — the returned object is
// already acting and will consume virtual time as soon as the simulation
// runs (StartClient, StartPopulation, StartFlood, StartCrasher,
// StartSlowLoris). A Server is New* because it only reacts to kernel
// upcalls; a Client is Start* because its request loop begins
// immediately.
//
// # Deprecation and removal schedule
//
// Facade symbols are never removed silently. A symbol slated for
// removal first gains a Deprecated notice naming its replacement, stays
// for two further tagged releases so downstream callers can migrate at
// their own pace, and is then deleted. The first full cycle of that
// schedule has now run: NewSimWithCosts and NewSMPSim carried their
// notices for two tagged releases and have been removed — use NewSim
// with the WithCosts / WithCPUs options instead. No facade symbol is
// currently deprecated.
//
// See the examples/ directory for complete programs and cmd/rcbench for
// the harness that regenerates every table and figure of the paper.
package rescon

import (
	"context"
	"time"

	"rescon/internal/alert"
	"rescon/internal/chaos"
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
	// ContainerUsage is the resource consumption charged to a container.
	ContainerUsage = rc.Usage
	// Class distinguishes fixed-share from time-share containers.
	Class = rc.Class
	// Desc is a per-process container descriptor.
	Desc = rc.Desc
)

// Container classes.
const (
	TimeShare  = rc.TimeShare
	FixedShare = rc.FixedShare
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
	// Process is a protection domain in the simulated kernel.
	Process = kernel.Process
	// Thread is a kernel-schedulable thread.
	Thread = kernel.Thread
	// Conn is an established connection.
	Conn = kernel.Conn
	// ListenSocket is a (possibly filtered) listening socket.
	ListenSocket = kernel.ListenSocket
	// ListenConfig configures a listening socket.
	ListenConfig = kernel.ListenConfig
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
	ModeUnmodified = kernel.ModeUnmodified
	ModeLRP        = kernel.ModeLRP
	ModeRC         = kernel.ModeRC
)

// DefaultPriority is the container priority used when none is specified;
// priority 0 is the idle class.
const DefaultPriority = kernel.DefaultPriority

// NoParent passes "no parent" to container syscalls.
const NoParent = kernel.NoParent

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
	// MTServer is the single-process multi-threaded server (Fig. 3/9).
	MTServer = httpsim.MTServer
	// Request is one HTTP request payload.
	Request = httpsim.Request
	// API selects select() vs the scalable event API.
	API = httpsim.API
)

// Event APIs.
const (
	SelectAPI = httpsim.SelectAPI
	EventAPI  = httpsim.EventAPI
)

// Request kinds.
const (
	Static = httpsim.Static
	CGI    = httpsim.CGI
)

// NewServer starts an event-driven server; see httpsim.NewServer.
func NewServer(cfg ServerConfig) (*Server, error) { return httpsim.NewServer(cfg) }

// NewMTServer starts a multi-threaded server with the given pool size.
func NewMTServer(cfg ServerConfig, threads int) (*MTServer, error) {
	return httpsim.NewMTServer(cfg, threads)
}

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

// StartClient validates the configuration and launches one closed-loop
// client.
func StartClient(cfg ClientConfig) (*Client, error) { return workload.StartClient(cfg) }

// StartPopulation validates the configuration and launches n clients
// with consecutive source addresses.
func StartPopulation(n int, cfg ClientConfig) (*Population, error) {
	return workload.StartPopulation(n, cfg)
}

// MustStartClient is StartClient that panics on an invalid configuration;
// convenient for examples and tests with known-good configs.
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
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
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
	// FaultStats counts injected faults by class.
	FaultStats = fault.Stats
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

// Deterministic chaos harness (internal/chaos): seed-generated
// scenarios, an invariant battery, and auto-shrinking repros. See
// DESIGN.md §9 and cmd/rcchaos.
type (
	// ChaosScenario is a fully serializable description of one chaos
	// run: container hierarchy, workload mix, fault schedule, crash
	// plan, kernel mode and machine shape — a pure function of its seed.
	ChaosScenario = chaos.Scenario
	// ChaosResult reports one chaos run: violations, the determinism
	// hash, and the end-of-run resource counters.
	ChaosResult = chaos.Result
)

// GenerateChaosScenario derives a random-but-valid scenario from the
// seed; the same seed always yields the same scenario.
func GenerateChaosScenario(seed uint64) ChaosScenario { return chaos.Generate(seed) }

// RunChaos runs a scenario twice on fresh engines with the full
// invariant battery and adds a violation if the two run hashes differ;
// see chaos.RunChecked.
func RunChaos(sc ChaosScenario) (*ChaosResult, error) { return chaos.RunChecked(sc) }

// ShrinkChaosScenario greedily minimizes a failing scenario while it
// still fails with the same violation class (see chaos.Classify).
func ShrinkChaosScenario(sc ChaosScenario, class string) ChaosScenario {
	return chaos.Shrink(sc, class)
}

// LoadChaosScenario reads and validates a scenario (repro) JSON file.
func LoadChaosScenario(path string) (ChaosScenario, error) { return chaos.LoadScenario(path) }

// ChaosSmoke generates `runs` scenarios starting at seed and runs each
// under all three kernel modes, returning the first failure.
func ChaosSmoke(runs int, seed uint64) error { return chaos.Smoke(runs, seed) }

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
	// RuntimeOption is a functional option for NewRuntime (WithClock,
	// WithWindow, WithBinder, WithTelemetrySink).
	RuntimeOption = rcruntime.Option
	// RuntimeStats is a snapshot of a Runtime's request and connection
	// counters.
	RuntimeStats = rcruntime.Stats
	// RuntimeClock abstracts time for the Runtime so tests and the live
	// experiment can inject a deterministic clock.
	RuntimeClock = rcruntime.Clock
	// Binder resolves an incoming request to the Container that pays for
	// it (§4.2 dynamic binding).
	Binder = rcruntime.Binder
	// BinderFunc adapts a function to a Binder.
	BinderFunc = rcruntime.BinderFunc
	// AcceptPolicy configures connection shedding at accept — the real
	// analogue of the simulated kernel's Policing.
	AcceptPolicy = rcruntime.AcceptPolicy
	// RequestEvent is the telemetry record emitted per governed request.
	RequestEvent = rcruntime.RequestEvent
	// TelemetrySink receives RequestEvents from a Runtime.
	TelemetrySink = rcruntime.TelemetrySink
)

// NoDelay, as a RuntimeConfig.MaxDelay, makes admission try-once: an
// over-budget request is shed immediately instead of waiting for the
// window to roll.
const NoDelay = rcruntime.NoDelay

// ErrBadConfig is wrapped by every RuntimeConfig validation failure.
var ErrBadConfig = rcruntime.ErrBadConfig

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

// WithClock injects the Runtime's time source (nil keeps the wall
// clock).
func WithClock(c RuntimeClock) RuntimeOption { return rcruntime.WithClock(c) }

// WithWindow overrides the enforcement window.
func WithWindow(w time.Duration) RuntimeOption { return rcruntime.WithWindow(w) }

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

// BoundContainer returns the container an in-flight request is
// currently charged to, or nil outside a governed request.
func BoundContainer(ctx context.Context) *Container { return rcruntime.Bound(ctx) }

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
	// WithBreakers: consecutive sheds to open, the open duration, and
	// its exponential-backoff bound.
	BreakerConfig = rcruntime.BreakerConfig
	// RuntimeMonitorConfig sets the thresholds of the runtime check
	// battery (shed rate, refusal rate, inflight gauge, panics,
	// per-tenant CPU share, open breakers).
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
// (the simulated kernel's AttachAlerts builds its own).
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

// Request-outcome causes recorded in RequestEvent.Cause by a governed
// Runtime (served requests carry an empty cause).
const (
	// CauseShed marks a 429: the subtree's window budget stayed
	// exhausted past the request's admission patience.
	CauseShed = rcruntime.CauseShed
	// CauseBreaker marks a 503 from an open per-tenant circuit breaker.
	CauseBreaker = rcruntime.CauseBreaker
	// CauseDrain marks a 503 issued while the runtime is draining.
	CauseDrain = rcruntime.CauseDrain
	// CausePanic marks a request whose handler panicked; the partial
	// work is still charged.
	CausePanic = rcruntime.CausePanic
)

// Live fault injection (internal/fault): deterministic connection
// resets, read stalls, handler stalls and panics for a real net/http
// server — the chaos layer behind `rcbench -exp livechaos`.
type (
	// LiveFaultConfig sets the per-event probabilities and durations of
	// the injected faults.
	LiveFaultConfig = fault.LiveConfig
	// LiveFaultInjector wraps a listener and an http.Handler with
	// seeded fault injection and tallies what it injected.
	LiveFaultInjector = fault.LiveInjector
	// LiveFaultStats counts the faults actually injected in a run.
	LiveFaultStats = fault.LiveStats
)

// NewLiveFaultInjector returns a deterministic injector for the seed;
// sleeper nil uses real time (tests pass the runtime's clock).
func NewLiveFaultInjector(seed int64, cfg LiveFaultConfig, sleeper fault.Sleeper) *LiveFaultInjector {
	return fault.NewLive(seed, cfg, sleeper)
}

// Live chaos harness (internal/chaos): seed-generated scenarios fuzzing
// the breaker/watchdog closed loop on the real middleware stack, with
// auto-shrinking repros. See cmd/rcchaos -live.
type (
	// LiveChaosScenario describes one live chaos run — tenants, fault
	// rates, breaker and watchdog settings — as a pure function of its
	// seed.
	LiveChaosScenario = chaos.LiveScenario
	// LiveChaosResult reports one live run: violations, the determinism
	// hash, watchdog cycle counts, and per-tenant request ledgers.
	LiveChaosResult = chaos.LiveResult
)

// GenerateLiveChaosScenario derives a random-but-valid live scenario
// from the seed.
func GenerateLiveChaosScenario(seed uint64) LiveChaosScenario { return chaos.GenerateLive(seed) }

// RunLiveChaos runs a live scenario twice on fresh runtimes with the
// live invariant battery and adds a violation if the run hashes differ.
func RunLiveChaos(sc LiveChaosScenario) (*LiveChaosResult, error) { return chaos.RunLiveChecked(sc) }

// ShrinkLiveChaosScenario greedily minimizes a failing live scenario
// while it still fails with the same violation class.
func ShrinkLiveChaosScenario(sc LiveChaosScenario, class string) LiveChaosScenario {
	return chaos.ShrinkLive(sc, class)
}

// LoadLiveChaosScenario reads and validates a live scenario (repro)
// JSON file.
func LoadLiveChaosScenario(path string) (LiveChaosScenario, error) {
	return chaos.LoadLiveScenario(path)
}

// LiveChaosSmoke generates `runs` live scenarios starting at seed and
// runs each with the checker, returning the first failure.
func LiveChaosSmoke(runs int, seed uint64) error { return chaos.LiveSmoke(runs, seed) }

// Telemetry and structured tracing (internal/telemetry, internal/trace).
type (
	// Telemetry collects structured trace events, per-principal usage
	// timelines and the virtual-CPU profile for one kernel.
	Telemetry = telemetry.Collector
	// TelemetryConfig sizes a Telemetry collector (zero values take
	// defaults).
	TelemetryConfig = telemetry.Config
	// TelemetrySample is one usage-timeline row.
	TelemetrySample = telemetry.Sample
	// ProfileRow is one (principal × stage) cell of the virtual-CPU
	// profile.
	ProfileRow = telemetry.ProfileRow
	// Tracer is the bounded structured event ring.
	Tracer = trace.Tracer
	// TraceEvent is one structured trace record.
	TraceEvent = trace.Event
	// TraceKind classifies trace events.
	TraceKind = trace.Kind
	// Stage is the kernel execution stage CPU time is attributed to.
	Stage = trace.Stage
)

// Kernel execution stages of the virtual-CPU profile.
const (
	StageInterrupt = trace.StageInterrupt
	StageIP        = trace.StageIP
	StageSocket    = trace.StageSocket
	StageSyscall   = trace.StageSyscall
	StageUser      = trace.StageUser
	StageDisk      = trace.StageDisk
)

// NewTelemetry returns a detached telemetry collector; attach it with
// WithTelemetry (at construction) or Kernel.AttachTelemetry (later).
func NewTelemetry(cfg TelemetryConfig) *Telemetry { return telemetry.New(cfg) }

// Alerting and the closed-loop overload watchdog (internal/alert). The
// monitor consumes the telemetry sampling tick, so the kernel must have
// a collector attached first (WithAlerts takes care of that).
type (
	// AlertMonitor evaluates a registered check battery on every
	// telemetry sampling tick and publishes a deterministic,
	// hysteresis-filtered event stream (JSONL via WriteJSONL).
	AlertMonitor = alert.Monitor
	// AlertConfig tunes the built-in check battery: disable built-ins by
	// name, append extra checks.
	AlertConfig = alert.Config
	// AlertCheck is one pluggable detector: thresholds, hysteresis
	// windows and an Observe callback.
	AlertCheck = alert.Check
	// AlertObservation is one (target, value) reading of a check.
	AlertObservation = alert.Observation
	// AlertEvent is one published alert-state transition.
	AlertEvent = alert.Event
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
	AlertOk       = alert.LevelOk
	AlertWarning  = alert.LevelWarning
	AlertCritical = alert.LevelCritical
)

// AttachAlerts builds an AlertMonitor with the built-in check battery
// over k and subscribes it to the telemetry sampling tick; see
// alert.Attach. The kernel must already have a telemetry collector.
func AttachAlerts(k *Kernel, cfg AlertConfig) (*AlertMonitor, error) {
	return alert.Attach(k, cfg)
}

// AttachWatchdog wires the closed-loop watchdog to a monitor's event
// stream; call after AttachAlerts, before running load.
func AttachWatchdog(m *AlertMonitor, k *Kernel, cfg WatchdogConfig) *Watchdog {
	return alert.AttachWatchdog(m, k, cfg)
}

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
	// RebalanceFreezer is an actuator the controller yields to: while
	// Engaged returns true the controller freezes, and it resyncs its
	// view of member attributes before resuming. Watchdog implements
	// it in both worlds.
	RebalanceFreezer = rebalance.Freezer
)

// Rebalanceable resources.
const (
	RebalanceCPUShare = rebalance.CPUShare
	RebalanceCPULimit = rebalance.CPULimit
	RebalanceMemQuota = rebalance.MemQuota
)

// AttachRebalancer builds a rebalance controller and drives it from the
// telemetry sampling tick; see rebalance.Attach. Attach it after
// AttachAlerts / AttachWatchdog so a watchdog listed in cfg.Freeze has
// updated its state by the time the controller runs (sample hooks run
// in registration order); WithRebalancer orders this automatically.
// Pools are added afterwards with AddPool, once the governed containers
// exist.
func AttachRebalancer(tel *Telemetry, cfg RebalanceConfig) (*Rebalancer, error) {
	return rebalance.Attach(tel, cfg)
}

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
	// Alerts is the attached alert monitor, nil unless WithAlerts or
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
	costs  CostModel
	ncpus  int
	tel    *telemetry.Collector
	alerts *alert.Config
	wd     *alert.WatchdogConfig
	reb    *rebalance.Config
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

// WithTelemetry attaches a telemetry collector sized by cfg: structured
// tracing, usage-timeline sampling and virtual-CPU profiling are active
// from the first event. The collector is reachable as Sim.Telemetry.
func WithTelemetry(cfg TelemetryConfig) SimOption {
	return func(o *simOptions) { o.tel = telemetry.New(cfg) }
}

// WithAlerts attaches the built-in alert battery on the telemetry
// sampling tick; the monitor is reachable as Sim.Alerts. A telemetry
// collector is attached implicitly (with default sizing) if WithTelemetry
// is not also given. NewSim panics if cfg is invalid — an Extra check
// reusing a registered name — since that is a programming error, not a
// runtime condition.
func WithAlerts(cfg AlertConfig) SimOption {
	return func(o *simOptions) { o.alerts = &cfg }
}

// WithWatchdog attaches the alert battery (as WithAlerts, with a default
// AlertConfig unless WithAlerts is also given) plus the closed-loop
// overload watchdog reacting to it; the loop is reachable as
// Sim.Watchdog.
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
// customized by functional options: WithCosts, WithCPUs, WithTelemetry.
func NewSim(mode Mode, seed int64, opts ...SimOption) *Sim {
	o := simOptions{costs: kernel.DefaultCosts(), ncpus: 1}
	for _, opt := range opts {
		opt(&o)
	}
	eng := sim.NewEngine(seed)
	k := kernel.NewSMP(eng, mode, o.costs, o.ncpus)
	s := &Sim{Engine: eng, Kernel: k}
	if o.tel == nil && (o.alerts != nil || o.wd != nil || o.reb != nil) {
		o.tel = telemetry.New(telemetry.Config{})
	}
	if o.tel != nil {
		k.AttachTelemetry(o.tel)
		s.Telemetry = o.tel
	}
	if o.alerts != nil || o.wd != nil {
		acfg := alert.Config{}
		if o.alerts != nil {
			acfg = *o.alerts
		}
		m, err := alert.Attach(k, acfg)
		if err != nil {
			panic("rescon: WithAlerts: " + err.Error())
		}
		s.Alerts = m
		if o.wd != nil {
			s.Watchdog = alert.AttachWatchdog(m, k, *o.wd)
		}
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
