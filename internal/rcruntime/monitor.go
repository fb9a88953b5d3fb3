// Monitor: the bridge from the live runtime's counters to the alert
// package's check battery. The simulation feeds alert.Monitor from
// kernel state on the telemetry tick; a real server has no kernel to
// sample, so this adapter derives the same kind of leading indicators —
// shed-rate deltas, accept refusals, in-flight gauge, panic rate,
// per-tenant CPU share, breaker pressure — from Runtime.Stats and the
// governed container hierarchy, and drives the monitor on whatever tick
// cadence the caller chooses. Under a virtual clock every tick is a
// deterministic function of the request history, so the alert stream is
// byte-stable across runs — the property the livechaos experiment
// asserts.

package rcruntime

import (
	"time"

	"rescon/internal/alert"
	"rescon/internal/rc"
	"rescon/internal/sim"
)

// Check names registered by AttachMonitor. They share the alert
// package's event stream with the simulation's sockstat battery, so
// they carry an rt- prefix.
const (
	// CheckShedRate is budget sheds (429s) per tick.
	CheckShedRate = "rt-shed-rate"
	// CheckRefuseRate is connections refused at accept per tick.
	CheckRefuseRate = "rt-refuse-rate"
	// CheckInflight is the in-handler request gauge.
	CheckInflight = "rt-inflight"
	// CheckPanics is recovered handler panics per tick.
	CheckPanics = "rt-panics"
	// CheckTenantCPU is a watched tenant's share of all CPU charged to
	// the governed hierarchy this tick, in [0,1].
	CheckTenantCPU = "rt-tenant-cpu"
	// CheckBreakerOpen is the open-circuit-breaker gauge.
	CheckBreakerOpen = "rt-breaker-open"
)

// Monitor check thresholds (per tick where the check is a rate).
// MonitorConfig can override only the shed pair.
const (
	// DefaultShedWarn / DefaultShedCrit bound budget sheds per tick.
	DefaultShedWarn = 4
	DefaultShedCrit = 16
	// RefuseWarn / RefuseCrit bound accept refusals per tick.
	RefuseWarn = 8
	RefuseCrit = 32
	// InflightWarn / InflightCrit bound the in-handler gauge.
	InflightWarn = 64
	InflightCrit = 256
	// PanicWarn / PanicCrit bound recovered panics per tick.
	PanicWarn = 1
	PanicCrit = 4
	// TenantCPUWarn / TenantCPUCrit bound one tenant's share of the
	// watched tenants' CPU this tick.
	TenantCPUWarn = 0.5
	TenantCPUCrit = 0.75
	// BreakerWarn is the open-breaker count that warns. The check has
	// no critical level: open breakers are the defense working, not the
	// overload itself.
	BreakerWarn = 1
)

// MonitorConfig tunes the runtime check battery; zero shed thresholds
// take the defaults above. Tenants lists the containers watched
// per-tenant by CheckTenantCPU (and typically matches the watchdog's
// Clampable set).
type MonitorConfig struct {
	// ShedWarn / ShedCrit threshold budget sheds (429s) per tick.
	ShedWarn, ShedCrit float64
	// Tenants are the containers CheckTenantCPU reports per-target
	// observations for. Empty disables the check.
	Tenants []*rc.Container
	// Clear overrides the alert package's clear hysteresis for every
	// registered check when positive.
	Clear int
}

func (c MonitorConfig) withDefaults() MonitorConfig {
	if c.ShedWarn <= 0 {
		c.ShedWarn = DefaultShedWarn
	}
	if c.ShedCrit <= 0 {
		c.ShedCrit = DefaultShedCrit
	}
	return c
}

// runtimeTarget is the observation target for whole-runtime checks.
const runtimeTarget = "(runtime)"

// Monitor samples a Runtime into an alert.Monitor on each Tick. It is
// not safe for concurrent Ticks; drive it from one goroutine (the
// telemetry loop, or the experiment's round loop).
type Monitor struct {
	rt  *Runtime
	am  *alert.Monitor
	cfg MonitorConfig

	start time.Time
	prev  Stats

	// this tick's derived values, read by the Observe closures.
	shedRate   float64
	refuseRate float64
	inflight   float64
	panicRate  float64
	breakers   float64

	rootPrev    time.Duration
	tenantPrev  []time.Duration
	tenantShare []float64
	tenantDelta []time.Duration
}

// AttachMonitor registers the runtime check battery on am and returns
// the adapter; drive it with Tick. Registration errors (duplicate check
// names — e.g. two runtimes on one alert.Monitor) are returned, not
// panicked.
func AttachMonitor(rt *Runtime, am *alert.Monitor, cfg MonitorConfig) (*Monitor, error) {
	m := &Monitor{
		rt:    rt,
		am:    am,
		cfg:   cfg.withDefaults(),
		start: rt.clock.Now(),
		prev:  rt.Stats(),
	}
	m.tenantPrev = make([]time.Duration, len(m.cfg.Tenants))
	m.tenantShare = make([]float64, len(m.cfg.Tenants))
	m.tenantDelta = make([]time.Duration, len(m.cfg.Tenants))
	rt.enf.Sync(func() {
		m.rootPrev = time.Duration(rt.cfg.Root.Usage().CPU())
		for i, c := range m.cfg.Tenants {
			m.tenantPrev[i] = time.Duration(c.Usage().CPU())
		}
	})

	gauge := func(v *float64) func() []alert.Observation {
		return func() []alert.Observation {
			return []alert.Observation{{Target: runtimeTarget, Value: *v}}
		}
	}
	checks := []alert.Check{
		{Name: CheckShedRate, Warn: m.cfg.ShedWarn, Crit: m.cfg.ShedCrit,
			Clear: m.cfg.Clear, Observe: gauge(&m.shedRate)},
		{Name: CheckRefuseRate, Warn: RefuseWarn, Crit: RefuseCrit,
			Clear: m.cfg.Clear, Observe: gauge(&m.refuseRate)},
		{Name: CheckInflight, Warn: InflightWarn, Crit: InflightCrit,
			Clear: m.cfg.Clear, Observe: gauge(&m.inflight)},
		{Name: CheckPanics, Warn: PanicWarn, Crit: PanicCrit,
			Clear: m.cfg.Clear, Observe: gauge(&m.panicRate)},
		{Name: CheckBreakerOpen, Warn: BreakerWarn,
			Clear: m.cfg.Clear, Observe: gauge(&m.breakers)},
	}
	if len(m.cfg.Tenants) > 0 {
		// The alert.Monitor copies observations out, so one buffer
		// serves every tick.
		obs := make([]alert.Observation, 0, len(m.cfg.Tenants))
		checks = append(checks, alert.Check{
			Name: CheckTenantCPU, Warn: TenantCPUWarn, Crit: TenantCPUCrit,
			Clear: m.cfg.Clear,
			Observe: func() []alert.Observation {
				obs = obs[:0]
				for i, c := range m.cfg.Tenants {
					obs = append(obs, alert.Observation{
						Target: c.Name(),
						Value:  m.tenantShare[i],
						Format: "cpu +%v this tick",
						Args:   [3]alert.Arg{alert.Dur(m.tenantDelta[i])},
					})
				}
				return obs
			},
		})
	}
	for _, c := range checks {
		if err := am.Register(c); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Alert returns the underlying alert.Monitor (for WriteJSONL, Current,
// Flaps and friends).
func (m *Monitor) Alert() *alert.Monitor { return m.am }

// Tick samples the runtime once and advances every registered check's
// state machine. The tick timestamp is the runtime clock's offset from
// the attach instant, so a virtual clock yields a deterministic event
// stream.
func (m *Monitor) Tick() {
	now := m.rt.clock.Now()
	s := m.rt.Stats()
	m.shedRate = float64(s.Shed - m.prev.Shed)
	m.refuseRate = float64(s.Refused - m.prev.Refused)
	m.inflight = float64(s.InflightRequests)
	m.panicRate = float64(s.Panics - m.prev.Panics)
	m.breakers = float64(m.rt.OpenBreakers())
	m.prev = s

	if len(m.cfg.Tenants) > 0 {
		var rootDelta time.Duration
		m.rt.enf.Sync(func() {
			rootCur := time.Duration(m.rt.cfg.Root.Usage().CPU())
			rootDelta = rootCur - m.rootPrev
			m.rootPrev = rootCur
			for i, c := range m.cfg.Tenants {
				cur := time.Duration(c.Usage().CPU())
				m.tenantDelta[i] = cur - m.tenantPrev[i]
				m.tenantPrev[i] = cur
			}
		})
		for i := range m.cfg.Tenants {
			if rootDelta > 0 {
				m.tenantShare[i] = float64(m.tenantDelta[i]) / float64(rootDelta)
			} else {
				m.tenantShare[i] = 0
			}
		}
	}

	m.am.Tick(sim.Time(now.Sub(m.start)))
}
