// Watchdog actuator: the live runtime's lever for the shared
// alert.Watchdog state machine. On engagement it swaps in a tight
// AcceptPolicy (refuse new connections early, before a goroutine or a
// parsed request is invested in them) aimed at the clamped runaway
// tenant; on restore it reinstates the saved policy. Container reads
// and writes run under the enforcer's lock, and the journal names this
// watchdog "(runtime-watchdog)".

package rcruntime

import (
	"fmt"

	"rescon/internal/alert"
	"rescon/internal/rc"
)

// AttachWatchdog wires the closed-loop watchdog to the monitor's alert
// stream, acting through the runtime's accept policy. cfg.Triggers
// defaults to rt-shed-rate, rt-refuse-rate, rt-inflight and
// rt-tenant-cpu. Call after AttachMonitor, before serving load.
func AttachWatchdog(m *Monitor, cfg alert.WatchdogConfig) *alert.Watchdog {
	if len(cfg.Triggers) == 0 {
		cfg.Triggers = []string{CheckShedRate, CheckRefuseRate, CheckInflight, CheckTenantCPU}
	}
	return alert.AttachWatchdogWith(m.am, &policyActuator{rt: m.rt}, cfg)
}

// policyActuator tightens the runtime's AcceptPolicy.
type policyActuator struct {
	rt    *Runtime
	saved AcceptPolicy
}

func (a *policyActuator) Sync(fn func()) { a.rt.enf.Sync(fn) }

// Wording journals the clamp first: the tight policy is derived from it.
func (a *policyActuator) Wording() alert.Wording {
	return alert.Wording{Target: "(runtime-watchdog)", Runaway: "tenant", ClampFirst: true}
}

// Tighten keeps the saved policy's connection cap (halved, when set)
// and, crucially, points OverBudgetOf at the clamped runaway — the only
// target that actually fires, since an unlimited root is never over
// budget.
func (a *policyActuator) Tighten(clamped *rc.Container) string {
	a.saved = a.rt.Policy()
	tight := AcceptPolicy{Enabled: true, MaxConns: a.saved.MaxConns, Frac: a.saved.Frac, OverBudgetOf: clamped}
	if tight.MaxConns > 1 {
		tight.MaxConns /= 2
	}
	if err := a.rt.SetPolicy(tight); err != nil {
		// Neither a connection cap nor a clamped runaway to police by:
		// nothing the accept path can refuse on. Keep the saved policy.
		return fmt.Sprintf("policy unchanged (%v)", err)
	}
	return fmt.Sprintf("policy tightened max_conns=%d over_budget_of=%s (was enabled=%t max_conns=%d)",
		tight.MaxConns, policyTarget(clamped), a.saved.Enabled, a.saved.MaxConns)
}

func (a *policyActuator) Restore() string {
	_ = a.rt.SetPolicy(a.saved)
	return fmt.Sprintf("restored policy enabled=%t max_conns=%d", a.saved.Enabled, a.saved.MaxConns)
}

func policyTarget(c *rc.Container) string {
	if c == nil {
		return "(none)"
	}
	return c.Name()
}
