package rcruntime

import (
	"fmt"

	"rescon/internal/alert"
	"rescon/internal/rebalance"
	"rescon/internal/sim"
)

// AttachRebalancer hangs an adaptive rebalance.Controller off the
// monitor's tick, actuating through the enforcer: the whole control
// round — demand sampling, watchdog arbitration, SetAttributes — runs
// as one Enforcer.Sync critical section, so the controller never
// observes (or produces) a half-applied hierarchy while request
// goroutines are charging usage. Pool demand closures therefore run
// under the enforcer lock too: keep them to plain reads
// (Container.Usage, counters), and never call Sync from one.
//
// If the monitor's alert.Monitor drives a Watchdog, attach the watchdog
// first and list it in cfg.Freeze: OnTick hooks run in registration
// order, so the watchdog observes and acts on each tick before the
// rebalancer decides whether it is preempted. Pools are added
// afterwards with Controller.AddPool, once the tenant containers exist.
func AttachRebalancer(m *Monitor, cfg rebalance.Config) (*rebalance.Controller, error) {
	if m == nil {
		return nil, fmt.Errorf("rcruntime: AttachRebalancer needs a monitor")
	}
	ctrl := rebalance.New(cfg)
	enf := m.rt.enf
	m.am.OnTick(func(at sim.Time) {
		enf.Sync(func() { ctrl.Tick(at) })
	})
	return ctrl, nil
}

// The watchdog is the rebalancer's arbitration partner in both worlds.
var _ rebalance.Freezer = (*alert.Watchdog)(nil)
