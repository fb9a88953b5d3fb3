package chaos

import (
	"rescon/internal/alert"
	"rescon/internal/kernel"
	"rescon/internal/rc"
	"rescon/internal/rebalance"
	"rescon/internal/telemetry"
)

// thrashDemand is the synthetic per-tick demand increment of the
// rebalancer thrash mutations: big enough to slam every
// demand-proportional target fully to the active member.
const thrashDemand = 1 << 20

// isRebalanceMutation reports whether the mutation plants a bug in the
// rebalancer (as opposed to the accounting layer).
func isRebalanceMutation(m string) bool {
	switch m {
	case MutationRebalanceOscillate, MutationRebalanceNoDisarm,
		MutationRebalanceLeak, MutationRebalanceNoFloor:
		return true
	}
	return false
}

// attachRebalance arms the closed loop for a scenario with a
// RebalanceSpec: an alert.Watchdog over the CPU-pool members (the
// arbitration partner — its criticals preempt the controller) and a
// rebalance.Controller on the telemetry tick governing up to two pools
// of the generated hierarchy:
//
//   - cpu: the top-level fixed-share containers with a share grant
//     (demand: attributed CPU time), actuated as CPUShare;
//   - mem: the MemLimit-carrying containers (demand: charged-memory
//     growth), actuated as MemQuota.
//
// A pool needs at least two qualifying members; a topology with neither
// still attaches the (trivially idle) controller so the journal and
// counters stay part of the determinism digest.
func attachRebalance(sc Scenario, k *kernel.Kernel, tel *telemetry.Collector,
	mon *alert.Monitor, built []*rc.Container) (*rebalance.Controller, *alert.Watchdog, error) {
	spec := sc.Rebalance
	cfg := rebalance.Config{
		CooldownTicks: spec.CooldownTicks,
		OscMaxFlips:   spec.OscMaxFlips,
	}
	thrash := mutateRebalance(&cfg, sc.Mutation)

	var cpuMembers, memMembers []*rc.Container
	for i, cs := range sc.Containers {
		if cs.Parent == -1 && cs.Fixed && cs.Share > 0 {
			cpuMembers = append(cpuMembers, built[i])
		}
		if cs.MemLimit > 0 {
			memMembers = append(memMembers, built[i])
		}
	}

	wd := alert.AttachWatchdog(mon, k, alert.WatchdogConfig{Clampable: cpuMembers})
	cfg.Freeze = []rebalance.Freezer{wd}
	ctrl, err := rebalance.Attach(tel, cfg)
	if err != nil {
		return nil, nil, err
	}

	if len(cpuMembers) >= 2 {
		members := make([]rebalance.Member, len(cpuMembers))
		for i, c := range cpuMembers {
			members[i] = rebalance.Member{Container: c, Demand: cpuDemand(ctrl, thrash, i, c)}
		}
		if err := ctrl.AddPool(rebalance.PoolConfig{
			Name: "cpu", Resource: rebalance.CPUShare, Members: members,
		}); err != nil {
			return nil, nil, err
		}
	}
	// The thrash mutations drive the CPU pool only: one pool is enough
	// to prove the detector (or its planted absence), and the memory
	// pool keeps its organic signal.
	if len(memMembers) >= 2 && !thrash {
		members := make([]rebalance.Member, len(memMembers))
		for i, c := range memMembers {
			c := c
			members[i] = rebalance.Member{Container: c,
				Demand: func() int64 { return int64(c.Usage().Memory) }}
		}
		if err := ctrl.AddPool(rebalance.PoolConfig{
			Name: "mem", Resource: rebalance.MemQuota, Members: members,
		}); err != nil {
			return nil, nil, err
		}
	}
	return ctrl, wd, nil
}

// mutateRebalance plants mutation (a MutationRebalance* value) into
// cfg. It reports whether the mutation is a thrash — worst-case input
// with the damping stripped — whose pool members must then take their
// demand from cpuDemand's alternating generator.
func mutateRebalance(cfg *rebalance.Config, mutation string) (thrash bool) {
	switch mutation {
	case MutationRebalanceLeak:
		cfg.LeakUnits = 1
	case MutationRebalanceNoFloor:
		cfg.IgnoreFloors = true
		fallthrough
	case MutationRebalanceNoDisarm:
		cfg.DisableDisarm = true
		fallthrough
	case MutationRebalanceOscillate:
		// Full-pool steps, no damping, tight detector.
		cfg.StepFrac = 1
		cfg.NoCooldown = true
		cfg.NoDeadband = true
		cfg.OscWindowTicks = 16
		cfg.OscMaxFlips = 4
		cfg.DemandWindowTicks = 1
		return true
	}
	return false
}

// cpuDemand is pool member i's demand signal: c's attributed CPU time,
// or under a thrash mutation a cumulative demand that grows by
// thrashDemand on alternating controller ticks, out of phase with its
// neighbours.
func cpuDemand(ctrl *rebalance.Controller, thrash bool, i int, c *rc.Container) func() int64 {
	if !thrash {
		return func() int64 { return int64(c.Usage().CPU()) }
	}
	var cum int64
	return func() int64 {
		if (ctrl.Ticks()+uint64(i))%2 == 0 {
			cum += thrashDemand
		}
		return cum
	}
}

// rebalanceAudit is one of the controller's safety audits and the
// failure class its violations belong to.
type rebalanceAudit struct {
	class string
	fn    func() string
}

// rebalanceAudits returns the controller's latched safety audits:
// conservation, floors, and oscillation-then-restore.
func rebalanceAudits(ctrl *rebalance.Controller) []rebalanceAudit {
	return []rebalanceAudit{
		{"rebalance-conservation", latch(ctrl.AuditConservation)},
		{"rebalance-starvation", latch(ctrl.AuditFloors)},
		{"rebalance-oscillation", latch(func() string {
			if v := ctrl.AuditOscillation(); v != "" {
				return v
			}
			return ctrl.AuditRestore()
		})},
	}
}

// latch wraps an audit so a persisting violation is recorded once per
// distinct message rather than on every checker tick.
func latch(fn func() string) func() string {
	var last string
	return func() string {
		msg := fn()
		if msg == last {
			return ""
		}
		last = msg
		return msg
	}
}
