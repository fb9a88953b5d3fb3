package rcruntime

import (
	"net/http"
	"sync"
	"testing"
	"time"

	"rescon/internal/alert"
	"rescon/internal/rc"
	"rescon/internal/rebalance"
)

// rebalanceRig is a governed runtime with BOTH actuators attached to
// one hierarchy: the overload watchdog (emergency clamps) and the
// adaptive rebalancer (a CPULimit pool over the two tenants), arbitrated
// via rebalance.Config.Freeze. Attach order matters and is the contract
// under test: watchdog first, rebalancer second, so each monitor tick
// runs watchdog observation before the rebalancer's freeze decision.
type rebalanceRig struct {
	fc   *VirtualClock
	rt   *Runtime
	h    http.Handler
	am   *alert.Monitor
	mon  *Monitor
	wd   *alert.Watchdog
	ctrl *rebalance.Controller
	root *rc.Container
	hog  *rc.Container
	good *rc.Container
}

func newRebalanceRig(t *testing.T, cfg rebalance.Config) *rebalanceRig {
	t.Helper()
	fc := &VirtualClock{}
	root := rc.MustNew(nil, rc.FixedShare, "root", rc.Attributes{})
	// Both tenants start with window budgets: the rebalancer moves the
	// budget between them; the watchdog may clamp the hog harder.
	hog := rc.MustNew(root, rc.FixedShare, "hog", rc.Attributes{Limit: 0.4})
	good := rc.MustNew(root, rc.FixedShare, "good", rc.Attributes{Limit: 0.4})
	binder := HeaderBinder("X-Tenant", map[string]*rc.Container{"hog": hog, "good": good}, nil)
	rt, h := govern(t, fc, Config{Root: root, Window: 10 * time.Millisecond, MaxDelay: NoDelay},
		WithBinder(binder))
	am := alert.New()
	mon, err := AttachMonitor(rt, am, MonitorConfig{
		Clear:   2,
		Tenants: []*rc.Container{hog},
	})
	if err != nil {
		t.Fatal(err)
	}
	wd := AttachWatchdog(mon, alert.WatchdogConfig{
		ClampLimit: 0.1, BackoffTicks: 2, MaxBackoffTicks: 8,
		Clampable: []*rc.Container{hog},
	})
	cfg.Freeze = append(cfg.Freeze, wd)
	ctrl, err := AttachRebalancer(mon, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rig := &rebalanceRig{fc: fc, rt: rt, h: h, am: am, mon: mon, wd: wd,
		ctrl: ctrl, root: root, hog: hog, good: good}
	demand := func(c *rc.Container) func() int64 {
		return func() int64 { return int64(c.Usage().CPU()) }
	}
	err = ctrl.AddPool(rebalance.PoolConfig{
		Name:     "tenants",
		Resource: rebalance.CPULimit,
		Members: []rebalance.Member{
			{Container: hog, Demand: demand(hog)},
			{Container: good, Demand: demand(good)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

// auditQuiet fails the test if any rebalance invariant is violated at a
// moment when the controller claims authority over the hierarchy.
func (r *rebalanceRig) auditQuiet(t *testing.T) {
	t.Helper()
	if v := r.ctrl.AuditConservation(); v != "" {
		t.Fatalf("conservation: %s", v)
	}
	if v := r.ctrl.AuditFloors(); v != "" {
		t.Fatalf("floor: %s", v)
	}
	if v := r.ctrl.AuditOscillation(); v != "" {
		t.Fatalf("oscillation: %s", v)
	}
}

// TestRebalancerChasesDemandThroughEnforcer: with no overload (watchdog
// quiet) a skewed workload pulls window budget toward the busy tenant,
// conserving the pool total and honoring floors at every tick.
func TestRebalancerChasesDemandThroughEnforcer(t *testing.T) {
	rig := newRebalanceRig(t, rebalance.Config{CooldownTicks: 1})
	for i := 0; i < 60; i++ {
		get(rig.h, "good", "4ms") // busy but under the 0.5 warn threshold
		get(rig.h, "hog", "1ms")
		rig.fc.Sleep(time.Millisecond)
		rig.mon.Tick()
		rig.auditQuiet(t)
	}
	if rig.wd.Engaged() {
		t.Fatal("watchdog engaged on a calm workload")
	}
	if rig.ctrl.Steps() == 0 {
		t.Fatal("rebalancer never stepped")
	}
	ha, ga := rig.hog.Attributes().Limit, rig.good.Attributes().Limit
	if ga <= ha {
		t.Fatalf("busy tenant limit %g not above idle tenant %g", ga, ha)
	}
	if total := ha + ga; total < 0.8-1e-9 || total > 0.8+1e-9 {
		t.Fatalf("pool total drifted: %g", total)
	}
}

// TestWatchdogEngageFreezesRebalancer is the arbitration protocol end
// to end: hog dominance engages the watchdog, which preempts and
// freezes the rebalancer (no steps while engaged); calm restores the
// watchdog's clamp, and after the calm hold-off the rebalancer resumes
// from the *actual* (restored) attributes, with conservation and floors
// intact throughout.
func TestWatchdogEngageFreezesRebalancer(t *testing.T) {
	rig := newRebalanceRig(t, rebalance.Config{CooldownTicks: 1})

	for i := 0; i < 4 && !rig.wd.Engaged(); i++ {
		get(rig.h, "hog", "9ms")
		get(rig.h, "good", "1ms")
		rig.fc.Sleep(time.Millisecond)
		rig.mon.Tick()
	}
	if !rig.wd.Engaged() {
		t.Fatal("watchdog never engaged")
	}
	if !rig.ctrl.Frozen() {
		t.Fatal("rebalancer not frozen while watchdog engaged")
	}
	if rig.ctrl.Freezes() != 1 {
		t.Fatalf("freezes = %d, want 1", rig.ctrl.Freezes())
	}

	// While engaged, the watchdog's clamp owns the hog: the rebalancer
	// must not step even under heavy skew.
	frozenSteps := rig.ctrl.Steps()
	for i := 0; i < 5; i++ {
		get(rig.h, "hog", "9ms")
		rig.fc.Sleep(time.Millisecond)
		rig.mon.Tick()
	}
	if rig.ctrl.Steps() != frozenSteps {
		t.Fatal("rebalancer stepped while the watchdog held the hierarchy")
	}
	if got := rig.hog.Attributes().Limit; got != 0.1 {
		t.Fatalf("hog limit %g while clamped, want the 0.1 emergency clamp", got)
	}

	// Calm: watchdog restores, then (after rebalance.DefaultCalmTicks) the rebalancer
	// resyncs and resumes.
	for i := 0; i < 60 && rig.wd.Engaged(); i++ {
		get(rig.h, "good", "1ms")
		rig.fc.Sleep(time.Millisecond)
		rig.mon.Tick()
	}
	if rig.wd.Engaged() {
		t.Fatal("watchdog never restored")
	}
	for i := 0; i < 10 && rig.ctrl.Frozen(); i++ {
		get(rig.h, "good", "1ms")
		rig.fc.Sleep(time.Millisecond)
		rig.mon.Tick()
	}
	if rig.ctrl.Frozen() {
		t.Fatal("rebalancer never resumed after calm")
	}
	if rig.ctrl.Resumes() != 1 {
		t.Fatalf("resumes = %d, want 1", rig.ctrl.Resumes())
	}
	rig.auditQuiet(t)

	// Resumed control still works: skew toward good keeps moving budget.
	before := rig.good.Attributes().Limit
	for i := 0; i < 40; i++ {
		get(rig.h, "good", "4ms")
		rig.fc.Sleep(time.Millisecond)
		rig.mon.Tick()
		rig.auditQuiet(t)
	}
	if rig.good.Attributes().Limit < before {
		t.Fatalf("post-resume control shrank the busy tenant: %g -> %g",
			before, rig.good.Attributes().Limit)
	}
}

// TestInterleavedActuatorsUnderLoad drives both actuators through many
// engage/restore cycles while concurrent request goroutines hammer the
// middleware — the -race proof that rebalancer actuation through
// Enforcer.Sync does not tear the hierarchy, and that the share-sum and
// floor invariants hold at every quiet point.
func TestInterleavedActuatorsUnderLoad(t *testing.T) {
	rig := newRebalanceRig(t, rebalance.Config{CooldownTicks: 1})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := "good"
			if g%2 == 0 {
				tenant = "hog"
			}
			for {
				select {
				case <-stop:
					return
				default:
					get(rig.h, tenant, "1ms")
				}
			}
		}(g)
	}

	// Alternate hostile and calm phases: the watchdog cycles, the
	// rebalancer freezes/resumes around it.
	for phase := 0; phase < 6; phase++ {
		tenant, cost := "good", "1ms"
		if phase%2 == 0 {
			tenant, cost = "hog", "9ms"
		}
		for i := 0; i < 12; i++ {
			get(rig.h, tenant, cost)
			rig.fc.Sleep(time.Millisecond)
			rig.mon.Tick()
			rig.auditQuiet(t)
		}
	}
	close(stop)
	wg.Wait()

	if rig.ctrl.Ticks() == 0 || rig.ctrl.Steps() == 0 {
		t.Fatalf("controller idle through the storm: ticks=%d steps=%d",
			rig.ctrl.Ticks(), rig.ctrl.Steps())
	}
	if rig.wd.Engagements() == 0 {
		t.Fatal("watchdog never engaged during hostile phases")
	}
	if rig.ctrl.Freezes() == 0 {
		t.Fatal("rebalancer never froze despite watchdog engagements")
	}
	if rig.ctrl.ActuationErrors() != 0 {
		t.Fatalf("%d actuation errors", rig.ctrl.ActuationErrors())
	}
	rig.auditQuiet(t)
	if msg := rig.am.SelfCheck(); msg != "" {
		t.Fatalf("alert self-check: %s", msg)
	}
}

// TestAttachRebalancerValidation rejects a nil monitor.
func TestAttachRebalancerValidation(t *testing.T) {
	if _, err := AttachRebalancer(nil, rebalance.Config{}); err == nil {
		t.Fatal("nil monitor accepted")
	}
}
