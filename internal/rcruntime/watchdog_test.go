package rcruntime

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rescon/internal/alert"
	"rescon/internal/rc"
)

// watchdogRig is a governed runtime with the full closed loop attached:
// an unlimited hog the watchdog may clamp, a good tenant, low alert
// thresholds so a couple of hostile ticks engage it.
type watchdogRig struct {
	fc   *VirtualClock
	rt   *Runtime
	h    http.Handler
	am   *alert.Monitor
	mon  *Monitor
	wd   *alert.Watchdog
	root *rc.Container
	hog  *rc.Container
}

func newWatchdogRig(t *testing.T, cfg alert.WatchdogConfig) *watchdogRig {
	t.Helper()
	fc := &VirtualClock{}
	root := rc.MustNew(nil, rc.FixedShare, "root", rc.Attributes{})
	hog := rc.MustNew(root, rc.FixedShare, "hog", rc.Attributes{}) // unlimited: only a clamp can tame it
	good := rc.MustNew(root, rc.FixedShare, "good", rc.Attributes{})
	binder := HeaderBinder("X-Tenant", map[string]*rc.Container{"hog": hog, "good": good}, nil)
	rt, h := govern(t, fc, Config{Root: root, Window: 10 * time.Millisecond, MaxDelay: NoDelay},
		WithBinder(binder))
	am := alert.New()
	mon, err := AttachMonitor(rt, am, MonitorConfig{
		TenantCPUWarn: 0.5, TenantCPUCrit: 0.75,
		Clear:   2,
		Tenants: []*rc.Container{hog},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Clampable = []*rc.Container{hog}
	wd := AttachWatchdog(mon, cfg)
	return &watchdogRig{fc: fc, rt: rt, h: h, am: am, mon: mon, wd: wd, root: root, hog: hog}
}

// hostileTick burns hog-dominated CPU and ticks the monitor.
func (r *watchdogRig) hostileTick() {
	get(r.h, "hog", "9ms")
	get(r.h, "good", "1ms")
	r.fc.Sleep(time.Millisecond)
	r.mon.Tick()
}

// calmTick runs only the good tenant.
func (r *watchdogRig) calmTick() {
	get(r.h, "good", "1ms")
	r.fc.Sleep(time.Millisecond)
	r.mon.Tick()
}

// TestWatchdogClampsAndRestores is the closed loop end to end: sustained
// hog dominance engages the watchdog (clamping the hog and tightening
// the accept policy toward it), and a calm stretch clears the alerts,
// counts down the backoff, and restores both settings — with the clamp
// and unclamp journaled in the alert stream.
func TestWatchdogClampsAndRestores(t *testing.T) {
	rig := newWatchdogRig(t, alert.WatchdogConfig{ClampLimit: 0.2, BackoffTicks: 2, MaxBackoffTicks: 8})

	// Default Raise is 2: the second hostile tick's critical engages. One
	// extra tick first so the CPU ring has the hog's delta for runaway
	// detection (the ring advances after each tick's events).
	for i := 0; i < 3 && !rig.wd.Engaged(); i++ {
		rig.hostileTick()
	}
	if !rig.wd.Engaged() || rig.wd.Engagements() != 1 {
		t.Fatalf("watchdog not engaged: engaged=%t engagements=%d", rig.wd.Engaged(), rig.wd.Engagements())
	}
	if rig.wd.Clamped() != rig.hog {
		t.Fatalf("clamped %v, want the hog", rig.wd.Clamped())
	}
	if got := rig.hog.Attributes().Limit; got != 0.2 {
		t.Fatalf("hog limit %g, want the 0.2 clamp", got)
	}
	pol := rig.rt.Policy()
	if !pol.Enabled || pol.OverBudgetOf != rig.hog {
		t.Fatalf("tight policy %+v, want enabled with OverBudgetOf=hog", pol)
	}

	// Calm until the alerts clear and the backoff counts down.
	for i := 0; i < 40 && rig.wd.Engaged(); i++ {
		rig.calmTick()
	}
	if rig.wd.Engaged() || rig.wd.Restores() != 1 {
		t.Fatalf("watchdog never restored: engaged=%t restores=%d", rig.wd.Engaged(), rig.wd.Restores())
	}
	if got := rig.hog.Attributes().Limit; got != 0 {
		t.Fatalf("hog limit %g after restore, want unclamped (0)", got)
	}
	if pol := rig.rt.Policy(); pol.Enabled {
		t.Fatalf("policy %+v after restore, want the saved (disabled) policy", pol)
	}

	// The journal must show the whole cycle.
	var clamped, unclamped bool
	for _, ev := range rig.am.Events() {
		if ev.Check != alert.WatchdogCheckName {
			continue
		}
		if strings.Contains(ev.Detail, "clamped runaway") {
			clamped = true
		}
		if strings.Contains(ev.Detail, "unclamped") {
			unclamped = true
		}
	}
	if !clamped || !unclamped {
		t.Fatalf("journal incomplete: clamp=%t unclamp=%t", clamped, unclamped)
	}
	if msg := rig.am.SelfCheck(); msg != "" {
		t.Fatalf("alert self-check: %s", msg)
	}
}

// TestWatchdogReengageCancelsRestore: overload returning during the
// countdown keeps the emergency settings — the engagement count does
// not grow, the countdown is cancelled.
func TestWatchdogReengageCancelsRestore(t *testing.T) {
	rig := newWatchdogRig(t, alert.WatchdogConfig{ClampLimit: 0.2, BackoffTicks: 6, MaxBackoffTicks: 8})
	for i := 0; i < 3 && !rig.wd.Engaged(); i++ {
		rig.hostileTick()
	}
	if !rig.wd.Engaged() {
		t.Fatal("watchdog not engaged")
	}

	// Calm just long enough for the criticals to clear (countdown armed,
	// backoff 6 not yet elapsed), then hostile again.
	for i := 0; i < 6; i++ {
		rig.calmTick()
	}
	if rig.wd.Restores() != 0 {
		t.Fatal("restored before the backoff elapsed")
	}
	for i := 0; i < 4; i++ {
		rig.hostileTick()
	}
	if !rig.wd.Engaged() || rig.wd.Engagements() != 1 || rig.wd.Restores() != 0 {
		t.Fatalf("re-overload mishandled: engaged=%t engagements=%d restores=%d",
			rig.wd.Engaged(), rig.wd.Engagements(), rig.wd.Restores())
	}
	// The clamp held throughout.
	if got := rig.hog.Attributes().Limit; got != 0.2 {
		t.Fatalf("hog limit %g mid-cycle, want 0.2", got)
	}
}

// TestWatchdogBackoffDoublesOnFlap: a re-engagement soon after a restore
// doubles the restore backoff (bounded), so an oscillating overload
// converges to longer engaged periods.
func TestWatchdogBackoffDoublesOnFlap(t *testing.T) {
	rig := newWatchdogRig(t, alert.WatchdogConfig{ClampLimit: 0.2, BackoffTicks: 2, MaxBackoffTicks: 4})

	engageAndRestore := func() (calmTicks int) {
		for i := 0; i < 5 && !rig.wd.Engaged(); i++ {
			rig.hostileTick()
		}
		if !rig.wd.Engaged() {
			t.Fatal("watchdog not engaged")
		}
		for calmTicks < 60 && rig.wd.Engaged() {
			rig.calmTick()
			calmTicks++
		}
		if rig.wd.Engaged() {
			t.Fatal("watchdog never restored")
		}
		return calmTicks
	}

	first := engageAndRestore()
	// Immediately hostile again: within the flap window of the restore,
	// so the next restore waits longer.
	second := engageAndRestore()
	if rig.wd.Engagements() != 2 || rig.wd.Restores() != 2 {
		t.Fatalf("cycle counts %d/%d, want 2/2", rig.wd.Engagements(), rig.wd.Restores())
	}
	if second <= first {
		t.Fatalf("backoff did not grow: first restore after %d calm tick(s), second after %d", first, second)
	}
}

// TestWatchdogJournalGolden pins the runtime watchdog's journal byte for
// byte through clamp → restore → flap → doubled-backoff restore.
func TestWatchdogJournalGolden(t *testing.T) {
	rig := newWatchdogRig(t, alert.WatchdogConfig{ClampLimit: 0.2, BackoffTicks: 2, MaxBackoffTicks: 4})
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < 5 && !rig.wd.Engaged(); i++ {
			rig.hostileTick()
		}
		for i := 0; i < 60 && rig.wd.Engaged(); i++ {
			rig.calmTick()
		}
	}
	if rig.wd.Engagements() != 3 || rig.wd.Restores() != 3 {
		t.Fatalf("cycle counts %d/%d, want 3/3", rig.wd.Engagements(), rig.wd.Restores())
	}
	var buf bytes.Buffer
	if err := rig.am.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "watchdog_journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("journal differs from the golden:\n--- got\n%s--- want\n%s", buf.Bytes(), want)
	}
}
