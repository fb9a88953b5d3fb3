package rcruntime

import (
	"strings"
	"testing"
	"time"

	"rescon/internal/alert"
	"rescon/internal/rc"
)

// TestMonitorRaisesOnSheds: the rt-shed-rate check observes the per-tick
// shed delta and raises through warning to critical as overload
// sustains.
func TestMonitorRaisesOnSheds(t *testing.T) {
	fc := &VirtualClock{}
	root, _, binder := tenantTree(t)
	rt, h := govern(t, fc, Config{Root: root, Window: 10 * time.Millisecond, MaxDelay: NoDelay},
		WithBinder(binder))
	am := alert.New()
	mon, err := AttachMonitor(rt, am, MonitorConfig{ShedWarn: 1, ShedCrit: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Two sheds in each of the raise-window ticks: critical.
	get(h, "capped", "5ms")
	for i := 0; i < alert.DefaultRaiseTicks; i++ {
		get(h, "capped", "1ms")
		get(h, "capped", "1ms")
		fc.Sleep(time.Millisecond)
		mon.Tick()
	}

	var critical bool
	for _, ev := range am.Events() {
		if ev.Check == CheckShedRate && ev.Level == alert.LevelCritical {
			critical = true
			if ev.Value != 2 {
				t.Fatalf("critical observation %g, want 2 sheds this tick", ev.Value)
			}
		}
	}
	if !critical {
		t.Fatalf("no critical rt-shed-rate event; events: %v", am.Events())
	}
	if mon.Alert() != am {
		t.Fatal("Alert() accessor does not return the attached monitor")
	}
}

// TestMonitorTenantShare: CheckTenantCPU reports each watched tenant's
// share of the hierarchy's per-tick CPU delta.
func TestMonitorTenantShare(t *testing.T) {
	fc := &VirtualClock{}
	root := rc.MustNew(nil, rc.FixedShare, "root", rc.Attributes{})
	hog := rc.MustNew(root, rc.FixedShare, "hog", rc.Attributes{})
	good := rc.MustNew(root, rc.FixedShare, "good", rc.Attributes{})
	binder := HeaderBinder("X-Tenant", map[string]*rc.Container{"hog": hog, "good": good}, nil)
	rt, h := govern(t, fc, Config{Root: root, Window: 100 * time.Millisecond}, WithBinder(binder))
	am := alert.New()
	mon, err := AttachMonitor(rt, am, MonitorConfig{Tenants: []*rc.Container{hog}})
	if err != nil {
		t.Fatal(err)
	}

	// Hog burns 9 ms of the 10 ms charged each tick: share 0.9, critical
	// once it holds for the raise window.
	for i := 0; i < alert.DefaultRaiseTicks; i++ {
		get(h, "hog", "9ms")
		get(h, "good", "1ms")
		mon.Tick()
	}

	var got float64
	for _, ev := range am.Events() {
		if ev.Check == CheckTenantCPU && ev.Target == "hog" && ev.Level == alert.LevelCritical {
			got = ev.Value
		}
	}
	if got < 0.89 || got > 0.91 {
		t.Fatalf("hog share %g, want ~0.9; events: %v", got, am.Events())
	}
}

// TestAttachMonitorTwiceFails: the check names collide on one
// alert.Monitor, and the error is returned rather than panicked.
func TestAttachMonitorTwiceFails(t *testing.T) {
	fc := &VirtualClock{}
	root, _ := testTree(t, 0.5)
	rt, err := NewRuntime(Config{Root: root, Window: 10 * time.Millisecond}, WithClock(fc))
	if err != nil {
		t.Fatal(err)
	}
	am := alert.New()
	if _, err := AttachMonitor(rt, am, MonitorConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := AttachMonitor(rt, am, MonitorConfig{}); err == nil {
		t.Fatal("second AttachMonitor on one alert.Monitor succeeded")
	}
}

// TestMonitorTickDeterministic: two identical runtimes driven through
// the identical request sequence produce byte-identical alert streams.
func TestMonitorTickDeterministic(t *testing.T) {
	digest := func() string {
		fc := &VirtualClock{}
		root, _, binder := tenantTree(t)
		rt, h := govern(t, fc, Config{Root: root, Window: 10 * time.Millisecond, MaxDelay: NoDelay},
			WithBinder(binder))
		am := alert.New()
		mon, err := AttachMonitor(rt, am, MonitorConfig{ShedWarn: 1, ShedCrit: 2})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 6; round++ {
			get(h, "capped", "5ms")
			get(h, "capped", "1ms")
			get(h, "capped", "1ms")
			fc.Sleep(time.Millisecond)
			mon.Tick()
		}
		var sb strings.Builder
		if err := am.WriteJSONL(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := digest(), digest()
	if a != b {
		t.Fatalf("alert streams diverged:\n%s\nvs\n%s", a, b)
	}
	if a == "" {
		t.Fatal("empty alert stream")
	}
}
