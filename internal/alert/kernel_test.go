package alert

import (
	"bytes"
	"sync"
	"testing"

	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/netsim"
	"rescon/internal/rc"
	"rescon/internal/sim"
	"rescon/internal/telemetry"
	"rescon/internal/workload"
)

var (
	testServerAddr = kernel.Addr("10.0.0.1", 80)
	testClientNet  = netsim.MustParseIP("10.1.0.0")
	testAttackNet  = netsim.MustParseIP("66.0.0.0")
)

// floodScene runs a server + paying clients + SYN flood for 400ms with
// the alert battery attached, optionally with the watchdog engaged on
// top. The flood runs from 100ms to 250ms so the run covers quiet →
// overload → recovery. With hog set, every per-connection container
// is parented by a "hog" container the watchdog may clamp.
func floodScene(t *testing.T, mode kernel.Mode, seed int64, withWatchdog, hog bool) (*Monitor, *Watchdog) {
	t.Helper()
	var parent *rc.Container
	var wcfg WatchdogConfig
	if hog {
		parent = rc.MustNew(nil, rc.FixedShare, "hog", rc.Attributes{Share: 0.5})
		wcfg.Clampable = []*rc.Container{parent}
	}
	eng := sim.NewEngine(seed)
	k := kernel.New(eng, mode)
	k.AttachTelemetry(telemetry.New())
	mon, err := Attach(k)
	if err != nil {
		t.Fatal(err)
	}
	var wd *Watchdog
	if withWatchdog {
		wd = AttachWatchdog(mon, k, wcfg)
	}

	if _, err := httpsim.NewServer(httpsim.Config{
		Kernel: k, Name: "httpd", Addr: testServerAddr, API: httpsim.EventAPI,
		PerConnContainers: mode == kernel.ModeRC, Parent: parent,
	}); err != nil {
		t.Fatal(err)
	}
	workload.MustStartPopulation(8, workload.ClientConfig{
		Kernel: k,
		Src:    netsim.Addr{IP: testClientNet + 1, Port: 1024},
		Dst:    testServerAddr,
	})
	var flood *workload.Flooder
	eng.After(sim.Duration(100*sim.Millisecond), func() {
		flood = workload.StartFlood(k, 20_000, testAttackNet+1, 4096, testServerAddr)
	})
	eng.After(sim.Duration(250*sim.Millisecond), func() { flood.Stop() })
	eng.RunUntil(sim.Time(400 * sim.Millisecond))
	return mon, wd
}

// TestFloodRaisesCritical: a 20k SYN/s flood must raise a critical
// alert in every kernel mode — and only after the flood starts.
func TestFloodRaisesCritical(t *testing.T) {
	for _, mode := range []kernel.Mode{kernel.ModeUnmodified, kernel.ModeLRP, kernel.ModeRC} {
		mon, _ := floodScene(t, mode, 7, false, false)
		at, ok := mon.FirstAtSince(LevelCritical, 0)
		if !ok {
			t.Errorf("%v: flood raised no critical alert (events=%d)", mode, len(mon.Events()))
			continue
		}
		if at < sim.Time(100*sim.Millisecond) {
			t.Errorf("%v: critical alert at %v, before the flood began", mode, at)
		}
		if msg := mon.SelfCheck(); msg != "" {
			t.Errorf("%v: %s", mode, msg)
		}
	}
}

// TestQuietBaselineStaysOk: without any attack, a lightly loaded server
// must produce zero alert events — the thresholds are calibrated so
// normal operation is silent.
func TestQuietBaselineStaysOk(t *testing.T) {
	for _, mode := range []kernel.Mode{kernel.ModeUnmodified, kernel.ModeLRP, kernel.ModeRC} {
		eng := sim.NewEngine(7)
		k := kernel.New(eng, mode)
		k.AttachTelemetry(telemetry.New())
		mon, err := Attach(k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := httpsim.NewServer(httpsim.Config{
			Kernel: k, Name: "httpd", Addr: testServerAddr, API: httpsim.EventAPI,
		}); err != nil {
			t.Fatal(err)
		}
		workload.MustStartPopulation(4, workload.ClientConfig{
			Kernel: k,
			Src:    netsim.Addr{IP: testClientNet + 1, Port: 1024},
			Dst:    testServerAddr,
		})
		eng.RunUntil(sim.Time(400 * sim.Millisecond))
		if n := len(mon.Events()); n != 0 {
			t.Errorf("%v: quiet baseline emitted %d alert events; first: %+v", mode, n, mon.Events()[0])
		}
	}
}

// TestWatchdogEngagesAndRestores: under flood the watchdog must tighten
// policing, and once the flood stops and alerts clear it must restore
// the saved settings after backoff — the full closed loop.
func TestWatchdogEngagesAndRestores(t *testing.T) {
	mon, wd := floodScene(t, kernel.ModeRC, 7, true, false)
	if wd.Engagements() == 0 {
		t.Fatalf("watchdog never engaged under flood (events=%d)", len(mon.Events()))
	}
	if wd.Restores() == 0 {
		t.Fatal("watchdog never restored after the flood stopped")
	}
	if wd.Engaged() {
		t.Error("watchdog still engaged 150ms after the flood stopped")
	}
	// The loop must be visible in the event stream.
	var engagedNote, restoredNote bool
	for _, e := range mon.Events() {
		if e.Check == WatchdogCheckName {
			if e.Level == LevelCritical {
				engagedNote = true
			}
			if e.Level == LevelOk && restoredNote == false && engagedNote {
				restoredNote = true
			}
		}
	}
	if !engagedNote || !restoredNote {
		t.Errorf("watchdog notes missing from event stream (engaged=%t restored=%t)", engagedNote, restoredNote)
	}
	if mon.Flaps() != 0 {
		t.Errorf("flood scene produced %d alert flaps, want 0", mon.Flaps())
	}
}

// TestAlertStreamDeterministic is the golden determinism test the issue
// demands: the same seed must render a byte-identical alert JSONL
// stream, serially and concurrently with other simulations (container
// IDs are process-global and race across goroutines; alert targets are
// principal names only).
func TestAlertStreamDeterministic(t *testing.T) {
	render := func() string {
		mon, _ := floodScene(t, kernel.ModeRC, 7, true, false)
		var buf bytes.Buffer
		if err := mon.WriteJSONL(&buf); err != nil {
			t.Error(err)
		}
		return buf.String()
	}
	serial := render()
	if len(serial) == 0 {
		t.Fatal("empty alert stream")
	}
	if again := render(); again != serial {
		t.Fatal("two serial runs with the same seed render different alert streams")
	}

	out := make([]string, 4)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mon, _ := floodScene(t, kernel.ModeRC, 7, true, false)
			var buf bytes.Buffer
			if err := mon.WriteJSONL(&buf); err != nil {
				t.Error(err)
			}
			out[i] = buf.String()
		}(i)
	}
	wg.Wait()
	for i, o := range out {
		if o != serial {
			t.Fatalf("concurrent run %d renders a different alert stream than serial", i)
		}
	}
}
