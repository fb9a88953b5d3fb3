package alert

import (
	"fmt"
	"strings"
	"testing"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

// fakeActuator records every call the state machine makes through the
// Actuator seam.
type fakeActuator struct {
	calls   []string
	inSync  bool
	wording Wording
}

func (f *fakeActuator) Sync(fn func()) {
	if f.inSync {
		panic("nested Sync")
	}
	f.inSync = true
	fn()
	f.inSync = false
}

func (f *fakeActuator) Tighten(clamped *rc.Container) string {
	name := "(none)"
	if clamped != nil {
		name = clamped.Name()
	}
	f.calls = append(f.calls, "tighten "+name)
	return "tightened"
}

func (f *fakeActuator) Restore() string {
	f.calls = append(f.calls, "restore")
	return "restored"
}

func (f *fakeActuator) Wording() Wording { return f.wording }

// wdRig drives one watchdog by hand: trigger events go straight to the
// event hook and tick advances the monitor with no checks registered.
type wdRig struct {
	t   *testing.T
	m   *Monitor
	act *fakeActuator
	w   *Watchdog
	at  sim.Time
}

func newWDRig(t *testing.T, cfg WatchdogConfig) *wdRig {
	cfg.Triggers = []string{"load"}
	act := &fakeActuator{wording: Wording{Target: "(fake)", Runaway: "thing"}}
	m := New()
	return &wdRig{t: t, m: m, act: act, w: AttachWatchdogWith(m, act, cfg)}
}

func (r *wdRig) event(level Level) {
	r.w.onEvent(Event{At: r.at, Check: "load", Target: "x", Level: level})
}

func (r *wdRig) tick() {
	r.at += sim.Time(sim.Millisecond)
	r.m.Tick(r.at)
}

// cycle engages, clears, and ticks until the restore, returning how
// many ticks the countdown took.
func (r *wdRig) cycle() int {
	r.t.Helper()
	r.event(LevelCritical)
	r.event(LevelOk)
	for n := 1; n <= 1000; n++ {
		r.tick()
		if !r.w.Engaged() {
			return n
		}
	}
	r.t.Fatal("watchdog never restored")
	return 0
}

func TestWatchdogBackoffDoublesAndCaps(t *testing.T) {
	r := newWDRig(t, WatchdogConfig{BackoffTicks: 2, MaxBackoffTicks: 5})
	var got []int
	for i := 0; i < 4; i++ {
		got = append(got, r.cycle()) // each re-engage lands inside the flap window
	}
	// Past the flap window the backoff resets to BackoffTicks.
	for i := 0; i <= FlapWindowTicks; i++ {
		r.tick()
	}
	got = append(got, r.cycle())
	if fmt.Sprint(got) != "[2 4 5 5 2]" {
		t.Fatalf("restore countdowns %v, want [2 4 5 5 2]", got)
	}
	if r.w.Engagements() != 5 || r.w.Restores() != 5 {
		t.Fatalf("engagements/restores %d/%d, want 5/5", r.w.Engagements(), r.w.Restores())
	}
}

func TestWatchdogReengageCancelsCountdown(t *testing.T) {
	r := newWDRig(t, WatchdogConfig{BackoffTicks: 3})
	r.event(LevelCritical)
	r.event(LevelOk)
	r.tick()
	r.event(LevelCritical) // overload returns mid-countdown
	for i := 0; i < 10; i++ {
		r.tick()
	}
	if !r.w.Engaged() || r.w.Engagements() != 1 || r.w.Restores() != 0 {
		t.Fatalf("engaged=%t engagements=%d restores=%d, want the emergency settings kept",
			r.w.Engaged(), r.w.Engagements(), r.w.Restores())
	}
	if got := strings.Join(r.act.calls, ","); got != "tighten (none)" {
		t.Fatalf("actuator calls %q, want one tighten", got)
	}
	// A fresh clear re-arms the full countdown.
	r.event(LevelOk)
	for i := 0; i < 3; i++ {
		r.tick()
	}
	if r.w.Engaged() || r.w.Restores() != 1 {
		t.Fatal("watchdog did not restore after the second clear")
	}
}

// charge gives each clampable the CPU of one tick.
func charge(r *wdRig, cs []*rc.Container, ms ...int) {
	for i, c := range cs {
		c.ChargeCPU(rc.UserCPU, sim.Duration(ms[i])*sim.Millisecond)
	}
	r.tick()
}

func TestWatchdogRunaway(t *testing.T) {
	mk := func() (*wdRig, []*rc.Container) {
		cs := []*rc.Container{
			rc.MustNew(nil, rc.FixedShare, "a", rc.Attributes{}),
			rc.MustNew(nil, rc.FixedShare, "b", rc.Attributes{}),
		}
		return newWDRig(t, WatchdogConfig{Clampable: cs}), cs
	}

	r, _ := mk()
	if c := r.w.runaway(); c != nil {
		t.Fatalf("quiet window: runaway %s, want nil", c.Name())
	}

	r, cs := mk()
	charge(r, cs, 3, 3)
	if c := r.w.runaway(); c != nil {
		t.Fatalf("tie: runaway %s, want nil", c.Name())
	}

	r, cs = mk()
	charge(r, cs, 9, 1)
	if c := r.w.runaway(); c != cs[0] {
		t.Fatalf("runaway %v, want a", c)
	}
	if err := cs[0].Release(); err != nil {
		t.Fatal(err)
	}
	if c := r.w.runaway(); c != nil {
		t.Fatalf("destroyed clampable: runaway %s, want nil", c.Name())
	}

	// The dominance window slides: ClampWindowTicks calm ticks later
	// the old burst no longer counts.
	r, cs = mk()
	charge(r, cs, 9, 1)
	for i := 0; i < ClampWindowTicks; i++ {
		charge(r, cs, 0, 0)
	}
	if c := r.w.runaway(); c != nil {
		t.Fatalf("burst outside the window: runaway %s, want nil", c.Name())
	}
}

func TestWatchdogClampAndRestore(t *testing.T) {
	hog := rc.MustNew(nil, rc.FixedShare, "hog", rc.Attributes{Limit: 0.8})
	r := newWDRig(t, WatchdogConfig{Clampable: []*rc.Container{hog}, ClampLimit: 0.25, BackoffTicks: 1})
	charge(r, []*rc.Container{hog}, 5)
	r.event(LevelCritical)
	if r.w.Clamped() != hog || hog.Attributes().Limit != 0.25 {
		t.Fatalf("clamped %v limit %g, want hog at 0.25", r.w.Clamped(), hog.Attributes().Limit)
	}
	r.event(LevelOk)
	r.tick()
	if r.w.Clamped() != nil || hog.Attributes().Limit != 0.8 {
		t.Fatalf("after restore clamped %v limit %g, want nil and 0.8", r.w.Clamped(), hog.Attributes().Limit)
	}
	if got := strings.Join(r.act.calls, ","); got != "tighten hog,restore" {
		t.Fatalf("actuator calls %q", got)
	}
	var notes []string
	for _, e := range r.m.Events() {
		notes = append(notes, e.Target+": "+e.Detail)
	}
	want := []string{
		"(fake): engaged on load/x: tightened",
		"hog: clamped runaway thing limit=0.25 (was 0.8)",
		"(fake): overload cleared; restore in 1 tick(s)",
		"(fake): restored; unclamped hog limit=0.8",
	}
	if strings.Join(notes, "\n") != strings.Join(want, "\n") {
		t.Fatalf("journal:\n%s\nwant:\n%s", strings.Join(notes, "\n"), strings.Join(want, "\n"))
	}
}

func TestWatchdogClampFirstWording(t *testing.T) {
	hog := rc.MustNew(nil, rc.FixedShare, "hog", rc.Attributes{})
	r := newWDRig(t, WatchdogConfig{Clampable: []*rc.Container{hog}})
	r.act.wording.ClampFirst = true
	r.w.wording = r.act.Wording()
	charge(r, []*rc.Container{hog}, 5)
	r.event(LevelCritical)
	ev := r.m.Events()
	if len(ev) != 2 || ev[0].Target != "hog" || ev[1].Target != "(fake)" {
		t.Fatalf("ClampFirst journal %+v, want the clamp note before the engage note", ev)
	}
}

func TestWatchdogNeverLoosensTighterLimit(t *testing.T) {
	hog := rc.MustNew(nil, rc.FixedShare, "hog", rc.Attributes{Limit: 0.1})
	r := newWDRig(t, WatchdogConfig{Clampable: []*rc.Container{hog}, ClampLimit: 0.5, BackoffTicks: 1})
	charge(r, []*rc.Container{hog}, 5)
	r.event(LevelCritical)
	if r.w.Clamped() != nil || hog.Attributes().Limit != 0.1 {
		t.Fatalf("clamped %v limit %g, want the tighter 0.1 untouched", r.w.Clamped(), hog.Attributes().Limit)
	}
	if got := strings.Join(r.act.calls, ","); got != "tighten (none)" {
		t.Fatalf("actuator calls %q, want tighten with no clamp", got)
	}
	r.event(LevelOk)
	r.tick()
	if hog.Attributes().Limit != 0.1 {
		t.Fatalf("restore changed the limit to %g", hog.Attributes().Limit)
	}
}
