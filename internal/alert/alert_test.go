package alert

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"rescon/internal/sim"
)

// synthetic drives a monitor with one hand-fed check: tests set value
// between ticks and the check reports it for one target.
type synthetic struct {
	m     *Monitor
	value float64
	tick  sim.Time
}

func newSynthetic(t *testing.T, c Check) *synthetic {
	t.Helper()
	s := &synthetic{m: New()}
	if c.Observe == nil {
		c.Observe = func() []Observation {
			return []Observation{{Target: "t0", Value: s.value}}
		}
	}
	if err := s.m.Register(c); err != nil {
		t.Fatal(err)
	}
	return s
}

// run feeds value for n ticks and returns events emitted during them.
func (s *synthetic) run(value float64, n int) []Event {
	s.value = value
	before := len(s.m.Events())
	for i := 0; i < n; i++ {
		s.tick += sim.Time(sim.Millisecond)
		s.m.Tick(s.tick)
	}
	return s.m.Events()[before:]
}

func TestRaiseNeedsConsecutiveTicks(t *testing.T) {
	s := newSynthetic(t, Check{Name: "c", Warn: 10, Crit: 100})

	// One hot tick, then calm: hysteresis must swallow it.
	if evs := s.run(50, 1); len(evs) != 0 {
		t.Fatalf("event after a single hot tick: %+v", evs)
	}
	if evs := s.run(0, 5); len(evs) != 0 {
		t.Fatalf("events after calm ticks: %+v", evs)
	}

	// Two consecutive hot ticks raise a warning.
	evs := s.run(50, DefaultRaiseTicks)
	if len(evs) != 1 || evs[0].Level != LevelWarning || evs[0].Prev != LevelOk {
		t.Fatalf("want one Ok->Warning event, got %+v", evs)
	}
	if got := s.m.Current("c", "t0"); got != LevelWarning {
		t.Fatalf("Current = %v, want warning", got)
	}

	// Critical needs its own consecutive streak.
	evs = s.run(200, DefaultRaiseTicks)
	if len(evs) != 1 || evs[0].Level != LevelCritical || evs[0].Prev != LevelWarning {
		t.Fatalf("want one Warning->Critical event, got %+v", evs)
	}
}

func TestClearNeedsCalmWindowPlusHoldDown(t *testing.T) {
	s := newSynthetic(t, Check{Name: "c", Warn: 10, Crit: 100})
	s.run(200, DefaultRaiseTicks) // raise to critical

	// Calm through the clear window: internally cleared but the
	// publication hold-down keeps the stream quiet.
	if evs := s.run(0, DefaultClearTicks+FlapWindowTicks-1); len(evs) != 0 {
		t.Fatalf("cleared before calm window + hold-down elapsed: %+v", evs)
	}
	if got := s.m.Current("c", "t0"); got != LevelCritical {
		t.Fatalf("published level dropped to %v during hold-down", got)
	}
	evs := s.run(0, 1)
	if len(evs) != 1 || evs[0].Level != LevelOk || evs[0].Prev != LevelCritical {
		t.Fatalf("want one Critical->Ok event, got %+v", evs)
	}
}

func TestCriticalDemotesToWarning(t *testing.T) {
	s := newSynthetic(t, Check{Name: "c", Warn: 10, Crit: 100})
	s.run(200, DefaultRaiseTicks)

	// Persistently warm-but-not-critical: demote to warning after the
	// clear window, not straight to Ok.
	evs := s.run(50, DefaultClearTicks)
	if len(evs) != 1 || evs[0].Level != LevelWarning || evs[0].Prev != LevelCritical {
		t.Fatalf("want one Critical->Warning event, got %+v", evs)
	}
}

func TestCritZeroDisablesCritical(t *testing.T) {
	s := newSynthetic(t, Check{Name: "c", Warn: 10})
	evs := s.run(1e9, 50)
	for _, e := range evs {
		if e.Level == LevelCritical {
			t.Fatalf("critical event from a check with Crit=0: %+v", e)
		}
	}
	if s.m.Worst() != LevelWarning {
		t.Fatalf("Worst = %v, want warning", s.m.Worst())
	}
}

func TestFlapCountsOnlySuppressionEscape(t *testing.T) {
	s := newSynthetic(t, Check{Name: "c", Warn: 10})
	s.run(50, DefaultRaiseTicks) // first raise, penalty 1

	// Quick raise/clear cycles escalate the penalty 2 -> 4 -> 8 without
	// counting a flap: a re-raise right after a published clear is
	// suppression at work (the next clear needs a correspondingly longer
	// calm window), not a suppression failure.
	for penalty := 1; penalty < flapPenaltyCap; penalty *= 2 {
		evs := s.run(0, penalty*DefaultClearTicks+FlapWindowTicks)
		if len(evs) != 1 || evs[0].Level != LevelOk {
			t.Fatalf("penalty %d: want one published clear, got %+v", penalty, evs)
		}
		evs = s.run(50, DefaultRaiseTicks)
		if len(evs) != 1 || evs[0].Flap {
			t.Fatalf("penalty %d: quick re-raise should escalate, not flap: %+v", penalty, evs)
		}
	}
	if s.m.Flaps() != 0 {
		t.Fatalf("Flaps = %d during escalation, want 0", s.m.Flaps())
	}

	// Penalty is now at its cap: one more quick cycle has exhausted every
	// escalation, so it is counted (and marked) as a flap.
	s.run(0, flapPenaltyCap*DefaultClearTicks+FlapWindowTicks)
	evs := s.run(50, DefaultRaiseTicks)
	if len(evs) != 1 || !evs[0].Flap {
		t.Fatalf("want one flap-marked raise at penalty cap, got %+v", evs)
	}
	if s.m.Flaps() != 1 {
		t.Fatalf("Flaps = %d, want 1", s.m.Flaps())
	}

	// A raise long after the clear resets the penalty: no flap, and the
	// clear window shrinks back to its base width.
	s.run(0, flapPenaltyCap*DefaultClearTicks+FlapWindowTicks)
	s.run(0, FlapWindowTicks+1)
	evs = s.run(50, DefaultRaiseTicks)
	if len(evs) != 1 || evs[0].Flap {
		t.Fatalf("late re-raise wrongly marked as flap: %+v", evs)
	}
	if s.m.Flaps() != 1 {
		t.Fatalf("Flaps = %d after clean raise, want 1", s.m.Flaps())
	}
	if evs := s.run(0, DefaultClearTicks+FlapWindowTicks); len(evs) != 1 || evs[0].Level != LevelOk {
		t.Fatalf("clean raise did not reset the clear window: %+v", evs)
	}
}

func TestDampingAbsorbsBriefDip(t *testing.T) {
	s := newSynthetic(t, Check{Name: "c", Warn: 10})
	s.run(50, DefaultRaiseTicks) // raise

	// Calm through the clear window (internal clear, hold-down starts),
	// then hot again before the hold-down expires: the dip must be
	// absorbed with zero published events.
	before := len(s.m.Events())
	s.run(0, DefaultClearTicks)
	s.run(50, FlapWindowTicks)
	if got := s.m.Events()[before:]; len(got) != 0 {
		t.Fatalf("dip leaked into the published stream: %+v", got)
	}
	if s.m.Current("c", "t0") != LevelWarning {
		t.Fatalf("published level = %v through the dip, want warning", s.m.Current("c", "t0"))
	}
	if s.m.Damped() != 1 || s.m.Flaps() != 0 {
		t.Fatalf("damped=%d flaps=%d, want 1 and 0", s.m.Damped(), s.m.Flaps())
	}

	// The damped key's penalty doubled: clearing now takes 2× calm plus
	// the hold-down.
	if evs := s.run(0, 2*DefaultClearTicks); len(evs) != 0 {
		t.Fatalf("damped key cleared too early: %+v", evs)
	}
	evs := s.run(0, FlapWindowTicks)
	if len(evs) != 1 || evs[0].Level != LevelOk {
		t.Fatalf("damped key did not clear after penalized window: %+v", evs)
	}
}

func TestVanishedTargetDecaysToOk(t *testing.T) {
	m := New()
	targets := []Observation{{Target: "sock", Value: 50}}
	m.MustRegister(Check{Name: "c", Warn: 10, Observe: func() []Observation { return targets }})
	at := sim.Time(0)
	tick := func(n int) {
		for i := 0; i < n; i++ {
			at += sim.Time(sim.Millisecond)
			m.Tick(at)
		}
	}
	tick(DefaultRaiseTicks)
	if m.Current("c", "sock") != LevelWarning {
		t.Fatal("target never raised")
	}
	// The target disappears (socket closed): implicit calm zeros must
	// clear the alert rather than wedge it raised forever.
	targets = nil
	tick(DefaultClearTicks + FlapWindowTicks)
	if got := m.Current("c", "sock"); got != LevelOk {
		t.Fatalf("vanished target stuck at %v, want ok", got)
	}
}

func TestRegisterRejectsBadChecks(t *testing.T) {
	m := New()
	ob := func() []Observation { return nil }
	if err := m.Register(Check{Name: "dup", Warn: 1, Observe: ob}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		c    Check
	}{
		{"duplicate name", Check{Name: "dup", Warn: 1, Observe: ob}},
		{"empty name", Check{Warn: 1, Observe: ob}},
		{"nil observe", Check{Name: "x", Warn: 1}},
		{"zero warn", Check{Name: "x", Observe: ob}},
		{"crit below warn", Check{Name: "x", Warn: 10, Crit: 5, Observe: ob}},
	}
	for _, tc := range cases {
		if err := m.Register(tc.c); err == nil {
			t.Errorf("%s: Register accepted an invalid check", tc.name)
		}
	}
	// The original registration survives the duplicate attempt.
	if len(m.Events()) != 0 || m.byName["dup"] != 0 {
		t.Fatal("failed registration mutated the registry")
	}
}

func TestNoteAndFirstAtSince(t *testing.T) {
	s := newSynthetic(t, Check{Name: "c", Warn: 10, Crit: 100})
	var hookFired int
	s.m.OnEvent(func(Event) { hookFired++ })
	s.m.Note(sim.Time(5), WatchdogCheckName, "(watchdog)", LevelCritical, "engaged")
	if hookFired != 0 {
		t.Fatal("Note fired OnEvent subscribers")
	}
	// FirstAtSince skips watchdog notes: only detections count.
	if _, ok := s.m.FirstAtSince(LevelCritical, 0); ok {
		t.Fatal("FirstAtSince counted a watchdog note as a detection")
	}
	s.run(200, DefaultRaiseTicks)
	at, ok := s.m.FirstAtSince(LevelCritical, 0)
	if !ok || at == 0 {
		t.Fatalf("FirstAtSince missed the critical raise (at=%v ok=%t)", at, ok)
	}
	if _, ok := s.m.FirstAtSince(LevelCritical, at+1); ok {
		t.Fatal("FirstAtSince ignored its since bound")
	}
}

func TestSelfCheckConsistent(t *testing.T) {
	s := newSynthetic(t, Check{Name: "c", Warn: 10, Crit: 100})
	s.run(200, 10)
	s.run(0, 20)
	s.run(50, 3)
	if msg := s.m.SelfCheck(); msg != "" {
		t.Fatalf("SelfCheck reports a missed detection on a healthy monitor: %s", msg)
	}
}

func TestWriteJSONLStableAndParseable(t *testing.T) {
	render := func() string {
		s := newSynthetic(t, Check{Name: "c", Warn: 10, Crit: 100})
		s.m.SetRun(42, "rc", sim.Duration(sim.Millisecond))
		s.run(200, 4)
		s.run(0.5, 20)
		s.m.Note(sim.Time(7), WatchdogCheckName, "(watchdog)", LevelOk, `detail with "quotes"`)
		var buf bytes.Buffer
		if err := s.m.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("two identical runs rendered different JSONL")
	}
	lines := strings.Split(strings.TrimSuffix(a, "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("want meta + >=2 events, got %d lines", len(lines))
	}
	for i, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, ln)
		}
		wantType := "alert"
		if i == 0 {
			wantType = "meta"
		}
		if obj["type"] != wantType {
			t.Fatalf("line %d type = %v, want %s", i, obj["type"], wantType)
		}
	}
	var meta map[string]any
	_ = json.Unmarshal([]byte(lines[0]), &meta)
	if meta["seed"] != float64(42) || meta["mode"] != "rc" {
		t.Fatalf("meta line missing run identity: %s", lines[0])
	}
}

func TestSchmittDeadBandHoldsLevel(t *testing.T) {
	s := newSynthetic(t, Check{Name: "c", Warn: 10, Crit: 100})
	s.run(50, DefaultRaiseTicks) // raise to warning

	// Hover in the dead band [Warn*ClearFrac, Warn): never calm, never
	// hot — the level must hold indefinitely with zero events.
	if evs := s.run(8, 10*DefaultClearTicks); len(evs) != 0 {
		t.Fatalf("dead-band hover emitted events: %+v", evs)
	}
	if got := s.m.Current("c", "t0"); got != LevelWarning {
		t.Fatalf("dead-band hover changed level to %v", got)
	}

	// Dropping below Warn*ClearFrac finally clears.
	evs := s.run(7, DefaultClearTicks+FlapWindowTicks)
	if len(evs) != 1 || evs[0].Level != LevelOk {
		t.Fatalf("want one clear after leaving the dead band, got %+v", evs)
	}
	if s.m.Flaps() != 0 {
		t.Fatalf("Flaps = %d, want 0", s.m.Flaps())
	}
}

// An observation's diagnostic renders as fmt.Sprintf would format its
// operands, and published events carry it.
func TestDetailRenderedOnPublish(t *testing.T) {
	for _, tc := range []struct {
		ob   Observation
		want string
	}{
		{Observation{}, ""},
		{Observation{Format: "calm"}, "calm"},
		{Observation{Format: "drops_total=%d", Args: [3]Arg{Int(1 << 40)}}, "drops_total=1099511627776"},
		{Observation{Format: "share=%g cpu_delta_ns=%d pkts_delta=%d", Args: [3]Arg{Float(0.25), Int(-3), Int(7)}},
			"share=0.25 cpu_delta_ns=-3 pkts_delta=7"},
		{Observation{Format: "cpu +%v this tick", Args: [3]Arg{Dur(1500 * time.Microsecond)}}, "cpu +1.5ms this tick"},
	} {
		if got := tc.ob.detail(); got != tc.want {
			t.Errorf("detail of %q = %q, want %q", tc.ob.Format, got, tc.want)
		}
	}

	s := newSynthetic(t, Check{Name: "c", Warn: 10, Raise: 1, Observe: func() []Observation {
		return []Observation{{Target: "t0", Value: 20, Format: "v=%d", Args: [3]Arg{Int(20)}}}
	}})
	if evs := s.run(0, 5); len(evs) != 1 || evs[0].Detail != "v=20" {
		t.Fatalf("events %+v, want one raise with detail v=20", evs)
	}
}
