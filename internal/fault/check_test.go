package fault

import (
	"strings"
	"testing"

	"rescon/internal/sim"
)

// The built-in clock check holds over a run with events between checks.
func TestCheckerCleanRun(t *testing.T) {
	eng := sim.NewEngine(1)
	ch := NewChecker(eng)
	ch.Start(sim.Millisecond)
	eng.Every(sim.Millisecond/2, func() {})
	eng.RunUntil(sim.Time(0).Add(100 * sim.Millisecond))

	if ch.Checks() == 0 {
		t.Fatal("checker never ran")
	}
	if v := ch.Violations(); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

// A violation is prefixed with its check's name, the failure class, and
// a check records at most one violation per tick.
func TestCheckerNamesViolations(t *testing.T) {
	eng := sim.NewEngine(1)
	ch := NewChecker(eng)
	ch.FailFast = false
	bad := ""
	ch.MustWatchCheck("first", func() string { return "" })
	ch.MustWatchCheck("second", func() string { return bad })
	ch.Check()
	if v := ch.Violations(); len(v) != 0 {
		t.Fatalf("violations from holding checks: %v", v)
	}
	bad = "broken"
	ch.Check()
	ch.Check()
	want := "fault: invariant violated at 0s: second: broken"
	if v := ch.Violations(); len(v) != 2 || v[0] != want || v[1] != want {
		t.Fatalf("violations %q, want %q twice", v, want)
	}
}

// Planted bug: a clock reading behind the last check is reported as
// monotonic-clock, the built-in check, and is not adopted.
func TestCheckerCatchesClockMovingBack(t *testing.T) {
	eng := sim.NewEngine(1)
	ch := NewChecker(eng)
	ch.FailFast = false
	if err := ch.WatchCheck("monotonic-clock", func() string { return "" }); err == nil {
		t.Fatal("monotonic-clock is not registered")
	}
	ch.lastNow = sim.Time(sim.Second)
	ch.Check()
	ch.Check()
	v := ch.Violations()
	if len(v) != 2 || !strings.Contains(v[0], ": monotonic-clock: clock moved backwards: 1s -> 0s") {
		t.Fatalf("violations %q, want two monotonic-clock violations", v)
	}
	ch.lastNow, ch.lastFired = 0, 1
	ch.Check()
	if v := ch.Violations(); len(v) != 3 || !strings.Contains(v[2], ": monotonic-clock: fired-event count decreased: 1 -> 0") {
		t.Fatalf("violations %q, want a fired-event violation", v)
	}
}

func TestCheckerFailFastPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	ch := NewChecker(eng)
	ch.MustWatchCheck("queue-bound", func() string { return "q over bound: 10 > 4" })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("FailFast violation did not panic")
		}
		if want := "fault: invariant violated at 0s: queue-bound: q over bound: 10 > 4"; r != want {
			t.Fatalf("panic %q, want %q", r, want)
		}
	}()
	ch.Check()
}

func TestCheckerStartStop(t *testing.T) {
	eng := sim.NewEngine(1)
	ch := NewChecker(eng)
	ch.Start(0) // default period
	eng.RunUntil(sim.Time(0).Add(55 * sim.Millisecond))
	n := ch.Checks()
	if n == 0 {
		t.Fatal("periodic checker never fired")
	}
	ch.Stop()
	eng.RunUntil(sim.Time(0).Add(200 * sim.Millisecond))
	if ch.Checks() != n {
		t.Fatalf("checker fired after Stop: %d -> %d", n, ch.Checks())
	}
}

func TestCrasherSchedule(t *testing.T) {
	run := func() (uint64, uint64, []sim.Time) {
		eng := sim.NewEngine(13)
		var crashTimes []sim.Time
		var up, down int
		cr, err := StartCrasher(eng, CrashPlan{MTBF: 200 * sim.Millisecond, Downtime: 50 * sim.Millisecond},
			func() { down++; crashTimes = append(crashTimes, eng.Now()) },
			func() { up++ },
		)
		if err != nil {
			t.Fatalf("StartCrasher: %v", err)
		}
		eng.RunUntil(sim.Time(0).Add(3 * sim.Second))
		if down != int(cr.Crashes()) || up != int(cr.Restarts()) {
			t.Fatalf("callback counts diverge from Crasher counters")
		}
		return cr.Crashes(), cr.Restarts(), crashTimes
	}
	c1, r1, t1 := run()
	c2, r2, t2 := run()
	if c1 == 0 {
		t.Fatal("no crashes in 3s with 200ms MTBF")
	}
	if r1 > c1 || c1-r1 > 1 {
		t.Fatalf("restarts %d inconsistent with crashes %d", r1, c1)
	}
	if c1 != c2 || r1 != r2 {
		t.Fatalf("crash schedule not deterministic: (%d,%d) vs (%d,%d)", c1, r1, c2, r2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("crash %d at %v vs %v", i, t1[i], t2[i])
		}
	}
}

func TestCrasherStop(t *testing.T) {
	eng := sim.NewEngine(13)
	cr, err := StartCrasher(eng, CrashPlan{MTBF: 100 * sim.Millisecond}, func() {}, func() {})
	if err != nil {
		t.Fatalf("StartCrasher: %v", err)
	}
	eng.RunUntil(sim.Time(0).Add(time500ms))
	cr.Stop()
	n := cr.Crashes()
	eng.RunUntil(sim.Time(0).Add(5 * sim.Second))
	if cr.Crashes() != n {
		t.Fatalf("crashes after Stop: %d -> %d", n, cr.Crashes())
	}
}

const time500ms = 500 * sim.Millisecond

func TestCrasherRequiresMTBF(t *testing.T) {
	eng := sim.NewEngine(1)
	cr, err := StartCrasher(eng, CrashPlan{}, func() {}, func() {})
	if err == nil {
		t.Fatal("zero MTBF did not return an error")
	}
	if cr != nil {
		t.Fatal("zero MTBF returned a non-nil Crasher")
	}
}

func TestWatchCheckRejectsDuplicateName(t *testing.T) {
	eng := sim.NewEngine(1)
	ch := NewChecker(eng)
	ok := func() string { return "" }
	if err := ch.WatchCheck("conn-conservation", ok); err != nil {
		t.Fatal(err)
	}
	err := ch.WatchCheck("conn-conservation", func() string { return "impostor" })
	if err == nil {
		t.Fatal("duplicate check name accepted")
	}
	if !strings.Contains(err.Error(), "conn-conservation") {
		t.Fatalf("error does not name the duplicate: %v", err)
	}
	// The original registration must survive: a check run reports no
	// violations, proving the impostor was rejected rather than the
	// original overwritten.
	ch.FailFast = false
	ch.Check()
	if v := ch.Violations(); len(v) != 0 {
		t.Fatalf("duplicate registration replaced the original check: %v", v)
	}
	if err := ch.WatchCheck("", ok); err == nil {
		t.Error("empty check name accepted")
	}
	if err := ch.WatchCheck("nil-fn", nil); err == nil {
		t.Error("nil check function accepted")
	}
}

func TestMustWatchCheckPanicsOnDuplicate(t *testing.T) {
	eng := sim.NewEngine(1)
	ch := NewChecker(eng)
	ch.MustWatchCheck("once", func() string { return "" })
	defer func() {
		if recover() == nil {
			t.Fatal("MustWatchCheck did not panic on duplicate name")
		}
	}()
	ch.MustWatchCheck("once", func() string { return "" })
}
