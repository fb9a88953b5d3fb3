package rcruntime

import (
	"errors"
	"testing"
	"time"

	"rescon/internal/rc"
)

func testTree(t *testing.T, limit float64) (root, leaf *rc.Container) {
	t.Helper()
	root = rc.MustNew(nil, rc.FixedShare, "root", rc.Attributes{})
	capped := rc.MustNew(root, rc.FixedShare, "capped", rc.Attributes{Limit: limit})
	leaf = rc.MustNew(capped, rc.TimeShare, "leaf", rc.Attributes{Priority: 1})
	return root, leaf
}

func TestConfigValidate(t *testing.T) {
	root, _ := testTree(t, 0.5)
	dead := rc.MustNew(nil, rc.FixedShare, "dead", rc.Attributes{})
	_ = dead.Release()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil root", Config{}},
		{"destroyed root", Config{Root: dead}},
		{"negative window", Config{Root: root, Window: -time.Second}},
		{"negative maxdelay", Config{Root: root, MaxDelay: -2}},
		{"policy negative maxconns", Config{Root: root, Policy: AcceptPolicy{Enabled: true, MaxConns: -1}}},
		{"enabled policy with no knobs", Config{Root: root, Policy: AcceptPolicy{Enabled: true}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Validate() = %v, want ErrBadConfig", err)
			}
			if _, err := NewRuntime(tc.cfg); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("NewRuntime() error = %v, want ErrBadConfig", err)
			}
		})
	}
	// NoDelay is a valid MaxDelay, and a zero policy is fine.
	if err := (Config{Root: root, MaxDelay: NoDelay}).Validate(); err != nil {
		t.Fatalf("NoDelay config rejected: %v", err)
	}
}

func TestMustNewRuntimePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewRuntime(Config{}) did not panic")
		}
	}()
	MustNewRuntime(Config{})
}

func TestOptionOverrides(t *testing.T) {
	root, _ := testTree(t, 0.5)
	fc := &VirtualClock{}
	rt, err := NewRuntime(Config{Root: root, Window: 50 * time.Millisecond}, WithClock(fc))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Window() != 50*time.Millisecond {
		t.Fatalf("Config.Window not applied: window %v", rt.Window())
	}
	if rt.Root() != root {
		t.Fatal("Root() mismatch")
	}
	// nil option values keep the defaults instead of crashing later.
	rt2, err := NewRuntime(Config{Root: root}, WithClock(nil), WithBinder(nil), WithTelemetrySink(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rt2.Window() != DefaultWindow {
		t.Fatalf("default window %v", rt2.Window())
	}
}

func TestAcquireForTryAcquire(t *testing.T) {
	fc := &VirtualClock{}
	e := New(fc, 10*time.Millisecond)
	_, leaf := testTree(t, 0.5)
	e.Acquire(leaf)(5 * time.Millisecond) // exhaust the window budget
	before := fc.Now()
	if _, ok := e.admit(leaf, 0); ok {
		t.Fatal("try-acquire admitted over-budget work")
	}
	if !fc.Now().Equal(before) {
		t.Fatal("try-acquire consumed time")
	}
	// Within budget, a try-acquire admits without waiting.
	fc.Sleep(11 * time.Millisecond)
	waited, ok := e.admit(leaf, 0)
	if !ok || waited {
		t.Fatalf("try-acquire of in-budget work: ok %t, waited %t", ok, waited)
	}
}

func TestAcquireForBoundedWaitExpires(t *testing.T) {
	fc := &VirtualClock{}
	e := New(fc, 10*time.Millisecond)
	_, leaf := testTree(t, 0.5)
	e.Acquire(leaf)(5 * time.Millisecond)
	before := fc.Now()
	if _, ok := e.admit(leaf, 4*time.Millisecond); ok {
		t.Fatal("admitted before the window rolled")
	}
	if waited := fc.Now().Sub(before); waited > 5*time.Millisecond {
		t.Fatalf("waited %v, want at most ~maxWait", waited)
	}
}

func TestAcquireForWaitsAcrossRoll(t *testing.T) {
	fc := &VirtualClock{}
	e := New(fc, 10*time.Millisecond)
	_, leaf := testTree(t, 0.5)
	e.Acquire(leaf)(5 * time.Millisecond)
	waited, ok := e.admit(leaf, 30*time.Millisecond)
	if !ok || !waited {
		t.Fatalf("bounded wait long enough for a roll: ok %t, waited %t", ok, waited)
	}
}

func TestOverBudget(t *testing.T) {
	fc := &VirtualClock{}
	e := New(fc, 10*time.Millisecond)
	_, leaf := testTree(t, 0.5)
	if e.OverBudget(leaf) {
		t.Fatal("fresh container over budget")
	}
	e.Acquire(leaf)(5 * time.Millisecond)
	if !e.OverBudget(leaf) {
		t.Fatal("exhausted subtree not reported over budget")
	}
	fc.Sleep(11 * time.Millisecond)
	if e.OverBudget(leaf) {
		t.Fatal("over budget after the window rolled")
	}
	_ = leaf.Release()
	if e.OverBudget(leaf) {
		t.Fatal("destroyed container reported over budget")
	}
}

func TestWindowRemaining(t *testing.T) {
	fc := &VirtualClock{}
	e := New(fc, 10*time.Millisecond)
	_, leaf := testTree(t, 0.5)
	e.Acquire(leaf)(0) // rolls the window to "now"
	fc.Sleep(4 * time.Millisecond)
	if rem := e.WindowRemaining(); rem != 6*time.Millisecond {
		t.Fatalf("WindowRemaining() = %v, want 6ms", rem)
	}
	fc.Sleep(20 * time.Millisecond)
	if rem := e.WindowRemaining(); rem != 0 {
		t.Fatalf("expired window remaining %v, want 0", rem)
	}
}
