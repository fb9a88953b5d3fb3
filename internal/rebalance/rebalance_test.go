package rebalance

import (
	"bytes"
	"strings"
	"testing"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

// harness builds a root with n FixedShare children holding equal shares
// summing to totalShare, and a controller governing them as one CPU
// pool whose demand signals are driven by the test.
type harness struct {
	t       *testing.T
	root    *rc.Container
	kids    []*rc.Container
	demands []int64
	ctrl    *Controller
	now     sim.Time
}

func newHarness(t *testing.T, n int, totalShare float64, cfg Config) *harness {
	t.Helper()
	h := &harness{t: t}
	h.root = rc.MustNew(nil, rc.FixedShare, "root", rc.Attributes{Share: 1})
	per := totalShare / float64(n)
	members := make([]Member, n)
	h.demands = make([]int64, n)
	for i := 0; i < n; i++ {
		c := rc.MustNew(h.root, rc.FixedShare, "kid"+string(rune('A'+i)), rc.Attributes{Share: per})
		h.kids = append(h.kids, c)
		i := i
		members[i] = Member{Container: c, Demand: func() int64 { return h.demands[i] }}
	}
	h.ctrl = New(cfg)
	if err := h.ctrl.AddPool(PoolConfig{Name: "cpu", Resource: CPUShare, Members: members}); err != nil {
		t.Fatalf("AddPool: %v", err)
	}
	return h
}

func (h *harness) tick() {
	h.now += sim.Time(1e6)
	h.ctrl.Tick(h.now)
}

func (h *harness) audit() {
	h.t.Helper()
	if v := h.ctrl.AuditConservation(); v != "" {
		h.t.Fatalf("conservation violated: %s", v)
	}
	if v := h.ctrl.AuditFloors(); v != "" {
		h.t.Fatalf("floor violated: %s", v)
	}
}

func TestAddPoolValidation(t *testing.T) {
	root := rc.MustNew(nil, rc.FixedShare, "root", rc.Attributes{Share: 1})
	a := rc.MustNew(root, rc.FixedShare, "a", rc.Attributes{Share: 0.3})
	b := rc.MustNew(root, rc.FixedShare, "b", rc.Attributes{Share: 0.3})
	dem := func() int64 { return 0 }
	ctrl := New(Config{})
	cases := []struct {
		name string
		pc   PoolConfig
	}{
		{"no name", PoolConfig{Members: []Member{{a, dem}, {b, dem}}}},
		{"one member", PoolConfig{Name: "p", Members: []Member{{a, dem}}}},
		{"nil container", PoolConfig{Name: "p", Members: []Member{{a, dem}, {nil, dem}}}},
		{"nil demand", PoolConfig{Name: "p", Members: []Member{{a, dem}, {b, nil}}}},
		{"duplicate member", PoolConfig{Name: "p", Members: []Member{{a, dem}, {a, dem}}}},
	}
	for _, tc := range cases {
		if err := ctrl.AddPool(tc.pc); err == nil {
			t.Errorf("%s: AddPool accepted invalid pool", tc.name)
		}
	}
	if err := ctrl.AddPool(PoolConfig{Name: "p", Resource: CPUShare, Members: []Member{{a, dem}, {b, dem}}}); err != nil {
		t.Fatalf("valid pool rejected: %v", err)
	}
	if err := ctrl.AddPool(PoolConfig{Name: "p", Resource: CPUShare, Members: []Member{{a, dem}, {b, dem}}}); err == nil {
		t.Error("duplicate pool name accepted")
	}
	// Zero-total pool: nothing to govern.
	z1 := rc.MustNew(root, rc.FixedShare, "z1", rc.Attributes{})
	z2 := rc.MustNew(root, rc.FixedShare, "z2", rc.Attributes{})
	if err := ctrl.AddPool(PoolConfig{Name: "zero", Resource: CPUShare, Members: []Member{{z1, dem}, {z2, dem}}}); err == nil {
		t.Error("zero-total pool accepted")
	}
}

func TestStepsChaseDemandAndConserve(t *testing.T) {
	h := newHarness(t, 2, 0.8, Config{})
	// All demand on kid B: controller should move share from A to B,
	// bounded per tick, conserving the total at every step.
	for i := 0; i < 200; i++ {
		h.demands[1] += 1000
		h.tick()
		h.audit()
	}
	alloc := h.ctrl.Allocations("cpu")
	if alloc[1] <= alloc[0] {
		t.Fatalf("demanded member did not grow: %v", alloc)
	}
	if h.ctrl.Steps() == 0 {
		t.Fatal("no steps applied")
	}
	// Floors hold even with zero demand on A.
	if v := h.ctrl.AuditFloors(); v != "" {
		t.Fatalf("floor: %s", v)
	}
}

func TestStepBoundPerTick(t *testing.T) {
	h := newHarness(t, 2, 0.8, Config{CooldownTicks: 1})
	total := int64(0.8 * 1e6)
	step := int64(DefaultStepFrac * float64(total))
	prev := h.ctrl.Allocations("cpu")
	for i := 0; i < 50; i++ {
		h.demands[1] += 1_000_000
		h.tick()
		cur := h.ctrl.Allocations("cpu")
		for j := range cur {
			d := cur[j] - prev[j]
			if d < 0 {
				d = -d
			}
			if d > step {
				t.Fatalf("tick %d member %d moved %d units, step bound %d", i, j, d, step)
			}
		}
		prev = cur
	}
}

func TestCooldownSuppressesConsecutiveSteps(t *testing.T) {
	h := newHarness(t, 2, 0.8, Config{CooldownTicks: 10})
	var stepTicks []uint64
	last := uint64(0)
	for i := 0; i < 40; i++ {
		h.demands[1] += 1_000_000
		h.tick()
		if s := h.ctrl.Steps(); s > last {
			stepTicks = append(stepTicks, h.ctrl.Ticks())
			last = s
		}
	}
	if len(stepTicks) < 2 {
		t.Fatalf("expected at least two step rounds, got %d", len(stepTicks))
	}
	for i := 1; i < len(stepTicks); i++ {
		if gap := stepTicks[i] - stepTicks[i-1]; gap <= 10 {
			t.Fatalf("steps %d ticks apart, cooldown 10 not honored", gap)
		}
	}
}

func TestDeadbandSuppressesSmallImbalance(t *testing.T) {
	h := newHarness(t, 2, 0.8, Config{})
	// 55/45 demand split: imbalance (5% of pool) under the 10% deadband.
	for i := 0; i < 100; i++ {
		h.demands[0] += 55
		h.demands[1] += 45
		h.tick()
	}
	if h.ctrl.Steps() != 0 {
		t.Fatalf("deadband breached: %d steps for a tiny imbalance", h.ctrl.Steps())
	}
}

func TestFloorNeverCrossed(t *testing.T) {
	h := newHarness(t, 3, 0.9, Config{CooldownTicks: 1})
	// Starve kid A completely for a long time.
	for i := 0; i < 500; i++ {
		h.demands[1] += 700
		h.demands[2] += 300
		h.tick()
		h.audit()
	}
	total := int64(0.9 * 1e6)
	floor := int64(DefaultFloorFrac * float64(total))
	if got := h.ctrl.Allocations("cpu")[0]; got < floor {
		t.Fatalf("starved member at %d units, floor %d", got, floor)
	}
}

func TestOscillationDisarmsAndRestoresExactly(t *testing.T) {
	h := newHarness(t, 2, 0.8, Config{
		StepFrac: 0.5, NoCooldown: true, NoDeadband: true,
		OscWindowTicks: 16, OscMaxFlips: 4, DemandWindowTicks: 1,
	})
	savedA := h.kids[0].Attributes()
	savedB := h.kids[1].Attributes()
	// Alternate demand hard every tick: the controller chases, flips
	// direction repeatedly, and must disarm.
	for i := 0; i < 200 && !h.ctrl.Disarmed(); i++ {
		h.demands[i%2] += 1_000_000
		h.tick()
	}
	if !h.ctrl.Disarmed() {
		t.Fatalf("controller never disarmed (flips=%d)", h.ctrl.Flips())
	}
	if h.ctrl.Disarms() != 1 {
		t.Fatalf("disarms = %d, want 1", h.ctrl.Disarms())
	}
	if got := h.kids[0].Attributes(); got != savedA {
		t.Fatalf("kid A restored to %+v, want %+v", got, savedA)
	}
	if got := h.kids[1].Attributes(); got != savedB {
		t.Fatalf("kid B restored to %+v, want %+v", got, savedB)
	}
	if v := h.ctrl.AuditRestore(); v != "" {
		t.Fatalf("restore audit: %s", v)
	}
	// Disarmed controller does nothing forever after.
	steps := h.ctrl.Steps()
	for i := 0; i < 20; i++ {
		h.demands[i%2] += 1_000_000
		h.tick()
	}
	if h.ctrl.Steps() != steps {
		t.Fatal("disarmed controller still stepping")
	}
}

func TestSmoothDemandShiftDoesNotDisarm(t *testing.T) {
	// A diurnal-style swing — demand migrating once from A to B — must
	// not trip the detector under default damping.
	h := newHarness(t, 2, 0.8, Config{})
	for i := 0; i < 300; i++ {
		if i < 150 {
			h.demands[0] += 900
			h.demands[1] += 100
		} else {
			h.demands[0] += 100
			h.demands[1] += 900
		}
		h.tick()
		h.audit()
	}
	if h.ctrl.Disarmed() {
		t.Fatalf("smooth shift disarmed the controller (flips=%d)", h.ctrl.Flips())
	}
	alloc := h.ctrl.Allocations("cpu")
	if alloc[1] <= alloc[0] {
		t.Fatalf("controller did not follow the shift: %v", alloc)
	}
}

type fakeFreezer struct{ on bool }

func (f *fakeFreezer) Engaged() bool { return f.on }

func TestFreezerPreemptsAndCalmResumes(t *testing.T) {
	fz := &fakeFreezer{}
	h := newHarness(t, 2, 0.8, Config{Freeze: []Freezer{fz}})
	h.demands[1] += 1_000_000
	h.tick()
	stepsBefore := h.ctrl.Steps()
	if stepsBefore == 0 {
		t.Fatal("no step before freeze")
	}
	fz.on = true
	for i := 0; i < 10; i++ {
		h.demands[1] += 1_000_000
		h.tick()
	}
	if h.ctrl.Steps() != stepsBefore {
		t.Fatal("controller stepped while frozen")
	}
	if h.ctrl.Freezes() != 1 {
		t.Fatalf("freezes = %d, want 1", h.ctrl.Freezes())
	}
	if !h.ctrl.Frozen() {
		t.Fatal("Frozen() false while freezer engaged")
	}
	// The watchdog rewrote attributes while it held the hierarchy; the
	// resumed controller must resync, not fight.
	moved := h.kids[0].Attributes()
	moved.Share = 0.1
	moved.Limit = 0
	if err := h.kids[0].SetAttributes(moved); err != nil {
		t.Fatalf("external mutation: %v", err)
	}
	fz.on = false
	for i := 0; i < DefaultCalmTicks; i++ { // calm hold-off
		h.tick()
		if h.ctrl.Steps() != stepsBefore {
			t.Fatal("controller stepped during calm hold-off")
		}
	}
	h.tick() // resume tick: resyncs
	if h.ctrl.Frozen() {
		t.Fatal("still frozen after calm elapsed")
	}
	if h.ctrl.Resumes() != 1 {
		t.Fatalf("resumes = %d, want 1", h.ctrl.Resumes())
	}
	if got := h.ctrl.Allocations("cpu")[0]; got != int64(0.1*1e6) {
		t.Fatalf("resync missed external mutation: cur=%d", got)
	}
}

func TestMemQuotaPool(t *testing.T) {
	root := rc.MustNew(nil, rc.FixedShare, "root", rc.Attributes{Share: 1})
	a := rc.MustNew(root, rc.FixedShare, "cacheA", rc.Attributes{MemLimit: 192 << 10})
	b := rc.MustNew(root, rc.FixedShare, "cacheB", rc.Attributes{MemLimit: 64 << 10})
	var missA, missB int64
	ctrl := New(Config{CooldownTicks: 1})
	err := ctrl.AddPool(PoolConfig{Name: "cache", Resource: MemQuota, Members: []Member{
		{a, func() int64 { return missA }},
		{b, func() int64 { return missB }},
	}})
	if err != nil {
		t.Fatalf("AddPool: %v", err)
	}
	for i := 0; i < 200; i++ {
		missB += 100
		ctrl.Tick(sim.Time(i) * 1e6)
		if v := ctrl.AuditConservation(); v != "" {
			t.Fatalf("conservation: %s", v)
		}
	}
	if got := b.Attributes().MemLimit; got <= 64<<10 {
		t.Fatalf("missing cache did not grow: %d bytes", got)
	}
	if total := a.Attributes().MemLimit + b.Attributes().MemLimit; total != 256<<10 {
		t.Fatalf("quota total drifted: %d", total)
	}
}

func TestCPUShareTracksHardLimit(t *testing.T) {
	// A member whose saved attributes carry Limit == Share (a hard
	// reservation) keeps Limit == Share as it is resized.
	root := rc.MustNew(nil, rc.FixedShare, "root", rc.Attributes{Share: 1})
	a := rc.MustNew(root, rc.FixedShare, "a", rc.Attributes{Share: 0.5, Limit: 0.5})
	b := rc.MustNew(root, rc.FixedShare, "b", rc.Attributes{Share: 0.2, Limit: 0.2})
	var da, db int64
	ctrl := New(Config{CooldownTicks: 1})
	if err := ctrl.AddPool(PoolConfig{Name: "cpu", Resource: CPUShare, Members: []Member{
		{a, func() int64 { return da }},
		{b, func() int64 { return db }},
	}}); err != nil {
		t.Fatalf("AddPool: %v", err)
	}
	for i := 0; i < 100; i++ {
		db += 1000
		ctrl.Tick(sim.Time(i) * 1e6)
	}
	ba := b.Attributes()
	if ba.Share <= 0.2 {
		t.Fatalf("b did not grow: %+v", ba)
	}
	if ba.Limit != ba.Share {
		t.Fatalf("hard reservation lost: Share=%v Limit=%v", ba.Share, ba.Limit)
	}
}

func TestPlantedBugsTripAudits(t *testing.T) {
	t.Run("leak", func(t *testing.T) {
		h := newHarness(t, 2, 0.8, Config{LeakUnits: 1})
		for i := 0; i < 5; i++ {
			h.tick()
		}
		if v := h.ctrl.AuditConservation(); v == "" {
			t.Fatal("LeakUnits did not trip AuditConservation")
		}
	})
	t.Run("no-floor", func(t *testing.T) {
		h := newHarness(t, 2, 0.8, Config{IgnoreFloors: true, CooldownTicks: 1, NoDeadband: true})
		for i := 0; i < 500; i++ {
			h.demands[1] += 1_000_000
			h.tick()
		}
		if v := h.ctrl.AuditFloors(); v == "" {
			t.Fatal("IgnoreFloors never crossed the floor")
		}
	})
	t.Run("no-disarm", func(t *testing.T) {
		h := newHarness(t, 2, 0.8, Config{
			StepFrac: 0.5, NoCooldown: true, NoDeadband: true,
			OscWindowTicks: 16, OscMaxFlips: 4, DemandWindowTicks: 1,
			DisableDisarm: true,
		})
		for i := 0; i < 200; i++ {
			h.demands[i%2] += 1_000_000
			h.tick()
		}
		if h.ctrl.Disarmed() {
			t.Fatal("DisableDisarm ignored")
		}
		if v := h.ctrl.AuditOscillation(); v == "" {
			t.Fatal("armed oscillating controller passed AuditOscillation")
		}
	})
}

func TestJournalByteStable(t *testing.T) {
	run := func() string {
		h := newHarness(t, 2, 0.8, Config{})
		for i := 0; i < 100; i++ {
			h.demands[i%2*1] += int64(900 - i)
			h.demands[1] += 500
			h.tick()
		}
		var b bytes.Buffer
		if err := h.ctrl.WriteJSONL(&b); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		return b.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("journal not byte-stable across identical runs")
	}
	if !strings.HasPrefix(a, `{"type":"meta",`) {
		t.Fatalf("journal missing meta header: %q", a[:60])
	}
	if !strings.Contains(a, `"action":"arm"`) {
		t.Fatal("journal missing arm records")
	}
	if !strings.Contains(a, `"action":"step"`) {
		t.Fatal("journal missing step records")
	}
	for _, line := range strings.Split(strings.TrimSpace(a), "\n") {
		if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
			t.Fatalf("malformed journal line: %q", line)
		}
	}
}

func TestNilAndEmptyControllerSafe(t *testing.T) {
	var nilCtrl *Controller
	nilCtrl.Tick(0)
	if nilCtrl.Disarmed() || nilCtrl.Frozen() {
		t.Fatal("nil controller not inert")
	}
	if v := nilCtrl.AuditConservation(); v != "" {
		t.Fatal("nil controller audit non-empty")
	}
	if err := nilCtrl.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteJSONL: %v", err)
	}
	empty := New(Config{})
	for i := 0; i < 10; i++ {
		empty.Tick(sim.Time(i))
	}
	if empty.Ticks() != 10 || empty.Steps() != 0 {
		t.Fatalf("empty controller ticks=%d steps=%d", empty.Ticks(), empty.Steps())
	}
}
