// Package rebalance is the closed-loop adaptive share controller: a
// feedback loop that watches per-container demand on the telemetry
// sampling tick and live-rewrites container attributes via
// SetAttributes to chase hotspots — growing starved-but-backlogged
// subtrees, shrinking idle reservations, clamping runaway tenants back
// toward their demand-proportional slice.
//
// The headline of the design is not effectiveness but *safety*: a
// controller that mutates the live hierarchy is a new failure mode, so
// every mechanism that could let it misbehave is bounded by
// construction:
//
//   - Integer allocation units. Every pool's allocation is tracked in
//     integer units (millionths of the machine for CPU, bytes for
//     memory) and every applied step moves units from one member to
//     another, so the pool total is conserved *exactly* — not to a
//     float epsilon — at every tick. The chaos harness checks this as
//     the rebalance-conservation invariant.
//   - Bounded steps and cooldowns. No member's allocation moves more
//     than StepFrac of the pool per tick, and a member that was just
//     adjusted is left alone for CooldownTicks. A deadband suppresses
//     reactions to imbalances too small to matter.
//   - Hard starvation floors. No decision may push a member below its
//     floor (min of DefaultFloorFrac·total and its starting
//     allocation), no matter how idle it looks — checked as
//     rebalance-starvation.
//   - A self-disarming oscillation detector. Applied steps that keep
//     reversing direction are the signature of a fighting loop; the
//     controller counts sign flips per member over a sliding window
//     and, past the threshold, disarms itself permanently: every
//     member's saved static attributes are restored *verbatim* and the
//     controller degrades to "do nothing". Checked as
//     rebalance-oscillation.
//   - Actuator arbitration. The controller and the overload watchdog
//     (alert.Watchdog, in the simulation and on the live runtime alike)
//     act on the same hierarchy. The watchdog wins: while any
//     configured Freezer reports Engaged the controller is frozen, and
//     it stays frozen for DefaultCalmTicks after the engagement clears
//     before resyncing its view of the hierarchy and resuming.
//
// Every decision — arm, step, freeze, resume, disarm, restore — is
// journaled and exported as a byte-stable JSONL stream (WriteJSONL),
// which the chaos harness folds into its determinism hash.
//
// Wiring: Attach subscribes the controller to a telemetry collector's
// sampling tick (the simulated kernel's clock); rcruntime's
// AttachRebalancer drives the same controller from the runtime
// monitor's tick under the enforcer's lock. Pools are added after
// construction with AddPool, once the governed containers exist.
package rebalance

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"rescon/internal/rc"
	"rescon/internal/sim"
	"rescon/internal/telemetry"
)

// UnitsPerShare is the integer resolution of CPU allocations: one unit
// is a millionth of the machine, so a whole-machine share is 1e6 units
// and float round-trips through rc.Attributes are exact.
const UnitsPerShare = 1_000_000

// Controller constants. Zero Config fields take the step, cooldown,
// oscillation and demand-window values; the floor, deadband and calm
// values are fixed.
const (
	// DefaultStepFrac bounds one member's per-tick movement to 5% of
	// the pool.
	DefaultStepFrac = 0.05
	// DefaultFloorFrac sets the starvation floor at 5% of the pool
	// (capped by the member's starting allocation).
	DefaultFloorFrac = 0.05
	// DefaultCooldownTicks is how long an adjusted member is left alone.
	DefaultCooldownTicks = 4
	// DefaultDeadbandFrac suppresses steps while every member is within
	// 10% of the pool of its demand-proportional target.
	DefaultDeadbandFrac = 0.10
	// DefaultOscWindowTicks is the sliding window of the sign-flip
	// oscillation detector.
	DefaultOscWindowTicks = 64
	// DefaultOscMaxFlips is the flip count (per member, within the
	// window) that trips the detector and disarms the controller.
	DefaultOscMaxFlips = 6
	// DefaultCalmTicks is how long the controller stays frozen after
	// the last Freezer disengages before resuming.
	DefaultCalmTicks = 8
	// DefaultDemandWindowTicks is the smoothing window over per-tick
	// demand deltas.
	DefaultDemandWindowTicks = 8
	// maxJournal bounds the decision journal; older runs truncate
	// deterministically and the meta line records the drop count.
	maxJournal = 1 << 16
)

// Resource selects which attribute a pool governs.
type Resource int

const (
	// CPUShare rebalances Attributes.Share in UnitsPerShare units. When
	// a member's saved attributes carried a hard reservation
	// (Limit > 0), the limit tracks the share so the reservation stays
	// hard at its new size.
	CPUShare Resource = iota
	// CPULimit rebalances Attributes.Limit in UnitsPerShare units —
	// the pool for live-runtime tenants governed by window budgets.
	CPULimit
	// MemQuota rebalances Attributes.MemLimit in bytes — the cache
	// quota pool, effective in every kernel mode because the
	// filesystem cache charges memory regardless of the scheduler.
	MemQuota
)

// String names the resource for journals and errors.
func (r Resource) String() string {
	switch r {
	case CPUShare:
		return "cpu-share"
	case CPULimit:
		return "cpu-limit"
	case MemQuota:
		return "mem-quota"
	}
	return fmt.Sprintf("resource(%d)", int(r))
}

// Freezer is the arbitration interface: anything with an Engaged
// predicate may freeze the controller. alert.Watchdog satisfies it.
type Freezer interface {
	Engaged() bool
}

// Member is one governed container of a pool plus its demand signal: a
// cumulative, monotonically non-decreasing counter read every tick (CPU
// time consumed, cache misses suffered, bytes queued — whatever
// backlog/pressure proxy the caller trusts). The controller reacts to
// window-smoothed deltas, never absolute values.
type Member struct {
	Container *rc.Container
	Demand    func() int64
}

// PoolConfig describes one pool to govern: a set of sibling containers
// whose combined allocation of one resource is fixed. The pool total is
// the sum of the members' allocations at AddPool time.
type PoolConfig struct {
	// Name labels the pool in the journal and in audits.
	Name string
	// Resource selects the governed attribute.
	Resource Resource
	// Members are the governed containers (at least two).
	Members []Member
}

// Config tunes the controller's damping and arbitration; zero values
// take the Default* constants. The mutation fields are harness seams:
// the chaos self-test plants bugs through them to prove the invariant
// battery catches a misbehaving controller (precedent:
// chaos.MutationPhantomCPU).
type Config struct {
	StepFrac          float64
	CooldownTicks     int
	OscWindowTicks    int
	OscMaxFlips       int
	DemandWindowTicks int

	// Freeze lists the actuators that preempt this controller; while
	// any reports Engaged, and for DefaultCalmTicks ticks after the last
	// one disengages, no step is taken.
	Freeze []Freezer

	// NoDeadband disables the DefaultDeadbandFrac deadband — the
	// no-damping ablation knob.
	NoDeadband bool
	// NoCooldown disables per-member cooldowns — the no-damping
	// ablation knob.
	NoCooldown bool

	// DisableDisarm keeps a tripped oscillation detector from
	// disarming — a planted bug for the chaos self-test; the
	// rebalance-oscillation invariant must catch it.
	DisableDisarm bool
	// LeakUnits mints this many units for the first member of every
	// pool each tick without withdrawing them anywhere — a planted
	// conservation bug; rebalance-conservation must catch it.
	LeakUnits int64
	// IgnoreFloors lets steps cross the starvation floor — a planted
	// bug; rebalance-starvation must catch it.
	IgnoreFloors bool
}

func (cfg Config) withDefaults() Config {
	if cfg.StepFrac <= 0 {
		cfg.StepFrac = DefaultStepFrac
	}
	if cfg.CooldownTicks <= 0 {
		cfg.CooldownTicks = DefaultCooldownTicks
	}
	if cfg.OscWindowTicks <= 0 {
		cfg.OscWindowTicks = DefaultOscWindowTicks
	}
	if cfg.OscMaxFlips <= 0 {
		cfg.OscMaxFlips = DefaultOscMaxFlips
	}
	if cfg.DemandWindowTicks <= 0 {
		cfg.DemandWindowTicks = DefaultDemandWindowTicks
	}
	return cfg
}

// member is the controller-side state of one governed container.
type member struct {
	c      *rc.Container
	demand func() int64

	saved      rc.Attributes // attributes at AddPool time, restored verbatim on disarm
	savedUnits int64
	cur        int64 // current allocation in units; mirrors the actual attribute
	floor      int64

	lastDemand int64   // last cumulative reading
	window     []int64 // ring of per-tick demand deltas
	winPos     int
	winSum     int64

	cooldown int
	lastSign int      // sign of the last applied non-zero step
	flipAt   []uint64 // tick numbers of recent direction flips
}

// pool is one governed allocation set.
type pool struct {
	name     string
	resource Resource
	members  []*member
	total    int64
	step     int64
}

// record is one journaled decision.
type record struct {
	at     sim.Time
	pool   string
	member string
	action string
	delta  int64
	alloc  int64
	detail string
}

// Controller is the closed-loop share controller. It is driven
// entirely by Tick — it has no goroutine of its own — and is
// single-threaded by construction: the simulation drives it on the
// sampling tick, the live runtime under the enforcer's lock.
type Controller struct {
	cfg   Config
	pools []*pool

	frozen bool
	calm   int

	disarmed bool

	ticks      uint64
	steps      uint64
	flips      uint64
	maxFlips   int
	freezes    uint64
	resumes    uint64
	disarms    uint64
	actErrors  uint64
	floorBusts uint64 // floor crossings applied (only with IgnoreFloors)
	truncated  uint64

	journal []record
}

// New returns a detached controller with no pools; wire its Tick to a
// clock (telemetry sampling tick via Attach, or the runtime monitor via
// rcruntime.AttachRebalancer) and add pools with AddPool once the
// governed containers exist.
func New(cfg Config) *Controller {
	return &Controller{cfg: cfg.withDefaults()}
}

// Attach builds a controller and subscribes it to the collector's
// sampling tick. Attach it *after* the alert monitor (alert.Attach) so
// a watchdog listed in cfg.Freeze has updated its state by the time the
// controller's tick runs — sample hooks run in registration order.
func Attach(tel *telemetry.Collector, cfg Config) (*Controller, error) {
	if tel == nil {
		return nil, fmt.Errorf("rebalance: nil telemetry collector")
	}
	r := New(cfg)
	tel.AddSampleHook(r.Tick)
	return r, nil
}

// AddPool starts governing a pool: the members' current allocations are
// snapshotted as the saved static attributes (restored verbatim on
// disarm) and their sum becomes the conserved pool total.
func (r *Controller) AddPool(pc PoolConfig) error {
	if pc.Name == "" {
		return fmt.Errorf("rebalance: pool needs a name")
	}
	if len(pc.Members) < 2 {
		return fmt.Errorf("rebalance: pool %q needs at least two members, got %d", pc.Name, len(pc.Members))
	}
	for _, p := range r.pools {
		if p.name == pc.Name {
			return fmt.Errorf("rebalance: duplicate pool %q", pc.Name)
		}
	}
	p := &pool{name: pc.Name, resource: pc.Resource}
	seen := make(map[*rc.Container]bool, len(pc.Members))
	for i, mc := range pc.Members {
		if mc.Container == nil {
			return fmt.Errorf("rebalance: pool %q member %d has no container", pc.Name, i)
		}
		if mc.Container.Destroyed() {
			return fmt.Errorf("rebalance: pool %q member %q is destroyed", pc.Name, mc.Container.Name())
		}
		if seen[mc.Container] {
			return fmt.Errorf("rebalance: pool %q lists %q twice", pc.Name, mc.Container.Name())
		}
		seen[mc.Container] = true
		if mc.Demand == nil {
			return fmt.Errorf("rebalance: pool %q member %q has no demand signal", pc.Name, mc.Container.Name())
		}
		attrs := mc.Container.Attributes()
		m := &member{
			c:          mc.Container,
			demand:     mc.Demand,
			saved:      attrs,
			savedUnits: unitsOf(pc.Resource, attrs),
			window:     make([]int64, r.cfg.DemandWindowTicks),
			lastDemand: mc.Demand(),
		}
		m.cur = m.savedUnits
		p.members = append(p.members, m)
		p.total += m.savedUnits
	}
	if p.total <= 0 {
		return fmt.Errorf("rebalance: pool %q has a zero total — nothing to govern", pc.Name)
	}
	floor := int64(DefaultFloorFrac * float64(p.total))
	if floor < 1 {
		floor = 1
	}
	for _, m := range p.members {
		m.floor = floor
		if m.savedUnits < m.floor {
			// The floor never exceeds the starting allocation: the
			// controller must not be obliged to *grow* a member just to
			// meet its own floor, and a disarm restore must always be
			// floor-legal.
			m.floor = m.savedUnits
		}
	}
	p.step = int64(r.cfg.StepFrac * float64(p.total))
	if p.step < 1 {
		p.step = 1
	}
	r.pools = append(r.pools, p)
	for _, m := range p.members {
		r.note(record{pool: p.name, member: m.c.Name(), action: "arm",
			alloc: m.cur, detail: fmt.Sprintf("%s total=%d floor=%d step=%d", p.resource, p.total, m.floor, p.step)})
	}
	return nil
}

// Tick runs one control round at virtual time `at`: refresh demand
// windows, arbitrate with the freezers, compute and apply bounded
// steps, and run the oscillation detector. It is the only entry point
// that mutates container attributes.
func (r *Controller) Tick(at sim.Time) {
	if r == nil || r.disarmed {
		return
	}
	r.ticks++

	// Demand windows advance every tick — frozen or not — so a resume
	// reacts to current pressure, not a stale pre-freeze snapshot.
	for _, p := range r.pools {
		for _, m := range p.members {
			cur := m.demand()
			d := cur - m.lastDemand
			m.lastDemand = cur
			if d < 0 {
				d = 0
			}
			m.winSum += d - m.window[m.winPos]
			m.window[m.winPos] = d
			m.winPos = (m.winPos + 1) % len(m.window)
			if m.cooldown > 0 {
				m.cooldown--
			}
		}
	}

	// Arbitration: the watchdog owns the hierarchy while engaged, and
	// for DefaultCalmTicks after — its emergency clamps must not be fought.
	if r.anyEngaged() {
		if !r.frozen {
			r.frozen = true
			r.freezes++
			r.note(record{at: at, action: "freeze", detail: "actuator engaged; rebalancing preempted"})
		}
		r.calm = DefaultCalmTicks
		return
	}
	if r.frozen {
		if r.calm > 0 {
			r.calm--
			return
		}
		r.frozen = false
		r.resumes++
		// Resync: the preempting actuator may have rewritten attributes
		// (clamp, restore) under the controller's feet. The resume tick
		// only resyncs; control restarts on the next tick.
		for _, p := range r.pools {
			for _, m := range p.members {
				if !m.c.Destroyed() {
					m.cur = unitsOf(p.resource, m.c.Attributes())
				}
			}
		}
		r.note(record{at: at, action: "resume", detail: "calm elapsed; allocations resynced"})
		return
	}

	tripped := false
	for _, p := range r.pools {
		if r.stepPool(at, p) {
			tripped = true
		}
	}
	if tripped && !r.cfg.DisableDisarm {
		r.disarm(at)
	}
}

// stepPool runs one pool's control round and reports whether the
// oscillation detector tripped.
func (r *Controller) stepPool(at sim.Time, p *pool) (tripped bool) {
	if r.cfg.LeakUnits != 0 {
		// Planted conservation bug (see Config.LeakUnits).
		m := p.members[0]
		if r.applyUnits(at, p, m, r.cfg.LeakUnits, "leak") {
			r.steps++
		}
	}

	var sumD int64
	for _, m := range p.members {
		sumD += m.winSum
	}
	if sumD <= 0 {
		return false
	}

	// Demand-proportional targets, floor-clamped. Targets are
	// directions, not promises: conservation is enforced at the
	// transfer step below, so they need not sum exactly to the total.
	want := make([]int64, len(p.members))
	deadband := int64(DefaultDeadbandFrac * float64(p.total))
	if r.cfg.NoDeadband {
		deadband = 0
	}
	worst := int64(0)
	for i, m := range p.members {
		target := int64(float64(p.total) * float64(m.winSum) / float64(sumD))
		if target < m.floor && !r.cfg.IgnoreFloors {
			target = m.floor
		}
		d := target - m.cur
		if d > worst {
			worst = d
		} else if -d > worst {
			worst = -d
		}
		if d > p.step {
			d = p.step
		} else if d < -p.step {
			d = -p.step
		}
		if m.cooldown > 0 && !r.cfg.NoCooldown {
			d = 0
		}
		if d < 0 && m.cur+d < m.floor && !r.cfg.IgnoreFloors {
			d = m.floor - m.cur
			if d > 0 {
				d = 0
			}
		}
		want[i] = d
	}
	if worst <= deadband {
		return false
	}

	// Transfer matching: shrinkers offer units, growers request them,
	// and only min(offered, requested) moves — the pool total is
	// conserved exactly by construction.
	var offered, requested int64
	for _, d := range want {
		if d < 0 {
			offered += -d
		} else {
			requested += d
		}
	}
	grant := offered
	if requested < grant {
		grant = requested
	}
	if grant <= 0 {
		return false
	}
	scaleSide(want, -1, offered, grant)
	scaleSide(want, +1, requested, grant)

	// Apply shrinkers first so the sibling share-sum never exceeds the
	// pool total mid-transfer.
	for pass := 0; pass < 2; pass++ {
		for i, m := range p.members {
			d := want[i]
			if d == 0 || (pass == 0) != (d < 0) {
				continue
			}
			if !r.applyUnits(at, p, m, d, "step") {
				continue
			}
			r.steps++
			if !r.cfg.NoCooldown {
				// +1 because the demand phase decrements before the
				// next round's gating: the member is left alone for
				// exactly CooldownTicks full ticks.
				m.cooldown = r.cfg.CooldownTicks + 1
			}
			if s := sign(d); s != 0 {
				if m.lastSign != 0 && s != m.lastSign {
					r.flips++
					m.flipAt = append(m.flipAt, r.ticks)
				}
				m.lastSign = s
			}
			// Slide the flip window and test the detector.
			keep := m.flipAt[:0]
			for _, t := range m.flipAt {
				if r.ticks-t < uint64(r.cfg.OscWindowTicks) {
					keep = append(keep, t)
				}
			}
			m.flipAt = keep
			if len(m.flipAt) > r.maxFlips {
				r.maxFlips = len(m.flipAt)
			}
			if len(m.flipAt) >= r.cfg.OscMaxFlips {
				tripped = true
			}
		}
	}
	return tripped
}

// scaleSide rescales the positive or negative side of want (selected by
// side) from its current sum down to grant, using integer
// largest-remainder apportionment in member order so the result is
// deterministic and sums exactly to grant.
func scaleSide(want []int64, side int, sum, grant int64) {
	if sum == grant || sum == 0 {
		return
	}
	assigned := int64(0)
	lastIdx := -1
	for i, d := range want {
		if d == 0 || sign(d) != side {
			continue
		}
		mag := d
		if mag < 0 {
			mag = -mag
		}
		scaled := mag * grant / sum
		want[i] = scaled * int64(side)
		assigned += scaled
		lastIdx = i
	}
	// Hand the integer-division remainder to the last participant: a
	// deterministic choice that keeps both sides summing to grant.
	if rem := grant - assigned; rem > 0 && lastIdx >= 0 {
		want[lastIdx] += rem * int64(side)
	}
}

// applyUnits actuates a single member's allocation change through
// SetAttributes, keeping cur in lockstep with the actual attribute. It
// reports whether the attribute write took.
func (r *Controller) applyUnits(at sim.Time, p *pool, m *member, delta int64, action string) bool {
	if m.c.Destroyed() {
		return false
	}
	next := m.cur + delta
	if next < 0 {
		next = 0
	}
	attrs := m.c.Attributes()
	setUnits(p.resource, &attrs, next)
	if err := m.c.SetAttributes(attrs); err != nil {
		r.actErrors++
		r.note(record{at: at, pool: p.name, member: m.c.Name(), action: "error",
			delta: delta, alloc: m.cur, detail: err.Error()})
		return false
	}
	if next < m.floor {
		r.floorBusts++
	}
	m.cur = next
	r.note(record{at: at, pool: p.name, member: m.c.Name(), action: action,
		delta: delta, alloc: m.cur, detail: ""})
	return true
}

// disarm trips the controller permanently: every member of every pool
// is restored to its saved static attributes *verbatim*, and the
// controller degrades to "do nothing".
func (r *Controller) disarm(at sim.Time) {
	r.disarmed = true
	r.disarms++
	r.note(record{at: at, action: "disarm",
		detail: fmt.Sprintf("oscillation detected: %d flip(s) within %d tick(s); restoring static shares", r.cfg.OscMaxFlips, r.cfg.OscWindowTicks)})
	for _, p := range r.pools {
		// Shrink-first restore: members above their saved allocation go
		// back down before members below come back up, so the sibling
		// share-sum check holds at every intermediate state. The side is
		// computed up front: applying pass 0 moves m.cur to savedUnits,
		// which must not re-qualify the member for pass 1.
		shrink := make([]bool, len(p.members))
		for i, m := range p.members {
			shrink[i] = m.cur > m.savedUnits
		}
		for pass := 0; pass < 2; pass++ {
			for i, m := range p.members {
				if (pass == 0) != shrink[i] {
					continue
				}
				if m.c.Destroyed() {
					continue
				}
				if err := m.c.SetAttributes(m.saved); err != nil {
					r.actErrors++
					r.note(record{at: at, pool: p.name, member: m.c.Name(), action: "error",
						alloc: m.cur, detail: "restore: " + err.Error()})
					continue
				}
				m.cur = m.savedUnits
				r.note(record{at: at, pool: p.name, member: m.c.Name(), action: "restore",
					alloc: m.cur, detail: ""})
			}
		}
	}
}

func (r *Controller) anyEngaged() bool {
	for _, f := range r.cfg.Freeze {
		if f != nil && f.Engaged() {
			return true
		}
	}
	return false
}

func (r *Controller) note(rec record) {
	if len(r.journal) >= maxJournal {
		r.truncated++
		return
	}
	r.journal = append(r.journal, rec)
}

func sign(d int64) int {
	switch {
	case d > 0:
		return 1
	case d < 0:
		return -1
	}
	return 0
}

// unitsOf reads the governed attribute as integer units.
func unitsOf(res Resource, a rc.Attributes) int64 {
	switch res {
	case CPUShare:
		return int64(a.Share*UnitsPerShare + 0.5)
	case CPULimit:
		return int64(a.Limit*UnitsPerShare + 0.5)
	default:
		return a.MemLimit
	}
}

// setUnits writes the governed attribute from integer units.
func setUnits(res Resource, a *rc.Attributes, u int64) {
	switch res {
	case CPUShare:
		a.Share = float64(u) / UnitsPerShare
		if a.Limit > 0 {
			// A hard reservation stays hard at its new size.
			a.Limit = a.Share
		}
	case CPULimit:
		a.Limit = float64(u) / UnitsPerShare
	default:
		a.MemLimit = u
	}
}

// Disarmed reports whether the oscillation detector has tripped and the
// controller has restored the saved static attributes.
func (r *Controller) Disarmed() bool { return r != nil && r.disarmed }

// Frozen reports whether an arbitrating actuator currently preempts the
// controller (including the post-engagement calm hold-off).
func (r *Controller) Frozen() bool { return r != nil && r.frozen }

// Ticks returns how many control rounds have run.
func (r *Controller) Ticks() uint64 { return r.ticks }

// Steps returns how many member adjustments have been applied.
func (r *Controller) Steps() uint64 { return r.steps }

// Flips returns how many applied-step direction reversals were observed.
func (r *Controller) Flips() uint64 { return r.flips }

// Freezes returns how many times the controller was preempted.
func (r *Controller) Freezes() uint64 { return r.freezes }

// Resumes returns how many times the controller resumed after a freeze.
func (r *Controller) Resumes() uint64 { return r.resumes }

// Disarms returns how many times the controller disarmed (0 or 1).
func (r *Controller) Disarms() uint64 { return r.disarms }

// ActuationErrors returns how many SetAttributes calls failed.
func (r *Controller) ActuationErrors() uint64 { return r.actErrors }

// Allocations returns the named pool's current allocations in units, in
// member order, or nil if the pool does not exist.
func (r *Controller) Allocations(pool string) []int64 {
	for _, p := range r.pools {
		if p.name == pool {
			out := make([]int64, len(p.members))
			for i, m := range p.members {
				out[i] = m.cur
			}
			return out
		}
	}
	return nil
}

// AuditConservation audits the actual container attributes against the
// conserved pool totals: for every pool, the members' governed
// attributes must sum exactly to the pool total. It returns "" when the
// books balance, or a description of the first imbalance. While the
// controller is frozen the audit abstains — the preempting actuator
// (the watchdog's clamp) legitimately holds the hierarchy elsewhere.
func (r *Controller) AuditConservation() string {
	// anyEngaged covers the post-disarm case too: a disarmed controller
	// no longer ticks, so frozen goes stale, but a watchdog clamp still
	// legitimately moves attributes out from under the saved shape.
	if r == nil || r.frozen || r.anyEngaged() {
		return ""
	}
	for _, p := range r.pools {
		var sum int64
		for _, m := range p.members {
			if m.c.Destroyed() {
				return ""
			}
			sum += unitsOf(p.resource, m.c.Attributes())
		}
		if sum != p.total {
			return fmt.Sprintf("pool %q allocations sum to %d unit(s), want exactly %d", p.name, sum, p.total)
		}
	}
	return ""
}

// AuditFloors audits the actual container attributes against the
// starvation floors: no member may sit below its floor. Returns "" when
// clean; abstains while frozen (see AuditConservation).
func (r *Controller) AuditFloors() string {
	if r == nil || r.frozen || r.anyEngaged() {
		return ""
	}
	for _, p := range r.pools {
		for _, m := range p.members {
			if m.c.Destroyed() {
				continue
			}
			if got := unitsOf(p.resource, m.c.Attributes()); got < m.floor {
				return fmt.Sprintf("pool %q member %q at %d unit(s), below its starvation floor %d", p.name, m.c.Name(), got, m.floor)
			}
		}
	}
	return ""
}

// AuditOscillation audits the disarm protocol: a controller whose flip
// count reached the threshold must have disarmed. Returns "" when
// consistent.
func (r *Controller) AuditOscillation() string {
	if r == nil || r.disarmed {
		return ""
	}
	if r.maxFlips >= r.cfg.OscMaxFlips {
		return fmt.Sprintf("controller still armed with %d direction flip(s) in the window (threshold %d)", r.maxFlips, r.cfg.OscMaxFlips)
	}
	return ""
}

// AuditRestore audits a disarmed controller's restore: every member's
// actual attributes must equal the saved static attributes verbatim.
// Returns "" when exact, or while the controller is still armed.
func (r *Controller) AuditRestore() string {
	if r == nil || !r.disarmed || r.anyEngaged() {
		return ""
	}
	for _, p := range r.pools {
		for _, m := range p.members {
			if m.c.Destroyed() {
				continue
			}
			if got := m.c.Attributes(); got != m.saved {
				return fmt.Sprintf("pool %q member %q restored to %+v, want saved %+v", p.name, m.c.Name(), got, m.saved)
			}
		}
	}
	return ""
}

// WriteJSONL writes the decision journal as one JSON object per line: a
// meta header (pools, counters) followed by every decision in emission
// order. Encoding is hand-rolled so field order and number formatting
// are byte-stable, matching the telemetry and alert exporters; the
// chaos harness folds the stream into its determinism hash.
func (r *Controller) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	names := make([]string, len(r.pools))
	for i, p := range r.pools {
		names[i] = strconv.Quote(p.name)
	}
	fmt.Fprintf(&b, `{"type":"meta","pools":[%s],"ticks":%d,"steps":%d,"flips":%d,"freezes":%d,"resumes":%d,"disarms":%d,"errors":%d,"truncated":%d}`+"\n",
		strings.Join(names, ","), r.ticks, r.steps, r.flips, r.freezes, r.resumes, r.disarms, r.actErrors, r.truncated)
	for _, rec := range r.journal {
		fmt.Fprintf(&b, `{"type":"rebalance","at_ns":%d,"pool":%s,"member":%s,"action":%s,"delta":%d,"alloc":%d,"detail":%s}`+"\n",
			int64(rec.at), strconv.Quote(rec.pool), strconv.Quote(rec.member), strconv.Quote(rec.action), rec.delta, rec.alloc, strconv.Quote(rec.detail))
	}
	_, err := io.WriteString(w, b.String())
	return err
}
