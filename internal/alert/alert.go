// Package alert is the ops-grade alerting layer over the telemetry
// stream: a pluggable registry of sockstat-style checks that consume
// kernel state on the telemetry sampling tick and turn raw leading
// indicators (SYN-drop counter deltas, accept-queue saturation,
// protocol-backlog growth, run-queue stalls, disk-queue depth,
// per-container starvation) into a deterministic Warning/Critical event
// stream — the operator-visible view of the paper's Fig. 14 story, where
// receive livelock is otherwise discovered only after goodput has
// already collapsed.
//
// Every check value passes through a per-(check, target) state machine
// with hysteresis in both domains: time (a level is raised only after
// Raise consecutive ticks at or above its threshold, cleared only after
// Clear consecutive calm ticks) and value (once raised, a tick counts as
// calm only below ClearFrac× the threshold — a Schmitt trigger, so a
// signal hovering at the threshold holds its level instead of toggling).
// Clears additionally pass through a publication hold-down: the clear
// becomes visible only after the key survives FlapWindowTicks more, and
// a re-raise during the hold cancels it silently (damping) while
// doubling the key's calm requirement, so an oscillating signal
// converges to "stays raised" instead of event churn. A raise that still
// lands within FlapWindowTicks of a published clear escalates that
// doubling further; only a quick re-raise arriving with the penalty
// already at its cap — churn that survived every escalation — is counted
// as a flap, and the chaos harness asserts that count stays zero. The
// event stream is
// exported as byte-stable JSONL alongside the telemetry exporters and is
// asserted byte-identical across serial and parallel runs.
//
// The closed loop on top of the detectors is Watchdog (watchdog.go): on
// critical overload it tightens admission control through an Actuator
// (the simulated kernel's SYN policing, or the live runtime's accept
// policy) and clamps a runaway container, then restores the original
// settings with exponential backoff once the alert clears.
package alert

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"rescon/internal/sim"
)

// Level is an alert severity. Levels order: Ok < Warning < Critical.
type Level int

const (
	// LevelOk means the check's condition is not (or no longer) met.
	LevelOk Level = iota
	// LevelWarning is the first actionable severity.
	LevelWarning
	// LevelCritical is the overload severity the watchdog reacts to.
	LevelCritical
)

// String names the level as it appears in the JSONL stream.
func (l Level) String() string {
	switch l {
	case LevelOk:
		return "ok"
	case LevelWarning:
		return "warning"
	case LevelCritical:
		return "critical"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Hysteresis and flap-suppression defaults, in sampling ticks.
const (
	// DefaultRaiseTicks is how many consecutive ticks a value must sit at
	// or above a threshold before the level is raised.
	DefaultRaiseTicks = 2
	// DefaultClearTicks is how many consecutive calm ticks (value below
	// the warning threshold) clear a raised alert.
	DefaultClearTicks = 8
	// FlapWindowTicks is both the clear hold-down length and the flap
	// window: a published clear is delayed by this many calm ticks, and a
	// re-raise within this many ticks of a published clear doubles the
	// key's clear hysteresis — or, once the doubling is exhausted at
	// flapPenaltyCap, counts as one flap.
	FlapWindowTicks = 8
	// DefaultClearFrac is the value-domain hysteresis (Schmitt trigger):
	// once raised, a tick only counts as calm when the value drops below
	// ClearFrac × the threshold it crossed. A signal hovering at the
	// raise threshold therefore stays raised instead of flapping.
	DefaultClearFrac = 0.75
	// flapPenaltyCap bounds the clear-hysteresis multiplier a flapping
	// key can accumulate.
	flapPenaltyCap = 8
)

// Observation is one (target, value) pair produced by a check at one
// tick. Targets are principal names (never numeric container IDs, which
// are not stable across parallel runs); checks must return observations
// in a deterministic order.
type Observation struct {
	Target string
	Value  float64
	// Format and Args are the check's diagnostic, kept unformatted: the
	// Monitor renders fmt.Sprintf(Format, Args...) only when the
	// observation completes a published transition, so a tick on which
	// no level changes formats nothing. Zero Args are skipped.
	Format string
	Args   [3]Arg
}

// Arg is one operand of an observation's diagnostic, held without boxing
// so that building an Observation allocates nothing.
type Arg struct {
	kind argKind
	i    int64
	f    float64
}

type argKind uint8

const (
	argNone argKind = iota
	argInt
	argFloat
	argDuration
)

// Int is an integer operand.
func Int(v int64) Arg { return Arg{kind: argInt, i: v} }

// Float is a floating-point operand.
func Float(v float64) Arg { return Arg{kind: argFloat, f: v} }

// Dur is a time.Duration operand, rendered as the duration's %v text.
func Dur(d time.Duration) Arg { return Arg{kind: argDuration, i: int64(d)} }

// detail renders the observation's diagnostic.
func (ob *Observation) detail() string {
	if ob.Format == "" {
		return ""
	}
	args := make([]any, 0, len(ob.Args))
	for _, a := range ob.Args {
		switch a.kind {
		case argInt:
			args = append(args, a.i)
		case argFloat:
			args = append(args, a.f)
		case argDuration:
			args = append(args, time.Duration(a.i))
		}
	}
	return fmt.Sprintf(ob.Format, args...)
}

// Check is one registered detector: a name, thresholds, hysteresis
// overrides and an Observe function called once per sampling tick.
// Counter-delta checks keep their previous counter readings in the
// Observe closure and return the per-tick delta as the value.
type Check struct {
	// Name identifies the check; registration rejects duplicates.
	Name string
	// Warn raises LevelWarning when the value sits at or above it for
	// Raise consecutive ticks. Must be positive.
	Warn float64
	// Crit raises LevelCritical the same way; zero disables the critical
	// level for this check.
	Crit float64
	// Raise and Clear override the hysteresis defaults when positive.
	Raise int
	Clear int
	// ClearFrac overrides DefaultClearFrac when positive: the fraction
	// of a crossed threshold the value must drop below to count as calm.
	ClearFrac float64
	// Observe returns this tick's observations. A target absent from the
	// returned slice is fed value zero (calm), so alerts on vanished
	// targets (e.g. a closed listen socket) clear normally. The Monitor
	// copies the observations out and never keeps the slice, so a check
	// may return the same backing array every tick.
	Observe func() []Observation
}

func (c Check) raiseTicks() int {
	if c.Raise > 0 {
		return c.Raise
	}
	return DefaultRaiseTicks
}

func (c Check) clearTicks() int {
	if c.Clear > 0 {
		return c.Clear
	}
	return DefaultClearTicks
}

func (c Check) clearFrac() float64 {
	if c.ClearFrac > 0 {
		return c.ClearFrac
	}
	return DefaultClearFrac
}

// Event is one alert-state transition (or a watchdog action note).
type Event struct {
	At     sim.Time
	Check  string
	Target string
	// Level and Prev are the new and previous severities.
	Level Level
	Prev  Level
	// Value is the observation that completed the transition; Threshold
	// is the boundary it crossed (the warning threshold for clears).
	Value     float64
	Threshold float64
	// Flap marks a raise that arrived within FlapWindowTicks of the
	// key's previous published clear with the suppression penalty already
	// exhausted — churn the escalating hold-down failed to absorb.
	Flap bool
	// Detail is the check's diagnostic for the observation.
	Detail string
}

type key struct{ check, target string }

// keyState is the per-(check, target) hysteresis state machine. It
// tracks two levels: the internal level the streaks drive directly, and
// the published level the event stream shows. Clears are published only
// after surviving a FlapWindowTicks hold-down; a re-raise during the
// hold cancels the clear silently (damping), so a brief dip never
// appears in the public stream at all.
type keyState struct {
	level     Level // internal, streak-driven
	published Level // operator-visible, event stream

	critStreak int // consecutive ticks value >= Crit
	warnStreak int // consecutive ticks value >= Warn
	coolStreak int // consecutive ticks value below the critical dead band
	calmStreak int // consecutive ticks value below the warning dead band

	lastSeenTick uint64

	// clear hold-down (publication damping)
	pendingClear bool
	pendingSince uint64

	// flap bookkeeping
	hasCleared    bool
	clearedAtTick uint64
	penalty       int // clear-hysteresis multiplier (flap suppression)
	damped        int

	// self-check bookkeeping (missed-detection consistency)
	maxWarnStreak int
	maxCritStreak int
	warnedEver    bool
	critEver      bool
}

// Monitor owns the check registry, the per-key state machines and the
// event stream. It is driven by Tick — normally subscribed to the
// telemetry collector's sampling hook — and, like the rest of the
// simulation, lives on a single goroutine.
type Monitor struct {
	checks []Check
	byName map[string]int // name -> index in checks

	states map[key]*keyState
	order  []key // insertion order, for deterministic iteration

	events  []Event
	onEvent []func(Event)
	onTick  []func(at sim.Time)

	ticks  uint64
	flaps  uint64
	damped uint64

	// run identity for the JSONL header.
	seed       int64
	mode       string
	intervalNs int64
}

// New returns an empty monitor; register checks with Register and drive
// it with Tick (or let Attach wire both).
func New() *Monitor {
	return &Monitor{
		byName: make(map[string]int),
		states: make(map[key]*keyState),
	}
}

// SetRun stamps the monitor with the run's identity (engine seed, kernel
// mode, sampling interval) for the JSONL header.
func (m *Monitor) SetRun(seed int64, mode string, interval sim.Duration) {
	m.seed, m.mode, m.intervalNs = seed, mode, int64(interval)
}

// Register adds a check to the registry. It rejects nil Observe
// functions, non-positive warning thresholds, critical thresholds below
// the warning threshold, and — sockstat-style — duplicate names: the
// earlier registration always wins and the duplicate is reported, never
// silently overwritten.
func (m *Monitor) Register(c Check) error {
	if c.Name == "" {
		return fmt.Errorf("alert: check with empty name")
	}
	if c.Observe == nil {
		return fmt.Errorf("alert: check %q has no Observe function", c.Name)
	}
	if c.Warn <= 0 {
		return fmt.Errorf("alert: check %q warning threshold %v must be positive", c.Name, c.Warn)
	}
	if c.Crit != 0 && c.Crit < c.Warn {
		return fmt.Errorf("alert: check %q critical threshold %v below warning %v", c.Name, c.Crit, c.Warn)
	}
	if _, dup := m.byName[c.Name]; dup {
		return fmt.Errorf("alert: duplicate check name %q", c.Name)
	}
	m.byName[c.Name] = len(m.checks)
	m.checks = append(m.checks, c)
	return nil
}

// MustRegister is Register that panics on an invalid check; convenient
// for the built-in battery, whose names are unique by construction.
func (m *Monitor) MustRegister(c Check) {
	if err := m.Register(c); err != nil {
		panic(err)
	}
}

// OnEvent subscribes fn to every state-transition event, called
// synchronously as the transition is recorded (watchdog responders
// subscribe here). Notes injected with Note do not fire it.
func (m *Monitor) OnEvent(fn func(Event)) {
	m.onEvent = append(m.onEvent, fn)
}

// OnTick subscribes fn to run at the end of every Tick, after all
// checks have been evaluated (the watchdog's restore countdown lives
// here).
func (m *Monitor) OnTick(fn func(at sim.Time)) {
	m.onTick = append(m.onTick, fn)
}

// Ticks returns how many sampling ticks the monitor has consumed.
func (m *Monitor) Ticks() uint64 { return m.ticks }

// Flaps returns how many raise-after-recent-clear transitions arrived
// with the suppression penalty already at its cap — oscillation that
// escaped both damping and every escalation of the hold-down.
func (m *Monitor) Flaps() uint64 { return m.flaps }

// Damped returns how many raise/clear oscillations the hold-down
// absorbed silently — dips that never reached the published stream.
func (m *Monitor) Damped() uint64 { return m.damped }

// Events returns the recorded event stream in emission order.
func (m *Monitor) Events() []Event { return m.events }

// Current returns the present published level of (check, target) — the
// operator-visible level, which lags the internal one through the clear
// hold-down. LevelOk if the key has never been observed.
func (m *Monitor) Current(check, target string) Level {
	if st, ok := m.states[key{check, target}]; ok {
		return st.published
	}
	return LevelOk
}

// Worst returns the highest level any key has ever reached.
func (m *Monitor) Worst() Level {
	worst := LevelOk
	for _, k := range m.order {
		st := m.states[k]
		if st.critEver {
			return LevelCritical
		}
		if st.warnedEver {
			worst = LevelWarning
		}
	}
	return worst
}

// FirstAtSince returns the time of the first event at or above level
// that fired at or after since, and whether one exists. Watchdog notes
// (Check "watchdog") are skipped: they are reactions, not detections.
func (m *Monitor) FirstAtSince(level Level, since sim.Time) (sim.Time, bool) {
	for _, e := range m.events {
		if e.Check == WatchdogCheckName {
			continue
		}
		if e.Level >= level && e.At >= since {
			return e.At, true
		}
	}
	return 0, false
}

// Tick consumes one sampling tick: every registered check observes its
// targets, each observation advances its key's state machine, and keys a
// check stopped reporting are fed calm zeros so they can clear. Tick
// hooks run last.
func (m *Monitor) Tick(at sim.Time) {
	m.ticks++
	for ci := range m.checks {
		c := &m.checks[ci]
		for _, ob := range c.Observe() {
			m.feed(at, c, ob)
		}
		// Targets that vanished from the check's output decay as calm.
		for _, k := range m.order {
			if k.check != c.Name {
				continue
			}
			if st := m.states[k]; st.lastSeenTick != m.ticks {
				m.feed(at, c, Observation{Target: k.target})
			}
		}
	}
	for _, fn := range m.onTick {
		fn(at)
	}
}

// feed advances one key's state machine with this tick's value and
// emits an event if a level transition completes.
func (m *Monitor) feed(at sim.Time, c *Check, ob Observation) {
	k := key{c.Name, ob.Target}
	st, ok := m.states[k]
	if !ok {
		st = &keyState{penalty: 1}
		m.states[k] = st
		m.order = append(m.order, k)
	}
	st.lastSeenTick = m.ticks

	v := ob.Value
	critOn := c.Crit > 0
	frac := c.clearFrac()
	// Value-domain hysteresis: raising needs v at or above a threshold,
	// calming needs v below ClearFrac× that threshold. In between the
	// value is in the dead band — no streak advances, the level holds.
	if critOn && v >= c.Crit {
		st.critStreak++
		st.coolStreak = 0
	} else {
		st.critStreak = 0
		if !critOn || v < c.Crit*frac {
			st.coolStreak++
		} else {
			st.coolStreak = 0
		}
	}
	if v >= c.Warn {
		st.warnStreak++
		st.calmStreak = 0
	} else {
		st.warnStreak = 0
		if v < c.Warn*frac {
			st.calmStreak++
		} else {
			st.calmStreak = 0
		}
	}
	if st.warnStreak > st.maxWarnStreak {
		st.maxWarnStreak = st.warnStreak
	}
	if st.critStreak > st.maxCritStreak {
		st.maxCritStreak = st.critStreak
	}

	raise := c.raiseTicks()
	clear := c.clearTicks() * st.penalty

	want := st.level
	threshold := c.Warn
	switch {
	case critOn && st.critStreak >= raise:
		want, threshold = LevelCritical, c.Crit
	case st.level == LevelOk && st.warnStreak >= raise:
		want, threshold = LevelWarning, c.Warn
	case st.level == LevelCritical && st.coolStreak >= clear && v >= c.Warn*frac:
		// Still warm but persistently below critical: demote.
		want, threshold = LevelWarning, c.Warn
	case st.level > LevelOk && st.calmStreak >= clear:
		want, threshold = LevelOk, c.Warn
	}
	if want != st.level {
		st.level = want
		m.resolve(at, c, st, ob, want, threshold)
	}

	// Clear hold-down survival: the internal clear becomes public only
	// after the key stays calm through a full flap window.
	if st.pendingClear && st.level == LevelOk && m.ticks-st.pendingSince >= FlapWindowTicks {
		st.pendingClear = false
		st.hasCleared = true
		st.clearedAtTick = m.ticks
		m.publish(at, c.Name, st, ob, LevelOk, c.Warn, false)
	}
}

// resolve maps an internal level transition onto the published stream:
// clears enter the hold-down instead of publishing, re-raises during a
// hold-down cancel it silently (damping), and everything else publishes
// immediately with flap accounting.
func (m *Monitor) resolve(at sim.Time, c *Check, st *keyState, ob Observation, want Level, threshold float64) {
	if want == LevelOk {
		if st.published > LevelOk && !st.pendingClear {
			st.pendingClear = true
			st.pendingSince = m.ticks
		}
		return
	}
	if st.pendingClear {
		// The dip never became public. Cancel the pending clear, count
		// the damped cycle, and lengthen this key's calm requirement so
		// an oscillating signal converges to "stays raised".
		st.pendingClear = false
		if want >= st.published {
			st.damped++
			m.damped++
			if st.penalty < flapPenaltyCap {
				st.penalty *= 2
			}
		}
	}
	if want == st.published {
		return
	}
	flap := false
	if st.published == LevelOk {
		if st.hasCleared && m.ticks-st.clearedAtTick <= FlapWindowTicks {
			// A raise right after a published clear. While the penalty
			// still has headroom this is suppression at work: escalate
			// the calm requirement so the next clear is more
			// conservative, and publish a normal raise. Only a quick
			// re-raise that arrives with the penalty already at its cap
			// — churn that survived every escalation — counts as a flap.
			if st.penalty < flapPenaltyCap {
				st.penalty *= 2
			} else {
				flap = true
				m.flaps++
			}
		} else {
			st.penalty = 1
		}
	}
	m.publish(at, c.Name, st, ob, want, threshold, flap)
}

// publish appends a transition of the key's public level to the event
// stream and fires the event hooks.
func (m *Monitor) publish(at sim.Time, check string, st *keyState, ob Observation, level Level, threshold float64, flap bool) {
	ev := Event{
		At: at, Check: check, Target: ob.Target,
		Level: level, Prev: st.published,
		Value: ob.Value, Threshold: threshold, Flap: flap, Detail: ob.detail(),
	}
	st.published = level
	if level >= LevelWarning {
		st.warnedEver = true
	}
	if level == LevelCritical {
		st.critEver = true
	}
	m.events = append(m.events, ev)
	for _, fn := range m.onEvent {
		fn(ev)
	}
}

// WatchdogCheckName is the pseudo-check name watchdog action notes are
// filed under in the event stream.
const WatchdogCheckName = "watchdog"

// Note appends an out-of-band event to the stream — watchdog actions
// use it so the JSONL shows the full detection→reaction→restore loop.
// Notes bypass the state machines (no hysteresis, no flap accounting)
// and do not fire OnEvent subscribers.
func (m *Monitor) Note(at sim.Time, check, target string, level Level, detail string) {
	m.events = append(m.events, Event{
		At: at, Check: check, Target: target,
		Level: level, Prev: level, Detail: detail,
	})
}

// SelfCheck audits the monitor's own bookkeeping against the emitted
// stream: any key that sustained a threshold long enough to raise must
// have emitted the corresponding event. It returns "" when consistent,
// or a description of the first missed detection — the chaos harness
// wires this as the "missed-detection" invariant.
func (m *Monitor) SelfCheck() string {
	for _, k := range m.order {
		st := m.states[k]
		c := m.checks[m.byName[k.check]]
		raise := c.raiseTicks()
		if c.Crit > 0 && st.maxCritStreak >= raise && !st.critEver {
			return fmt.Sprintf("check %q target %q sustained critical for %d tick(s) (raise=%d) but no critical event fired",
				k.check, k.target, st.maxCritStreak, raise)
		}
		if st.maxWarnStreak >= raise && !st.warnedEver {
			return fmt.Sprintf("check %q target %q sustained warning for %d tick(s) (raise=%d) but no warning event fired",
				k.check, k.target, st.maxWarnStreak, raise)
		}
	}
	return ""
}

// jstr renders a JSON string with deterministic escaping.
func jstr(s string) string { return strconv.Quote(s) }

// jnum renders a float deterministically: integral values print without
// an exponent or trailing zeros, others use strconv's shortest form.
func jnum(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteJSONL writes the alert stream as one JSON object per line: a
// meta header (run identity, check registry, totals) followed by every
// event in emission order. Encoding is hand-rolled so field order and
// number formatting are byte-stable, matching the telemetry exporters.
func (m *Monitor) WriteJSONL(w io.Writer) error {
	if m == nil {
		return nil
	}
	var b strings.Builder
	names := make([]string, len(m.checks))
	for i, c := range m.checks {
		names[i] = jstr(c.Name)
	}
	fmt.Fprintf(&b, `{"type":"meta","seed":%d,"mode":%s,"interval_ns":%d,"checks":[%s],"ticks":%d,"events_total":%d,"flaps":%d,"damped":%d}`+"\n",
		m.seed, jstr(m.mode), m.intervalNs, strings.Join(names, ","), m.ticks, len(m.events), m.flaps, m.damped)
	for _, e := range m.events {
		fmt.Fprintf(&b, `{"type":"alert","at_ns":%d,"check":%s,"target":%s,"level":%s,"prev":%s,"value":%s,"threshold":%s,"flap":%t,"detail":%s}`+"\n",
			int64(e.At), jstr(e.Check), jstr(e.Target), jstr(e.Level.String()), jstr(e.Prev.String()),
			jnum(e.Value), jnum(e.Threshold), e.Flap, jstr(e.Detail))
	}
	_, err := io.WriteString(w, b.String())
	return err
}
