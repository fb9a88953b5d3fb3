// Watchdog: the closed loop on top of the detectors, one state machine
// for both worlds. On a critical overload alert it tightens admission
// control through an Actuator — the simulated kernel's SYN policing
// (the same knob the paper's Fig. 16 defense uses) or the live
// runtime's AcceptPolicy — and, when one clampable container dominates
// recent CPU, caps that container's allocation via SetAttributes. Once
// every trigger alert has cleared it restores the saved settings after
// an exponential-backoff delay, so a borderline system does not
// oscillate between policed and unpoliced. Every action is journaled
// into the alert stream under WatchdogCheckName, so the JSONL shows the
// full detection→reaction→restore loop.

package alert

import (
	"fmt"

	"rescon/internal/kernel"
	"rescon/internal/rc"
	"rescon/internal/sim"
)

// Watchdog reaction defaults, in sampling ticks where noted.
const (
	// DefaultTightSYNFrac is the emergency SYN admission fraction —
	// four times tighter than the kernel's DefaultSYNPoliceFrac (1/16).
	DefaultTightSYNFrac = 1.0 / 64
	// DefaultClampLimit is the CPU-fraction cap applied to a runaway
	// clampable container while the watchdog is engaged.
	DefaultClampLimit = 0.5
	// DefaultBackoffTicks is the initial delay between the last trigger
	// alert clearing and the watchdog restoring saved settings.
	DefaultBackoffTicks = 16
	// DefaultMaxBackoffTicks caps the exponential restore backoff.
	DefaultMaxBackoffTicks = 256
	// ClampWindowTicks is the CPU-accounting window used to decide
	// which clampable container is the runaway.
	ClampWindowTicks = 8
)

// WatchdogConfig tunes the closed loop; zero values take the defaults
// above.
type WatchdogConfig struct {
	// Triggers are the check names whose critical alerts engage the
	// watchdog. The default is the attaching world's overload battery:
	// AttachWatchdog uses syn-drops, backlog-pressure, runqueue,
	// interrupt-load and embryonic (the last two are the only checks
	// that see receive livelock on the unmodified kernel, where every
	// queue-level signal stays calm); the live runtime's watchdog uses
	// its rt-* checks.
	Triggers []string
	// ClampLimit is the Attributes.Limit applied to a runaway container.
	ClampLimit float64
	// BackoffTicks / MaxBackoffTicks control the restore delay and its
	// exponential growth when the watchdog re-engages soon after a
	// restore.
	BackoffTicks    int
	MaxBackoffTicks int
	// Clampable lists the containers the watchdog may cap. Only
	// explicitly listed containers are ever touched — clamping the
	// server's own container would convert an overload into an outage.
	Clampable []*rc.Container
}

func (cfg WatchdogConfig) withDefaults() WatchdogConfig {
	if cfg.ClampLimit <= 0 {
		cfg.ClampLimit = DefaultClampLimit
	}
	if cfg.BackoffTicks <= 0 {
		cfg.BackoffTicks = DefaultBackoffTicks
	}
	if cfg.MaxBackoffTicks <= 0 {
		cfg.MaxBackoffTicks = DefaultMaxBackoffTicks
	}
	return cfg
}

// Actuator is the seam between the watchdog state machine and one
// world's admission control. The state machine decides when to engage,
// which container to clamp and when to restore; the actuator only turns
// the admission knob and guards container state.
type Actuator interface {
	// Sync runs fn with exclusive access to container state: directly
	// in the single-threaded simulator, under the enforcer's lock on
	// the live runtime. The watchdog reads and writes containers only
	// inside Sync, and never calls Tighten or Restore from within it.
	Sync(fn func())
	// Tighten applies the emergency admission settings, saving the
	// current ones, and returns the journal detail that follows
	// "engaged on <check>/<target>: ". clamped is the runaway this
	// engagement capped, or nil.
	Tighten(clamped *rc.Container) string
	// Restore reinstates the settings Tighten saved and returns the
	// journal detail of the restore.
	Restore() string
	// Wording says how the watchdog words its notes for this world.
	Wording() Wording
}

// Wording is one world's phrasing of the watchdog's journal notes.
type Wording struct {
	// Target is the Event target of the watchdog's own notes.
	Target string
	// Runaway names the clamped principal in "clamped runaway <Runaway>".
	Runaway string
	// ClampFirst journals the clamp before the tighten note, for an
	// actuator whose tight settings are derived from the clamp.
	ClampFirst bool
}

// Watchdog holds the closed-loop state: which trigger keys are
// critical, the clamped container and its saved attributes, and the
// restore countdown. It is driven entirely by the monitor's event and
// tick hooks — it has no goroutine of its own.
type Watchdog struct {
	m       *Monitor
	act     Actuator
	wording Wording
	cfg     WatchdogConfig

	critical map[key]bool // trigger keys currently at LevelCritical

	engaged    bool
	clamped    *rc.Container
	savedAttrs rc.Attributes

	countdown      int // ticks until restore; -1 when no restore pending
	backoff        int
	hasRestored    bool
	restoredAtTick uint64

	engagements uint64
	restores    uint64

	// per-clampable CPU history ring for runaway detection.
	prevCPU []sim.Duration
	deltas  [][]sim.Duration
	histPos int
	// sample advances the ring; bound once so the per-tick Sync call
	// does not allocate a closure.
	sample func()
}

// AttachWatchdog wires a watchdog acting on the simulated kernel's SYN
// policing to a monitor's event stream and tick hook. Call after
// Attach, before running load.
func AttachWatchdog(m *Monitor, k *kernel.Kernel, cfg WatchdogConfig) *Watchdog {
	if len(cfg.Triggers) == 0 {
		cfg.Triggers = []string{CheckSynDrops, CheckBacklog, CheckRunQueue, CheckInterruptLoad, CheckEmbryonic}
	}
	return AttachWatchdogWith(m, &policeActuator{k: k}, cfg)
}

// AttachWatchdogWith wires a watchdog acting through act to a monitor's
// event stream and tick hook. cfg.Triggers must name the checks that
// engage it.
func AttachWatchdogWith(m *Monitor, act Actuator, cfg WatchdogConfig) *Watchdog {
	w := &Watchdog{
		m: m, act: act, wording: act.Wording(), cfg: cfg.withDefaults(),
		critical:  make(map[key]bool),
		countdown: -1,
	}
	w.backoff = w.cfg.BackoffTicks
	w.prevCPU = make([]sim.Duration, len(w.cfg.Clampable))
	w.deltas = make([][]sim.Duration, len(w.cfg.Clampable))
	for i := range w.deltas {
		w.deltas[i] = make([]sim.Duration, ClampWindowTicks)
	}
	act.Sync(func() {
		for i, c := range w.cfg.Clampable {
			w.prevCPU[i] = c.Usage().CPU()
		}
	})
	w.sample = w.sampleCPU
	m.OnEvent(w.onEvent)
	m.OnTick(w.onTick)
	return w
}

// Engaged reports whether the watchdog's emergency settings are
// currently applied.
func (w *Watchdog) Engaged() bool { return w.engaged }

// Engagements returns how many times the watchdog has engaged.
func (w *Watchdog) Engagements() uint64 { return w.engagements }

// Restores returns how many times saved settings have been restored.
func (w *Watchdog) Restores() uint64 { return w.restores }

// Clamped returns the container currently clamped, or nil.
func (w *Watchdog) Clamped() *rc.Container { return w.clamped }

func (w *Watchdog) isTrigger(check string) bool {
	for _, t := range w.cfg.Triggers {
		if t == check {
			return true
		}
	}
	return false
}

func (w *Watchdog) onEvent(ev Event) {
	if !w.isTrigger(ev.Check) {
		return
	}
	k := key{ev.Check, ev.Target}
	if ev.Level == LevelCritical {
		w.critical[k] = true
		w.engage(ev)
		return
	}
	if !w.critical[k] {
		return
	}
	delete(w.critical, k)
	if w.engaged && len(w.critical) == 0 && w.countdown < 0 {
		// All trigger alerts have cleared critical; schedule the
		// restore after the current backoff.
		w.countdown = w.backoff
		w.m.Note(ev.At, WatchdogCheckName, w.wording.Target, LevelOk,
			fmt.Sprintf("overload cleared; restore in %d tick(s)", w.countdown))
	}
}

func (w *Watchdog) engage(ev Event) {
	if w.engaged {
		// Overload returned while waiting to restore: cancel the
		// countdown, keep the emergency settings.
		w.countdown = -1
		return
	}
	w.engaged = true
	w.engagements++
	if w.hasRestored && w.m.Ticks()-w.restoredAtTick <= FlapWindowTicks {
		// Re-engaged right after restoring — the restore was premature.
		// Back off harder next time.
		w.backoff *= 2
		if w.backoff > w.cfg.MaxBackoffTicks {
			w.backoff = w.cfg.MaxBackoffTicks
		}
	} else {
		w.backoff = w.cfg.BackoffTicks
	}
	w.countdown = -1

	// Clamp before tightening, so the actuator can derive its tight
	// settings from the clamped runaway; the wording decides which of
	// the two notes the journal shows first.
	w.clamp()
	if w.wording.ClampFirst {
		w.noteClamp(ev.At)
	}
	w.m.Note(ev.At, WatchdogCheckName, w.wording.Target, LevelCritical,
		fmt.Sprintf("engaged on %s/%s: %s", ev.Check, ev.Target, w.act.Tighten(w.clamped)))
	if !w.wording.ClampFirst {
		w.noteClamp(ev.At)
	}
}

// clamp caps the runaway clampable at ClampLimit, unless its Limit is
// already at least as tight, and remembers its attributes for restore.
func (w *Watchdog) clamp() {
	w.act.Sync(func() {
		c := w.runaway()
		if c == nil {
			return
		}
		attrs := c.Attributes()
		if attrs.Limit != 0 && attrs.Limit <= w.cfg.ClampLimit {
			return
		}
		tight := attrs
		tight.Limit = w.cfg.ClampLimit
		if c.SetAttributes(tight) == nil {
			w.clamped, w.savedAttrs = c, attrs
		}
	})
}

func (w *Watchdog) noteClamp(at sim.Time) {
	if w.clamped == nil {
		return
	}
	w.m.Note(at, WatchdogCheckName, w.clamped.Name(), LevelCritical,
		fmt.Sprintf("clamped runaway %s limit=%g (was %g)", w.wording.Runaway, w.cfg.ClampLimit, w.savedAttrs.Limit))
}

// runaway returns the clampable container that dominated CPU over the
// last ClampWindowTicks: it must have consumed more than half the CPU
// charged to all clampables in the window. Ties and quiet windows
// return nil — the watchdog never guesses.
func (w *Watchdog) runaway() *rc.Container {
	var total, best sim.Duration
	bestIdx := -1
	for i, ring := range w.deltas {
		var sum sim.Duration
		for _, d := range ring {
			sum += d
		}
		total += sum
		if sum > best {
			best, bestIdx = sum, i
		}
	}
	if total <= 0 || best*2 <= total {
		return nil
	}
	c := w.cfg.Clampable[bestIdx]
	if c.Destroyed() {
		return nil
	}
	return c
}

func (w *Watchdog) onTick(at sim.Time) {
	if len(w.cfg.Clampable) > 0 {
		w.act.Sync(w.sample)
		w.histPos = (w.histPos + 1) % ClampWindowTicks
	}

	if !w.engaged || w.countdown < 0 {
		return
	}
	w.countdown--
	if w.countdown > 0 {
		return
	}
	w.restore(at)
}

// sampleCPU advances the CPU window ring by one tick.
func (w *Watchdog) sampleCPU() {
	for i, c := range w.cfg.Clampable {
		cur := c.Usage().CPU()
		w.deltas[i][w.histPos] = cur - w.prevCPU[i]
		w.prevCPU[i] = cur
	}
}

func (w *Watchdog) restore(at sim.Time) {
	detail := w.act.Restore()
	if c, attrs := w.clamped, w.savedAttrs; c != nil {
		w.act.Sync(func() {
			if !c.Destroyed() {
				_ = c.SetAttributes(attrs)
			}
		})
		detail += fmt.Sprintf("; unclamped %s limit=%g", c.Name(), attrs.Limit)
		w.clamped = nil
	}
	w.engaged = false
	w.countdown = -1
	w.hasRestored = true
	w.restoredAtTick = w.m.Ticks()
	w.restores++
	w.m.Note(at, WatchdogCheckName, w.wording.Target, LevelOk, detail)
}

// policeActuator tightens the simulated kernel's SYN policing. The
// simulator is single-threaded, so Sync needs no lock.
type policeActuator struct {
	k     *kernel.Kernel
	saved kernel.Policing
}

func (a *policeActuator) Sync(fn func()) { fn() }

func (a *policeActuator) Wording() Wording {
	return Wording{Target: "(watchdog)", Runaway: "container"}
}

func (a *policeActuator) Tighten(*rc.Container) string {
	a.saved = a.k.Police
	a.k.Police.Enabled = true
	a.k.Police.SYNFrac = DefaultTightSYNFrac
	return fmt.Sprintf("policing tightened syn_frac=%g (was enabled=%t syn_frac=%g)",
		DefaultTightSYNFrac, a.saved.Enabled, a.saved.SYNFrac)
}

func (a *policeActuator) Restore() string {
	a.k.Police = a.saved
	return fmt.Sprintf("restored policing enabled=%t syn_frac=%g", a.saved.Enabled, a.saved.SYNFrac)
}
