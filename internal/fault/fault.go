// Package fault is the deterministic fault-injection and resilience
// layer for the simulated server. The paper's core claim is that resource
// containers keep a server well-behaved under hostile and degraded
// conditions (overload in §5.2, SYN floods in §5.7); this package makes
// those conditions reproducible inputs rather than happy-path omissions:
//
//   - Injector decides the fate of every client-injected packet (drop,
//     duplicate, reorder, delay) and of every disk read (media error,
//     latency spike), from RNG streams forked off the engine seed — one
//     stream per fault class, so enabling disk faults never perturbs the
//     packet-fault schedule.
//   - Checker (check.go) is a runtime invariant checker that
//     experiments enable to fail fast on accounting drift. Every
//     invariant is a named check whose name is its failure class;
//     virtual-clock monotonicity is the only built-in, and
//     kernel.WatchInvariants registers the kernel's (CPU-charge
//     conservation across the container hierarchy, queue-length
//     bounds, and more).
//   - Crasher (crash.go) schedules deterministic crash-and-restart
//     cycles for server processes.
//   - LiveInjector (live.go) applies the same deterministic schedules
//     to a real net/http server.
//
// The package depends only on internal/sim and internal/netsim. The
// kernel imports it (Kernel.Faults and Disk.Faults hold an *Injector,
// and WatchInvariants registers with a *Checker), so it must not
// import the kernel or anything above it.
package fault

import (
	"fmt"

	"rescon/internal/netsim"
	"rescon/internal/sim"
)

// Config sets the per-class fault probabilities. Zero values mean the
// class is disabled and its RNG stream is never consulted.
type Config struct {
	// DropRate is the probability that a client-injected packet is lost
	// on the wire.
	DropRate float64
	// DupRate is the probability that a packet is delivered twice (the
	// duplicate arrives DupDelay later).
	DupRate float64
	// DupDelay separates a duplicate from its original. Default 100 µs.
	DupDelay sim.Duration
	// ReorderRate is the probability that a packet is held back by
	// ReorderDelay, letting later-sent packets overtake it.
	ReorderRate float64
	// ReorderDelay is how long a reordered packet is held. Default 200 µs
	// (several wire delays, enough to invert ordering).
	ReorderDelay sim.Duration
	// DelayRate is the probability that a packet suffers an extra queueing
	// delay, uniform in (0, DelayMax].
	DelayRate float64
	// DelayMax bounds injected packet delay. Default 1 ms.
	DelayMax sim.Duration

	// DiskErrorRate is the probability that a disk read fails with a
	// media error after the head has moved (the seek time is still paid).
	DiskErrorRate float64
	// DiskSlowRate is the probability that a disk read suffers a latency
	// spike, uniform in (0, DiskSlowMax] — a remapped sector or a
	// thermal-recalibration stall.
	DiskSlowRate float64
	// DiskSlowMax bounds the injected disk latency spike. Default 50 ms.
	DiskSlowMax sim.Duration
}

func (c Config) withDefaults() Config {
	if c.DupDelay <= 0 {
		c.DupDelay = 100 * sim.Microsecond
	}
	if c.ReorderDelay <= 0 {
		c.ReorderDelay = 200 * sim.Microsecond
	}
	if c.DelayMax <= 0 {
		c.DelayMax = sim.Millisecond
	}
	if c.DiskSlowMax <= 0 {
		c.DiskSlowMax = 50 * sim.Millisecond
	}
	return c
}

// Stats counts injected faults. All counts are deterministic functions of
// the engine seed and the traffic, so two runs with the same seed must
// produce identical Stats — the property the resilience experiments
// regression-test.
type Stats struct {
	WireDrops    uint64
	WireDups     uint64
	WireReorders uint64
	WireDelays   uint64
	DiskErrors   uint64
	DiskSlows    uint64
}

// Injector implements the fault schedule; the kernel consults it for
// every client-injected packet and every disk read.
type Injector struct {
	cfg Config

	dropRNG    *sim.RNG
	dupRNG     *sim.RNG
	reorderRNG *sim.RNG
	delayRNG   *sim.RNG
	diskRNG    *sim.RNG

	stats Stats
}

// RNG fork labels, one per fault class. Fixed constants keep the streams
// stable across runs and across code changes that add new classes.
const (
	labelDrop    = 0xFA17D401
	labelDup     = 0xFA17D402
	labelReorder = 0xFA17D403
	labelDelay   = 0xFA17D404
	labelDisk    = 0xFA17D405
)

// NewInjector builds an injector whose schedule is a deterministic
// function of the engine's seed and cfg.
func NewInjector(eng *sim.Engine, cfg Config) *Injector {
	r := eng.Rand()
	return &Injector{
		cfg:        cfg.withDefaults(),
		dropRNG:    r.Fork(labelDrop),
		dupRNG:     r.Fork(labelDup),
		reorderRNG: r.Fork(labelReorder),
		delayRNG:   r.Fork(labelDelay),
		diskRNG:    r.Fork(labelDisk),
	}
}

// Stats returns the fault counts so far.
func (f *Injector) Stats() Stats { return f.stats }

// Config returns the injector's fault configuration.
func (f *Injector) Config() Config { return f.cfg }

// WireFate decides the fate of one client-injected packet: the returned
// slice holds one extra delay (beyond the normal wire delay) per delivery.
// nil means the packet is lost; {0} is a clean delivery; {0, d} delivers a
// duplicate d later; {d} alone is a delayed (possibly reordered) delivery.
//
// Each fault class draws from its own RNG stream, and only when its rate
// is non-zero, so the schedule of one class is independent of the others.
func (f *Injector) WireFate(pkt *netsim.Packet) []sim.Duration {
	if f.cfg.DropRate > 0 && f.dropRNG.Float64() < f.cfg.DropRate {
		f.stats.WireDrops++
		return nil
	}
	extra := sim.Duration(0)
	if f.cfg.ReorderRate > 0 && f.reorderRNG.Float64() < f.cfg.ReorderRate {
		f.stats.WireReorders++
		extra += f.cfg.ReorderDelay
	}
	if f.cfg.DelayRate > 0 && f.delayRNG.Float64() < f.cfg.DelayRate {
		f.stats.WireDelays++
		extra += f.delayRNG.Uniform(1, f.cfg.DelayMax)
	}
	if f.cfg.DupRate > 0 && f.dupRNG.Float64() < f.cfg.DupRate {
		f.stats.WireDups++
		return []sim.Duration{extra, extra + f.cfg.DupDelay}
	}
	return []sim.Duration{extra}
}

// DiskFate decides the fate of one disk read: fail reports a media error
// (the request's data never arrives), extra is an injected latency spike
// added to the mechanical service time.
func (f *Injector) DiskFate(bytes int) (fail bool, extra sim.Duration) {
	if f.cfg.DiskErrorRate > 0 && f.diskRNG.Float64() < f.cfg.DiskErrorRate {
		f.stats.DiskErrors++
		return true, 0
	}
	if f.cfg.DiskSlowRate > 0 && f.diskRNG.Float64() < f.cfg.DiskSlowRate {
		f.stats.DiskSlows++
		return false, f.diskRNG.Uniform(1, f.cfg.DiskSlowMax)
	}
	return false, 0
}

// String summarizes the fault counts.
func (s Stats) String() string {
	return fmt.Sprintf("drops=%d dups=%d reorders=%d delays=%d diskErr=%d diskSlow=%d",
		s.WireDrops, s.WireDups, s.WireReorders, s.WireDelays, s.DiskErrors, s.DiskSlows)
}
