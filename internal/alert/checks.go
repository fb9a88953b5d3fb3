// The built-in check battery: sockstat-style detectors over the
// kernel's leading overload indicators. Each check is a closure holding
// its previous counter readings (for delta checks) and iterating kernel
// state in creation order, never map order, so the event stream is
// deterministic for a given seed.

package alert

import (
	"fmt"

	"rescon/internal/kernel"
	"rescon/internal/sim"
)

// Built-in check names.
const (
	CheckSynDrops      = "syn-drops"
	CheckAcceptQueue   = "accept-queue"
	CheckEmbryonic     = "embryonic"
	CheckInterruptLoad = "interrupt-load"
	CheckBacklog       = "backlog-pressure"
	CheckBacklogGrowth = "backlog-growth"
	CheckRunQueue      = "runqueue"
	CheckDiskQueue     = "disk-queue"
	CheckStarvation    = "starvation"
)

// Default thresholds for the battery. Delta checks are per sampling
// tick (telemetry.SampleInterval = 1ms of virtual time); level checks on
// queues are occupancy fractions of the queue's bound.
const (
	// SYN drops: any drop in a tick is warning-worthy (it is refused
	// work); a sustained burst is the livelock signature.
	DefaultSynDropsWarn = 1
	DefaultSynDropsCrit = 8
	// Accept queue occupancy: a full queue means the server thread is
	// not being scheduled often enough to drain accepts.
	DefaultAcceptQueueWarn = 0.8
	DefaultAcceptQueueCrit = 1.0
	// Embryonic (half-open) connections per listener: the SYN-flood
	// signature on kernels that never refuse a SYN.
	DefaultEmbryonicWarn = 64
	DefaultEmbryonicCrit = 256
	// Interrupt load: fraction of the sampling tick spent in interrupt
	// context. Sustained near-1.0 is receive livelock — the unmodified
	// kernel's failure mode, invisible to every queue-level check
	// because the queues upstream of the stall stay empty.
	DefaultInterruptWarn = 0.75
	DefaultInterruptCrit = 0.95
	// Protocol backlog occupancy. Policed kernels hold this near
	// SYNFrac (1/16 by default), so a policed server stays quiet here
	// and an unpoliced one under flood pins it at 1.0.
	DefaultBacklogWarn = 0.5
	DefaultBacklogCrit = 0.9
	// Backlog growth: net packets the backlog grew by over the last
	// GrowthWindowTicks. Growth is measured over a window, not per tick:
	// the per-tick derivative of a queue fed by bursty workloads
	// oscillates across any threshold, while windowed growth cancels
	// fill/drain noise and only a sustained fill — a queue actually
	// heading for its bound — accumulates.
	GrowthWindowTicks        = 8
	DefaultBacklogGrowthWarn = 32
	DefaultBacklogGrowthCrit = 256
	// Scheduler run-queue depth (runnable threads).
	DefaultRunQueueWarn = 8
	DefaultRunQueueCrit = 32
	// Disk queue occupancy of DiskQueueLimit.
	DefaultDiskQueueWarn = 0.5
	DefaultDiskQueueCrit = 0.9
	// Starvation raise window: the watched container must look starved
	// for this many consecutive ticks (8ms) before warning.
	StarvationRaiseTicks = 8
)

// Attach builds a Monitor with the built-in check battery over k and
// subscribes it to the telemetry sampling tick. The kernel must already
// have a telemetry collector attached — the alert layer is a consumer
// of that stream, not a second sampler.
func Attach(k *kernel.Kernel) (*Monitor, error) {
	tel := k.Telemetry()
	if tel == nil {
		return nil, fmt.Errorf("alert: kernel has no telemetry collector attached")
	}
	m := New()
	m.SetRun(k.Engine().Seed(), k.Mode().String(), tel.Interval())

	// syn-drops: per-listener delta of the SYN/accept drop counter. The
	// counter is monotonic; the first observation baselines it, like
	// sockstat's first gather.
	prevSyn := make(map[string]uint64)
	m.MustRegister(Check{
		Name: CheckSynDrops, Warn: DefaultSynDropsWarn, Crit: DefaultSynDropsCrit,
		Observe: reuse(func(obs []Observation) []Observation {
			for _, ls := range k.ListenSockets() {
				if ls.Closed() {
					continue
				}
				target := ls.Name()
				cur := ls.SynDrops()
				// A restarted server re-creates the socket under the same
				// address with fresh counters; treat a backwards counter as
				// a reset, not an enormous delta.
				delta := cur - prevSyn[target]
				if cur < prevSyn[target] {
					delta = cur
				}
				prevSyn[target] = cur
				obs = append(obs, Observation{
					Target: target, Value: float64(delta),
					Format: "drops_total=%d", Args: [3]Arg{Int(int64(cur))},
				})
			}
			return obs
		}),
	})

	// accept-queue: occupancy of each listener's accept queue.
	m.MustRegister(Check{
		Name: CheckAcceptQueue, Warn: DefaultAcceptQueueWarn, Crit: DefaultAcceptQueueCrit,
		Observe: reuse(func(obs []Observation) []Observation {
			for _, ls := range k.ListenSockets() {
				if ls.Closed() || ls.AcceptCap() <= 0 {
					continue
				}
				pend := ls.Pending()
				obs = append(obs, Observation{
					Target: ls.Name(),
					Value:  float64(pend) / float64(ls.AcceptCap()),
					Format: "pending=%d cap=%d", Args: [3]Arg{Int(int64(pend)), Int(int64(ls.AcceptCap()))},
				})
			}
			return obs
		}),
	})

	// embryonic: half-open connections held per listener. Policed
	// kernels shed SYNs before they become embryonic, so a high count
	// means un-admission-controlled flood traffic.
	m.MustRegister(Check{
		Name: CheckEmbryonic, Warn: DefaultEmbryonicWarn, Crit: DefaultEmbryonicCrit,
		Observe: reuse(func(obs []Observation) []Observation {
			for _, ls := range k.ListenSockets() {
				if ls.Closed() {
					continue
				}
				n := ls.EmbryonicCount()
				obs = append(obs, Observation{
					Target: ls.Name(), Value: float64(n),
					Format: "half_open=%d", Args: [3]Arg{Int(int64(n))},
				})
			}
			return obs
		}),
	})

	// interrupt-load: per-tick delta of interrupt-context CPU as a
	// fraction of the tick. This is the only check that sees receive
	// livelock on the unmodified kernel, where packets are consumed at
	// interrupt level and every downstream queue stays calm.
	var prevIntr sim.Duration
	m.MustRegister(Check{
		Name: CheckInterruptLoad, Warn: DefaultInterruptWarn, Crit: DefaultInterruptCrit,
		Observe: reuse(func(obs []Observation) []Observation {
			cur := k.InterruptTime()
			delta := cur - prevIntr
			prevIntr = cur
			return append(obs, Observation{
				Target: "(machine)",
				Value:  float64(delta) / float64(tel.Interval()),
				Format: "interrupt_total_ns=%d", Args: [3]Arg{Int(int64(cur))},
			})
		}),
	})

	// backlog-pressure: occupancy of each process's protocol backlog
	// (LRP/RC modes; unmodified kernels have no per-process queue and
	// show up on runqueue/syn-drops instead).
	m.MustRegister(Check{
		Name: CheckBacklog, Warn: DefaultBacklogWarn, Crit: DefaultBacklogCrit,
		Observe: reuse(func(obs []Observation) []Observation {
			for _, p := range k.Processes() {
				bound := p.NetBacklogBound()
				if bound <= 0 {
					continue
				}
				n := p.NetBacklog()
				obs = append(obs, Observation{
					Target: p.Name(), Value: float64(n) / float64(bound),
					Format: "backlog=%d bound=%d", Args: [3]Arg{Int(int64(n)), Int(int64(bound))},
				})
			}
			return obs
		}),
	})

	// backlog-growth: net packets the backlog grew by over the last
	// GrowthWindowTicks. Catches a queue filling fast even before
	// occupancy is high, without alerting on fill/drain oscillation.
	histBacklog := make(map[string][]int)
	m.MustRegister(Check{
		Name: CheckBacklogGrowth, Warn: DefaultBacklogGrowthWarn, Crit: DefaultBacklogGrowthCrit,
		Observe: reuse(func(obs []Observation) []Observation {
			for _, p := range k.Processes() {
				if p.NetBacklogBound() <= 0 {
					continue
				}
				n := p.NetBacklog()
				hist := histBacklog[p.Name()]
				growth := 0
				if len(hist) > 0 {
					growth = n - hist[0]
				}
				hist = append(hist, n)
				if len(hist) > GrowthWindowTicks {
					hist = hist[1:]
				}
				histBacklog[p.Name()] = hist
				if growth < 0 {
					growth = 0
				}
				obs = append(obs, Observation{
					Target: p.Name(), Value: float64(growth),
					Format: "backlog=%d", Args: [3]Arg{Int(int64(n))},
				})
			}
			return obs
		}),
	})

	// runqueue: scheduler run-queue depth — the "everything runnable,
	// nothing finishing" stall signal.
	m.MustRegister(Check{
		Name: CheckRunQueue, Warn: DefaultRunQueueWarn, Crit: DefaultRunQueueCrit,
		Observe: reuse(func(obs []Observation) []Observation {
			return append(obs, Observation{
				Target: "(machine)", Value: float64(k.RunQueueDepth()),
			})
		}),
	})

	// disk-queue: occupancy of the disk request queue.
	m.MustRegister(Check{
		Name: CheckDiskQueue, Warn: DefaultDiskQueueWarn, Crit: DefaultDiskQueueCrit,
		Observe: reuse(func(obs []Observation) []Observation {
			n := k.Disk().QueueLen()
			return append(obs, Observation{
				Target: "(disk)",
				Value:  float64(n) / float64(kernel.DiskQueueLimit),
				Format: "queued=%d limit=%d", Args: [3]Arg{Int(int64(n)), Int(kernel.DiskQueueLimit)},
			})
		}),
	})

	// starvation (resource-container modes only): a watched container
	// with a nonzero guaranteed share that receives packets but gets
	// zero CPU across a busy tick is being starved despite its
	// reservation — exactly the guarantee §4 of the paper exists to
	// protect.
	if k.Mode() == kernel.ModeRC {
		interval := tel.Interval()
		type starvePrev struct {
			cpu  sim.Duration
			pkts uint64
		}
		prev := make(map[string]starvePrev)
		var prevBusy sim.Duration
		m.MustRegister(Check{
			Name: CheckStarvation, Warn: 1, Crit: 0, Raise: StarvationRaiseTicks,
			Observe: reuse(func(obs []Observation) []Observation {
				busy := k.BusyTime()
				busyDelta := busy - prevBusy
				prevBusy = busy
				for _, c := range k.WatchedContainers() {
					if c.Destroyed() || c.Attributes().Share <= 0 {
						continue
					}
					u := c.Usage()
					pr := prev[c.Name()]
					cpuDelta := u.CPU() - pr.cpu
					pktDelta := u.PacketsIn - pr.pkts
					prev[c.Name()] = starvePrev{cpu: u.CPU(), pkts: u.PacketsIn}
					v := 0.0
					if cpuDelta == 0 && pktDelta > 0 && busyDelta >= interval/2 {
						v = 1
					}
					obs = append(obs, Observation{
						Target: c.Name(), Value: v,
						Format: "share=%g cpu_delta_ns=%d pkts_delta=%d",
						Args:   [3]Arg{Float(c.Attributes().Share), Int(int64(cpuDelta)), Int(int64(pktDelta))},
					})
				}
				return obs
			}),
		})
	}

	tel.AddSampleHook(m.Tick)
	return m, nil
}

// reuse adapts fill into an Observe function that appends every tick's
// observations to one buffer, truncated rather than reallocated. The
// Monitor copies each Observation out of the returned slice and never
// keeps the slice, so handing it the same backing array every tick is
// safe.
func reuse(fill func(obs []Observation) []Observation) func() []Observation {
	var buf []Observation
	return func() []Observation {
		buf = fill(buf[:0])
		return buf
	}
}
