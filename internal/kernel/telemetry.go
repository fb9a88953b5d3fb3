package kernel

import (
	"rescon/internal/rc"
	"rescon/internal/telemetry"
)

// AttachTelemetry connects a telemetry collector to the kernel: the
// collector's trace ring becomes the kernel tracer, CPU-slice and
// interrupt accounting start feeding the virtual-CPU profile, and a
// virtual-time ticker samples the usage timeline every
// collector.Interval(). Attach before generating load; the sampling
// ticker keeps the event queue non-empty, so drive an attached kernel
// with RunUntil/RunFor rather than the open-ended Run.
func (k *Kernel) AttachTelemetry(t *telemetry.Collector) {
	if t == nil || k.tel != nil {
		return
	}
	k.tel = t
	k.telIdle = t.Intern("(idle)")
	k.telUnmatched = t.Intern("(unmatched)")
	k.telMachine = t.Intern("(machine)")
	k.Tracer = t.Tracer()
	t.SetRun(k.eng.Seed(), k.mode.String())
	k.eng.Every(t.Interval(), k.sampleTelemetry)
}

// Telemetry returns the attached collector, or nil when detached.
func (k *Kernel) Telemetry() *telemetry.Collector { return k.tel }

// WatchContainer adds a container to the telemetry usage timeline: every
// sampling tick records its cumulative CPU, drop count and dispatch
// count. Sampling order is registration order, so output is
// deterministic.
func (k *Kernel) WatchContainer(c *rc.Container) {
	if c == nil {
		return
	}
	k.watched = append(k.watched, c)
}

// sampleTelemetry records one timeline row per principal: the machine,
// each process (protocol backlog), each listening socket (accept-queue
// depth) and each watched container (usage counters). All iteration
// orders are creation orders — never map order.
func (k *Kernel) sampleTelemetry() {
	now := k.Now()
	diskQ := 0
	if k.disk != nil {
		diskQ = len(k.disk.queue)
	}
	k.tel.Record(telemetry.Sample{
		At: now, Principal: "(machine)",
		CPU:        k.BusyTime() + k.interruptTime,
		Backlog:    k.sch.RunnableCount(), // scheduler run-queue depth
		DiskQ:      diskQ,
		Drops:      k.policedDrops,
		Dispatches: k.tel.TotalDispatches(),
	})
	for _, p := range k.procs {
		s := telemetry.Sample{At: now, Principal: p.name, CPU: p.cpuTime}
		if p.netQ != nil {
			s.Backlog = p.netQ.Len()
		}
		k.tel.Record(s)
	}
	for _, ls := range k.net.socks {
		if ls.closed {
			continue
		}
		k.tel.Record(telemetry.Sample{
			At: now, Principal: ls.name,
			ListenQ:   ls.acceptQ.Len(),
			BacklogHi: ls.acceptQ.HighWater(),
			Drops:     ls.synDrops,
		})
	}
	for _, c := range k.watched {
		if c.Destroyed() {
			continue
		}
		u := c.Usage()
		k.tel.Record(telemetry.Sample{
			At: now, Principal: c.Name(),
			CPU:        u.CPU(),
			Drops:      u.PacketsDropped,
			Dispatches: k.tel.RowDispatches(k.containerRow(c)),
		})
	}
	k.tel.FireSampleHooks(now)
}

// containerRow resolves c's profile row through the slot cached on the
// container. Requires an attached collector.
func (k *Kernel) containerRow(c *rc.Container) telemetry.Row {
	return k.tel.Resolve(&c.Profile, c.Name())
}

// threadRow resolves the profile row a slice of th running item is
// attributed to — the principal telPrincipal names — through the slot
// cached on the item's container or, for unbound work, on the thread.
// Requires an attached collector.
func (k *Kernel) threadRow(th *Thread, item *WorkItem) telemetry.Row {
	if item.Container != nil {
		return k.containerRow(item.Container)
	}
	return k.tel.Resolve(&th.profile, th.ent.Name)
}

// WatchedContainers returns the containers registered with
// WatchContainer, in registration order.
func (k *Kernel) WatchedContainers() []*rc.Container {
	return k.watched
}
