package kernel

import (
	"rescon/internal/netsim"
	"rescon/internal/rc"
	"rescon/internal/sched"
	"rescon/internal/sim"
	"rescon/internal/trace"
)

// intrHandler names the kernel routine an interrupt runs on completion,
// so per-packet interrupt work needs no closure.
type intrHandler uint8

const (
	intrNone     intrHandler = iota // CPU time only
	intrDemux                       // earlyDemux(pkt)
	intrProto                       // protoProcess(pkt, ls)
	intrThrottle                    // throttleSYN(pkt)
)

// intrWork is one unit of interrupt-level processing. Interrupts have
// strictly higher priority than any thread (§3.2): they preempt the
// running slice and run FIFO to completion. The interrupt queue holds
// the records, packets included, by value, so raising one allocates
// nothing.
type intrWork struct {
	label string
	cost  sim.Duration
	// container, when non-nil, receives the rc accounting for the work
	// (RC-mode demultiplexing charges the destination container).
	container *rc.Container
	// chargePreempted charges the work to whatever principal was running
	// when the interrupt fired — the unmodified kernel's misaccounting.
	chargePreempted bool
	// deferTel suppresses the default telemetry attribution (interrupt
	// cost charged to the preempted principal — the baseline's "victim
	// pays" story): LRP/RC demux work attributes itself to the packet's
	// destination once early demultiplexing has identified it.
	deferTel bool
	// handler and its operands name the packet work to run on
	// completion.
	handler intrHandler
	pkt     netsim.Packet
	ls      *ListenSocket
}

// run performs the interrupt's completion work.
func (w *intrWork) run(k *Kernel) {
	switch w.handler {
	case intrDemux:
		k.earlyDemux(&w.pkt)
	case intrProto:
		k.protoProcess(&w.pkt, w.ls)
	case intrThrottle:
		k.throttleSYN(&w.pkt)
	}
}

// running describes the thread slice currently on the CPU.
type running struct {
	th      *Thread
	item    *WorkItem
	started sim.Time
	ev      sim.Event
	// slice is the CPU time the slice was granted.
	slice sim.Duration
}

// CPU models one processor: one thread slice at a time, preempted (on
// the primary processor) by FIFO interrupt work.
type CPU struct {
	k     *Kernel
	id    int
	intrQ *netsim.Queue[intrWork]
	// inIntr is true while interrupt work occupies the CPU; intr is the
	// work in progress then.
	inIntr bool
	intr   intrWork
	// preempted is the entity that was running when interrupt level was
	// entered; baseline interrupt work is (mis)charged to it.
	preempted *sched.Entity
	// cur points at slot while a thread slice runs, and is nil otherwise.
	// A CPU runs one slice at a time, so one slot serves them all.
	cur     *running
	slot    running
	retryEv sim.Event
	busy    sim.Duration
	// intrDone and sliceDone are the completion callbacks of interrupt
	// work and thread slices, bound once so that scheduling either
	// allocates nothing.
	intrDone  func()
	sliceDone func()
}

func newCPU(k *Kernel, id int) *CPU {
	c := &CPU{k: k, id: id, intrQ: netsim.NewQueue[intrWork](0)}
	c.intrDone = c.completeIntr
	c.sliceDone = c.completeSlice
	return c
}

// BusyTime returns thread-level CPU time consumed (interrupt time is
// accounted separately on the kernel).
func (c *CPU) BusyTime() sim.Duration { return c.busy }

// RaiseInterrupt queues interrupt-level work and preempts any running
// thread slice.
func (c *CPU) RaiseInterrupt(w intrWork) {
	c.intrQ.Push(w)
	if c.inIntr {
		return // will be drained by the active interrupt loop
	}
	if c.cur != nil {
		th := c.cur.th
		c.preemptCurrent()
		c.preempted = th.ent
	} else {
		c.preempted = nil
	}
	c.inIntr = true
	c.runNextIntr()
}

// PreemptIfIdleClass stops a running idle-class slice (a priority-0
// time-share container, §5.7) so that newly runnable normal-priority work
// takes the CPU immediately: background work runs strictly when the CPU
// would otherwise be idle.
func (c *CPU) PreemptIfIdleClass() {
	if c.inIntr || c.cur == nil {
		return
	}
	cont := c.cur.item.Container
	if cont == nil || cont.Class() != rc.TimeShare || cont.EffectivePriority() > 0 {
		return
	}
	c.preemptCurrent()
	c.dispatch()
}

// preemptCurrent stops the running slice, charging the partial progress.
func (c *CPU) preemptCurrent() {
	r := *c.cur
	c.cur = nil
	r.th.ent.SetOnCPU(false)
	now := c.k.Now()
	elapsed := now.Sub(r.started)
	r.ev.Cancel()
	if elapsed > 0 {
		c.chargeSlice(r.th, r.item, elapsed, now)
		r.item.Cost -= elapsed
	}
	// The item stays as the thread's current work and resumes later.
}

func (c *CPU) runNextIntr() {
	w, ok := c.intrQ.Pop()
	if !ok {
		c.inIntr = false
		c.preempted = nil
		c.dispatch()
		return
	}
	c.intr = w
	if c.k.Tracer.Enabled(trace.KindInterrupt) {
		var name string
		if w.container != nil {
			name = w.container.Name()
		}
		c.k.Tracer.Emit(trace.Event{
			At: c.k.Now(), Kind: trace.KindInterrupt, CPU: c.id,
			Stage: trace.StageInterrupt, Principal: name, Cost: w.cost,
			Detail: w.label,
		})
	}
	c.k.eng.After(w.cost, c.intrDone)
}

// completeIntr finishes the interrupt work in progress: accounting, its
// completion work, then the next queued interrupt.
func (c *CPU) completeIntr() {
	w := c.intr
	c.intr = intrWork{}
	now := c.k.Now()
	c.k.interruptTime += w.cost
	if w.container != nil {
		w.container.ChargeCPU(rc.KernelCPU, w.cost, c.k.cs.Window())
	}
	if w.chargePreempted && c.preempted != nil {
		// The classic misaccounting: interrupt time lands on the
		// scheduler state of the unlucky preempted principal.
		c.k.sch.Charge(c.preempted, nil, w.cost, now)
	}
	if c.k.tel != nil && !w.deferTel {
		// Profile attribution for interrupt-level work that is not
		// re-attributed at demux time: the baseline's misaccounting
		// made visible — the preempted principal pays (Fig 14).
		r := c.k.telIdle
		if c.preempted != nil {
			th := c.preempted.Owner.(*Thread)
			r = c.k.tel.Resolve(&th.profile, c.preempted.Name)
		}
		c.k.tel.Charge(r, trace.StageInterrupt, w.cost)
	}
	w.run(c.k)
	c.runNextIntr()
}

// telPrincipal names the resource principal a slice is attributed to in
// telemetry: the bound container when there is one, else the scheduler
// entity. Names, not numeric IDs — container IDs come from a global
// counter and are not stable across parallel runs.
func telPrincipal(th *Thread, item *WorkItem) string {
	if item.Container != nil {
		return item.Container.Name()
	}
	return th.ent.Name
}

// chargeSlice performs all accounting for d of CPU consumed by th running
// item.
func (c *CPU) chargeSlice(th *Thread, item *WorkItem, d sim.Duration, now sim.Time) {
	if item.Container != nil {
		item.Container.ChargeCPU(item.Kind, d, c.k.cs.Window())
	}
	c.k.sch.Charge(th.ent, item.Container, d, now)
	th.cpuTime += d
	th.proc.cpuTime += d
	c.busy += d
	if c.k.tel != nil {
		c.k.tel.Charge(c.k.threadRow(th, item), item.Stage, d)
	}
}

// dispatch puts the next thread slice on the CPU if it is free.
func (c *CPU) dispatch() {
	if c.inIntr || c.cur != nil {
		return
	}
	now := c.k.Now()
	// Entities put aside because their pending work's container is out
	// of cap budget; restored after the scheduling decision, with a
	// retry armed for the next window.
	var overBudget []*sched.Entity
	defer func() {
		if len(overBudget) == 0 {
			return
		}
		for _, e := range overBudget {
			c.k.sch.SetRunnable(e, true)
		}
		c.scheduleRetry(c.k.cs.NextWindow(now))
	}()
	for {
		e := c.k.sch.Pick(now)
		if e == nil {
			if next, ok := c.k.sch.NextRelease(now); ok {
				c.scheduleRetry(next)
			}
			return
		}
		th := e.Owner.(*Thread)
		th.yieldIdleWork()
		if th.current == nil {
			th.current = th.next()
		}
		if th.current == nil {
			// The entity looked runnable but has no work (stale state);
			// fix it up and pick again.
			th.updateRunnable()
			continue
		}
		if item := th.current; item.Container != nil && !item.Container.Destroyed() {
			if c.k.cs != nil && c.k.cs.SliceBudget(item.Container, now) <= 0 {
				// The work's own container is out of budget this window:
				// the thread may have standing via other bindings, but
				// this work must not run (§5.6 exact cap enforcement).
				c.k.sch.SetRunnable(e, false)
				overBudget = append(overBudget, e)
				continue
			}
		}
		c.start(th, now)
		return
	}
}

// start begins a slice of the thread's current item.
func (c *CPU) start(th *Thread, now sim.Time) {
	item := th.current
	if item.Container != nil && item.Container.Destroyed() {
		// The activity was torn down while this work sat queued (e.g. a
		// response send racing a connection close). Charge the process
		// default container instead of a dead principal.
		item.Container = th.proc.DefaultContainer
	}
	if item.Container != nil {
		// Assuming the item's resource binding (§4.2); this also folds
		// the container into the thread's scheduler binding (§4.3).
		if th.ent.Resource != item.Container {
			c.k.sch.Bind(th.ent, item.Container, now)
		}
	}
	slice := sched.DefaultQuantum
	if item.Cost < slice {
		slice = item.Cost
	}
	if c.k.cs != nil && item.Container != nil {
		if sb := c.k.cs.SliceBudget(item.Container, now); sb < slice {
			slice = sb
		}
	}
	if c.k.tel != nil {
		c.k.tel.Dispatch(c.k.threadRow(th, item))
	}
	if c.k.Tracer.Enabled(trace.KindDispatch) {
		c.k.Tracer.Emit(trace.Event{
			At: now, Kind: trace.KindDispatch, CPU: c.id, Stage: item.Stage,
			Principal: telPrincipal(th, item), Cost: slice, Detail: item.Label,
		})
	}
	th.ent.SetOnCPU(true)
	c.slot = running{th: th, item: item, started: now, slice: slice}
	c.cur = &c.slot
	c.slot.ev = c.k.eng.After(slice, c.sliceDone)
}

// completeSlice finishes the running slice: accounting, completion
// callback, next dispatch. It works on a copy of the slot, which the
// completion callback may refill by dispatching the next slice. A
// finished kernel-owned item goes back to the free list before its
// callbacks run, which may post work that reuses it.
func (c *CPU) completeSlice() {
	r := *c.cur
	slice := r.slice
	now := c.k.Now()
	c.cur = nil
	r.th.ent.SetOnCPU(false)
	c.chargeSlice(r.th, r.item, slice, now)
	r.item.Cost -= slice
	var done, delivered func()
	if r.item.Cost <= 0 {
		r.th.current = nil
		done, delivered = r.item.OnDone, r.item.onDelivered
		if r.item.pooled {
			c.k.releaseItem(r.item)
		}
	}
	r.th.updateRunnable()
	if done != nil {
		done()
	}
	if delivered != nil {
		c.k.eng.After(WireDelay, delivered)
	}
	c.dispatch()
}

// scheduleRetry arms a dispatch retry at t (for throttled threads whose
// cap budget replenishes at the next window).
func (c *CPU) scheduleRetry(t sim.Time) {
	if c.retryEv.Pending() && c.retryEv.At() <= t {
		return
	}
	c.retryEv.Cancel()
	c.retryEv = c.k.eng.At(t, func() { c.k.dispatchAll() })
}
