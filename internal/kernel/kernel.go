// Package kernel simulates the monolithic UNIX-like kernel the paper
// modifies: processes, kernel threads, a single CPU with interrupt-level
// preemption, and a TCP/IP network subsystem with three execution models:
//
//   - ModeUnmodified: protocol processing at interrupt level, FIFO across
//     connections, charged to whatever principal happens to run (§3.2).
//   - ModeLRP: lazy receiver processing — early demultiplexing at
//     interrupt level, protocol processing by a per-process kernel thread
//     scheduled at (and charged to) the receiving process (§3.2, [15]).
//   - ModeRC: the paper's system — early demultiplexing to the resource
//     container bound to the receiving socket or connection; protocol
//     processing by a per-process kernel thread in container-priority
//     order, with its resource binding set per packet (§4.7).
//
// Everything runs in virtual time on internal/sim's event engine, with
// the calibrated CPU costs of costs.go, so experiment results are
// deterministic.
package kernel

import (
	"fmt"

	"rescon/internal/fault"
	"rescon/internal/netsim"
	"rescon/internal/rc"
	"rescon/internal/sched"
	"rescon/internal/sim"
	"rescon/internal/telemetry"
	"rescon/internal/trace"
)

// Mode selects the kernel's resource-management model.
type Mode int

const (
	// ModeUnmodified is the stock kernel baseline.
	ModeUnmodified Mode = iota
	// ModeLRP is the lazy-receiver-processing comparison system.
	ModeLRP
	// ModeRC is the resource-container system.
	ModeRC
)

// String names the mode as in the paper's figure legends.
func (m Mode) String() string {
	switch m {
	case ModeUnmodified:
		return "Unmodified"
	case ModeLRP:
		return "LRP"
	case ModeRC:
		return "RC"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Kernel is one simulated server machine (uniprocessor, as in §5.2).
type Kernel struct {
	eng    *sim.Engine
	mode   Mode
	sch    sched.Scheduler
	cpu    *CPU // primary processor (receives interrupts)
	cpus   []*CPU
	net    *network
	disk   *Disk
	fcache *FileCache
	cs     *sched.ContainerScheduler // sch in ModeRC, for cap budgets; else nil

	procs  []*Process
	nextID uint64

	// Tracer, when attached, records kernel events (packet arrivals,
	// drops, connection lifecycle, dispatches) in a bounded ring.
	Tracer *trace.Tracer

	// tel, when attached, receives timeline samples and virtual-CPU
	// profile attribution; see AttachTelemetry. Every instrumentation
	// point is behind a nil check, so a detached collector is free.
	tel *telemetry.Collector
	// telIdle, telUnmatched and telMachine are the profile rows of the
	// kernel's fixed non-container principals, interned on attach.
	telIdle, telUnmatched, telMachine telemetry.Row
	// watched are containers sampled into the telemetry usage timeline,
	// in registration order.
	watched []*rc.Container

	// Faults, when set, decides the fate of every client-injected packet
	// (drop/duplicate/delay/reorder) and of every disk read (media
	// error, latency spike).
	Faults *fault.Injector

	// Police is the admission-control / load-shedding policy applied at
	// early demultiplexing, keyed on per-container protocol backlog.
	Police Policing
	// policedDrops counts packets discarded by the policy.
	policedDrops uint64

	// ImplicitNetBinding makes kernel network threads use the generic
	// observed-bindings-with-pruning scheduler binding (§4.3) instead of
	// the exact pending-packet set (§4.7). It exists as an ablation knob:
	// set it before the first Listen call.
	ImplicitNetBinding bool

	// freeItems holds the work items PostFunc and Conn.Send build, once
	// completeSlice has copied their callbacks out, for reuse.
	freeItems []*WorkItem
	// wire holds the packets ClientSend has put on the wire, in send
	// order. Every one arrives exactly WireDelay after it was sent, so
	// their delivery events fire in that order too, each popping the
	// head through wireArrive, which is bound once.
	wire       netsim.Queue[netsim.Packet]
	wireArrive func()

	// stats
	interruptTime sim.Duration
}

// DefaultSYNPoliceFrac is the fraction of the per-container protocol
// backlog beyond which new connection requests are refused when policing
// is enabled. Small by design: a long SYN backlog is almost always stale
// work (the clients behind it have timed out), so shedding early keeps
// protocol effort for in-progress activities.
const DefaultSYNPoliceFrac = 1.0 / 16

// Policing configures per-container backlog admission control (the
// load-shedding policy of the resilience experiments). With the policy
// enabled, a packet whose destination container's pending-protocol
// backlog exceeds frac×DefaultNetBacklog is discarded at demultiplexing,
// for the cost of the packet filter alone. Only SYNs (new work) are
// policed; data and FIN (in-progress work) flow until the hard queue
// bound, so overload sheds new connections while letting accepted ones
// finish.
//
// ModeUnmodified has no per-process protocol backlog to key on, so there
// the policy degrades to an emergency interrupt-level SYN throttle: once
// a listener's embryonic queue holds more than SYNFrac× its capacity,
// further SYNs are refused for the cost of the interrupt alone instead
// of the full protocol processing — the classic receive-livelock
// mitigation (drop early, before investing work). It is off by default
// and exists as the alert.Watchdog's lever on the unmodified kernel.
type Policing struct {
	Enabled bool
	// SYNFrac is the backlog fraction beyond which connection requests
	// are refused. 0 means DefaultSYNPoliceFrac; >= 1 disables.
	SYNFrac float64
}

// PolicedDrops returns how many packets the admission-control policy has
// discarded.
func (k *Kernel) PolicedDrops() uint64 { return k.policedDrops }

// New returns a uniprocessor kernel (the paper's testbed, §5.2) in the
// given mode.
func New(eng *sim.Engine, mode Mode) *Kernel {
	return NewSMP(eng, mode, 1)
}

// NewSMP returns a kernel with ncpus processors. Interrupts are handled
// by CPU 0, as on the symmetric multiprocessors of the period; threads
// migrate freely (no affinity).
func NewSMP(eng *sim.Engine, mode Mode, ncpus int) *Kernel {
	if ncpus < 1 {
		ncpus = 1
	}
	k := &Kernel{eng: eng, mode: mode}
	switch mode {
	case ModeRC:
		k.cs = sched.NewContainerScheduler()
		k.cs.Capacity = ncpus
		k.sch = k.cs
	default:
		k.sch = sched.NewDecayScheduler()
	}
	for i := 0; i < ncpus; i++ {
		k.cpus = append(k.cpus, newCPU(k, i))
	}
	k.cpu = k.cpus[0]
	k.net = newNetwork()
	k.wireArrive = k.arriveFromWire
	return k
}

// NumCPUs returns the number of processors.
func (k *Kernel) NumCPUs() int { return len(k.cpus) }

// BusyTime sums thread-level CPU time consumed across all processors.
func (k *Kernel) BusyTime() sim.Duration {
	var total sim.Duration
	for _, c := range k.cpus {
		total += c.busy
	}
	return total
}

// kickAll reacts to newly runnable work across all processors: free CPUs
// dispatch; if none is free, one idle-class slice is evicted.
func (k *Kernel) kickAll() {
	for _, c := range k.cpus {
		if c.cur == nil && !c.inIntr {
			c.dispatch()
		}
	}
	// If work is still pending and some CPU runs idle-class background
	// work, evict it (strict idle-class semantics).
	for _, c := range k.cpus {
		c.PreemptIfIdleClass()
	}
}

// dispatchAll re-dispatches every free processor (cap-window retries).
func (k *Kernel) dispatchAll() {
	for _, c := range k.cpus {
		c.dispatch()
	}
}

// Engine returns the simulation engine the kernel runs on.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Mode returns the kernel's resource-management model.
func (k *Kernel) Mode() Mode { return k.mode }

// Scheduler returns the active CPU scheduler.
func (k *Kernel) Scheduler() sched.Scheduler { return k.sch }

// RunQueueDepth returns the scheduler's current runnable-entity count —
// the machine's run-queue depth.
func (k *Kernel) RunQueueDepth() int { return k.sch.RunnableCount() }

// Processes returns the kernel's live processes in creation order.
func (k *Kernel) Processes() []*Process { return k.procs }

// Now returns the current virtual time.
func (k *Kernel) Now() sim.Time { return k.eng.Now() }

// InterruptTime returns the total CPU time spent at interrupt level.
func (k *Kernel) InterruptTime() sim.Duration { return k.interruptTime }

// Utilization summarizes where machine time went so far.
type Utilization struct {
	// Busy, Interrupt and Idle are fractions of total machine capacity
	// (ncpus × elapsed); they sum to 1.
	Busy      float64
	Interrupt float64
	Idle      float64
}

// Utilization reports the CPU breakdown since the start of the
// simulation.
func (k *Kernel) Utilization() Utilization {
	elapsed := sim.Duration(k.Now())
	if elapsed <= 0 {
		return Utilization{Idle: 1}
	}
	capacity := float64(elapsed) * float64(len(k.cpus))
	u := Utilization{
		Busy:      float64(k.BusyTime()) / capacity,
		Interrupt: float64(k.interruptTime) / capacity,
	}
	u.Idle = 1 - u.Busy - u.Interrupt
	return u
}

// Process is a protection domain: one or more threads, a container
// descriptor table, and (in LRP/RC modes) a kernel network thread that
// performs protocol processing for the process's sockets.
type Process struct {
	k    *Kernel
	name string

	// Principal is the classic scheduler's resource principal.
	Principal *sched.ProcPrincipal
	// DefaultContainer is the container created for the process at fork
	// time (§4.6); nil outside ModeRC.
	DefaultContainer *rc.Container
	// Containers is the process's container descriptor table.
	Containers *rc.Table

	threads   []*Thread
	netThread *Thread
	netQ      *pktQueue
	cpuTime   sim.Duration
	exited    bool
	// profile caches the process's telemetry profile row (LRP-mode
	// packet attribution).
	profile rc.ProfileSlot
}

// NewProcess creates a process. In ModeRC a default time-share container
// with DefaultPriority is created for it, as fork() does in §4.6.
func (k *Kernel) NewProcess(name string) *Process {
	// A process takes a number from the counter its threads' scheduler
	// entities draw their IDs from, so entity IDs count processes too.
	k.nextID++
	p := &Process{
		k:          k,
		name:       name,
		Principal:  sched.NewProcPrincipal(name),
		Containers: rc.NewTable(),
	}
	if k.mode == ModeRC {
		p.DefaultContainer = rc.MustNew(nil, rc.TimeShare, name+"-default",
			rc.Attributes{Priority: DefaultPriority})
	}
	k.procs = append(k.procs, p)
	return p
}

// DefaultPriority is the numeric priority given to containers that have
// not been explicitly prioritized. It must be positive: priority 0 is the
// idle class (§5.7).
const DefaultPriority = 10

// Fork creates a child process inheriting the parent's container
// descriptor table (§4.6). The child gets its own principal; in ModeRC
// its default container is the parent's default container (inherited
// binding) unless the caller rebinds.
func (p *Process) Fork(name string) (*Process, error) {
	child := p.k.NewProcess(name)
	if p.k.mode == ModeRC {
		// NewProcess made a fresh default; a forked child instead
		// inherits the parent's binding.
		_ = child.DefaultContainer.Release()
		child.DefaultContainer = p.DefaultContainer
	}
	tab, err := p.Containers.Fork()
	if err != nil {
		return nil, err
	}
	_ = child.Containers.CloseAll()
	child.Containers = tab
	return child, nil
}

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// NetBacklog returns the process's pending-protocol queue depth (packets
// admitted at demultiplexing but not yet through protocol processing);
// zero in ModeUnmodified, where no such queue exists.
func (p *Process) NetBacklog() int {
	if p.netQ == nil {
		return 0
	}
	return p.netQ.Len()
}

// NetBacklogBound returns the per-container bound of the process's
// pending-protocol queue, or zero in ModeUnmodified.
func (p *Process) NetBacklogBound() int {
	if p.netQ == nil {
		return 0
	}
	return DefaultNetBacklog
}

// CPUTime returns the CPU actually consumed by the process's threads
// (excluding interrupt-level work, which belongs to no process).
func (p *Process) CPUTime() sim.Duration { return p.cpuTime }

// Exit terminates the process: all threads are unregistered and the
// container table is closed.
func (p *Process) Exit() {
	if p.exited {
		return
	}
	p.exited = true
	for _, t := range p.threads {
		t.exit()
	}
	if p.netThread != nil {
		p.netThread.exit()
	}
	_ = p.Containers.CloseAll()
	for i, x := range p.k.procs {
		if x == p {
			p.k.procs = append(p.k.procs[:i], p.k.procs[i+1:]...)
			break
		}
	}
}

// WorkItem is one segment of thread execution: a CPU cost, the mode it
// runs in, the container it is charged to (nil outside ModeRC), and a
// completion callback.
type WorkItem struct {
	// Label is diagnostic.
	Label string
	// Cost is the remaining CPU time the segment needs.
	Cost sim.Duration
	// Kind is user- or kernel-mode, for the container's usage split.
	Kind rc.CPUKind
	// Stage is the kernel execution stage the segment's CPU time is
	// attributed to in the virtual-CPU profile. Left at StageNone it is
	// derived from Kind (user work → StageUser, kernel work →
	// StageSyscall); the network path sets StageSocket explicitly.
	Stage trace.Stage
	// Container is the resource binding the thread assumes while running
	// this segment (§4.2). It must be non-nil in ModeRC.
	Container *rc.Container
	// OnDone runs when the segment's cost has been fully consumed.
	OnDone func()
	// onDelivered, set by Conn.Send, runs one wire delay after OnDone
	// would: the response reaching the client.
	onDelivered func()
	// pooled marks an item the kernel built for a thread (PostFunc,
	// Conn.Send) and recycles once it completes; items the network
	// thread's protocol queue supplies stay the queue's.
	pooled bool
}

// newItem takes a kernel-owned work item from the free list, or
// allocates one.
func (k *Kernel) newItem() *WorkItem {
	if n := len(k.freeItems); n > 0 {
		item := k.freeItems[n-1]
		k.freeItems[n-1] = nil
		k.freeItems = k.freeItems[:n-1]
		return item
	}
	return &WorkItem{pooled: true}
}

// releaseItem clears a kernel-owned work item and returns it to the free
// list. The caller must hold the last reference to it: completeSlice
// releases an item only after taking it off its thread and copying its
// callbacks out.
func (k *Kernel) releaseItem(item *WorkItem) {
	*item = WorkItem{pooled: true}
	k.freeItems = append(k.freeItems, item)
}

// Thread is one kernel-schedulable thread.
type Thread struct {
	proc    *Process
	ent     *sched.Entity
	fifo    netsim.Queue[*WorkItem]
	current *WorkItem
	// source, set on a kernel network thread only, is its protocol
	// queue: the thread pulls the pending packet with the highest
	// container priority at dispatch time (§4.7).
	source  *pktQueue
	cpuTime sim.Duration
	exited  bool
	// profile caches the telemetry profile row of the thread's
	// scheduler entity, charged for work bound to no container.
	profile rc.ProfileSlot
}

// NewThread creates a thread in the process. In ModeRC it starts bound to
// the process's default container (§4.2: a thread starts with a default
// resource container binding inherited from its creator).
func (p *Process) NewThread(name string) *Thread {
	p.k.nextID++
	t := &Thread{
		proc: p,
		ent: &sched.Entity{
			ID:   p.k.nextID,
			Name: p.name + "/" + name,
			Proc: p.Principal,
		},
	}
	t.ent.Owner = t
	p.k.sch.Register(t.ent)
	if p.k.mode == ModeRC && p.DefaultContainer != nil {
		t.ent.Fallback = p.DefaultContainer
		p.k.sch.Bind(t.ent, p.DefaultContainer, p.k.Now())
	}
	p.threads = append(p.threads, t)
	return t
}

// Process returns the owning process.
func (t *Thread) Process() *Process { return t.proc }

// Entity returns the thread's scheduler entity.
func (t *Thread) Entity() *sched.Entity { return t.ent }

// CPUTime returns the CPU consumed by the thread.
func (t *Thread) CPUTime() sim.Duration { return t.cpuTime }

// post queues a kernel-owned work segment on the thread and wakes the
// CPU.
func (t *Thread) post(item *WorkItem) {
	if t.exited {
		return
	}
	if item.Cost <= 0 {
		// Zero-cost work completes immediately at the next event; model
		// it as the minimum schedulable quantum of 1 ns to keep the CPU
		// loop uniform.
		item.Cost = 1
	}
	t.proc.k.checkItem(item)
	t.fifo.Push(item)
	t.updateRunnable()
	t.proc.k.kickAll()
}

// PostFunc posts a kernel-owned work item, which the kernel recycles
// once it completes.
func (t *Thread) PostFunc(label string, cost sim.Duration, kind rc.CPUKind, c *rc.Container, done func()) {
	item := t.proc.k.newItem()
	item.Label, item.Cost, item.Kind, item.Container, item.OnDone = label, cost, kind, c, done
	t.post(item)
}

// Wake re-evaluates runnability after the thread's work source gained
// work, and kicks the CPU.
func (t *Thread) Wake() {
	t.updateRunnable()
	t.proc.k.kickAll()
}

func (t *Thread) hasWork() bool {
	if t.current != nil || t.fifo.Len() > 0 {
		return true
	}
	return t.source != nil && t.source.hasWork()
}

func (t *Thread) updateRunnable() {
	t.proc.k.sch.SetRunnable(t.ent, !t.exited && t.hasWork())
}

// yieldIdleWork parks a partially processed idle-class work item back
// into the thread's work source when normal-priority work is pending, so
// the thread serves pending packets strictly in container-priority order
// (§4.7). Without this, a half-processed priority-0 packet would block
// the head of the kernel network thread.
func (t *Thread) yieldIdleWork() {
	if t.current == nil || t.source == nil {
		return
	}
	c := t.current.Container
	if c == nil || c.Class() != rc.TimeShare || c.EffectivePriority() > 0 {
		return
	}
	if t.source.topPriority() <= 0 {
		return
	}
	t.source.requeueFront(t.current)
	t.current = nil
}

// next pops the thread's next work item (FIFO first, then source).
func (t *Thread) next() *WorkItem {
	if item, ok := t.fifo.Pop(); ok {
		return item
	}
	if t.source != nil && t.source.hasWork() {
		item := t.source.nextWork()
		t.proc.k.checkItem(item)
		return item
	}
	return nil
}

func (t *Thread) exit() {
	if t.exited {
		return
	}
	t.exited = true
	t.fifo.Clear()
	t.current = nil
	t.source = nil
	t.proc.k.sch.Unregister(t.ent)
}

// checkItem enforces the ModeRC invariant that every work segment has a
// container to charge, and normalizes the telemetry stage from the CPU
// kind when the poster left it unset.
func (k *Kernel) checkItem(item *WorkItem) {
	if k.mode == ModeRC && item.Container == nil {
		panic(fmt.Sprintf("kernel: ModeRC work item %q without a container", item.Label))
	}
	if item.Stage == trace.StageNone {
		if item.Kind == rc.UserCPU {
			item.Stage = trace.StageUser
		} else {
			item.Stage = trace.StageSyscall
		}
	}
}
