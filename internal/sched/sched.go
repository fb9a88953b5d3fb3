// Package sched implements the CPU schedulers of the reproduction:
//
//   - DecayScheduler: a classic 4.3BSD-style decay-usage time-sharing
//     scheduler whose resource principals are processes. This is the
//     "unmodified system" baseline, and it deliberately reproduces the
//     misaccounting the paper exposes (interrupt-level work is charged to
//     whatever principal happens to be running).
//
//   - ContainerScheduler: the paper's multi-level scheduler (§4.3, §5.1),
//     whose resource principals are resource containers. Fixed-share
//     containers receive CPU guarantees and hard caps enforced over a
//     sliding window; time-share leaf containers share the remainder
//     weighted by numeric priority with decayed usage; priority-0
//     containers form an idle class that runs only when nothing else can.
//     Threads are scheduled by their scheduler binding — the set of
//     containers they have recently served — which the scheduler prunes
//     periodically and applications can reset explicitly.
//
// Both schedulers schedule Entities (kernel threads). The simulated
// kernel (internal/kernel) owns the CPU execution loop; the scheduler
// only answers "who runs next" and maintains per-principal usage state.
package sched

import (
	"fmt"
	"slices"
	"sort"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

// DefaultQuantum is the maximum CPU slice between scheduling decisions.
const DefaultQuantum = sim.Millisecond

// Entity is the schedulable unit: one kernel thread. The kernel creates
// one Entity per thread and registers it with the active scheduler.
type Entity struct {
	// ID uniquely identifies the entity; Name is diagnostic.
	ID   uint64
	Name string

	// Owner is an opaque back-pointer for the kernel (the owning thread).
	Owner any

	// Fallback is the principal of last resort, the process default
	// container, which the container scheduler falls back to (see
	// fallback), e.g. when a connection is torn down while the thread's
	// next work item for it is already queued.
	Fallback *rc.Container

	// Proc is the classic scheduler's principal (the owning process).
	// It is required by DecayScheduler and ignored by ContainerScheduler.
	Proc *ProcPrincipal

	// Resource is the thread's current resource binding (§4.2): the
	// container that subsequent consumption is charged to. It is
	// maintained by the kernel via Scheduler.Bind.
	Resource *rc.Container

	runnable bool
	// onCPU marks the entity as currently executing on some processor;
	// Pick skips it so one thread never runs on two CPUs (SMP).
	onCPU   bool
	lastRun sim.Time
	seq     uint64 // registration order, deterministic tie-break
	setIdx  int    // position in entitySet.entities; -1 when unregistered

	// binding is the scheduler binding (§4.3): the containers the thread
	// has recently had a resource binding to, with last-bound times.
	binding []bindingEntry
	// pending, set by NewPendingSet, classes the entity in binding's
	// place, and binding stays empty.
	pending *PendingSet

	// The container scheduler's Pick cache (see ContainerScheduler.evaluate),
	// valid only while the scheduler's epoch equals the epoch it was
	// filled under. pruneBy is the earliest time prune could drop an
	// entry of the binding.
	pruneEpoch uint64
	pruneBy    sim.Time
	// keyCls and key are the entity's class and key, and keyLeaf the
	// leaf that gave the key, whose decayed usage was keyUsage.
	keyEpoch uint64
	keyCls   schedClass
	key      key
	keyLeaf  *cstate
	keyUsage uint64
}

// PendingSet is a scheduler binding that its owner keeps by pushing
// changes: the kernel network thread's containers with pending protocol
// work (§4.7), so that pending only priority-0 traffic means the idle
// class, with no staleness window. The container scheduler classes the
// entity by the set and its resource binding, and keeps its key cached
// across changes (see ContainerScheduler.evaluate).
type PendingSet struct {
	e    *Entity
	list []*rc.Container
	// folded is how many leading entries of list the cached key covers.
	folded int
}

// NewPendingSet makes an empty pending set e's scheduler binding, in
// place of any observed one.
func NewPendingSet(e *Entity) *PendingSet {
	e.binding, e.keyEpoch = nil, 0
	e.pending = &PendingSet{e: e}
	return e.pending
}

// Add appends c, which must be non-nil and not in the set.
func (p *PendingSet) Add(c *rc.Container) { p.list = append(p.list, c) }

// Remove takes c out of the set, keeping the others in order.
func (p *PendingSet) Remove(c *rc.Container) {
	i := slices.Index(p.list, c)
	if i < 0 {
		return
	}
	p.list = slices.Delete(p.list, i, i+1)
	if i < p.folded {
		p.folded--
		p.e.dropKey(c)
	}
}

// Containers returns the set in the order of its adds. The caller must
// not modify it.
func (p *PendingSet) Containers() []*rc.Container { return p.list }

type bindingEntry struct {
	c    *rc.Container
	last sim.Time
}

// Runnable reports whether the entity is currently runnable.
func (e *Entity) Runnable() bool { return e.runnable }

// SetOnCPU marks the entity as (not) executing; each simulated CPU's
// dispatch loop maintains it.
func (e *Entity) SetOnCPU(v bool) { e.onCPU = v }

// fallback returns the container e is scheduled against besides the
// ones it is classed by, or nil: Fallback while e's scheduler binding is
// empty or, with a pending set, while its resource binding is nil or
// destroyed. Both classing paths and the lottery tickets apply it here.
func (e *Entity) fallback() *rc.Container {
	if r := e.Resource; e.pending == nil && len(e.binding) > 0 ||
		e.pending != nil && r != nil && !r.Destroyed() {
		return nil
	}
	if e.Fallback == nil || e.Fallback.Destroyed() {
		panic(fmt.Sprintf("sched: entity %v needs its fallback and has no live one; the kernel must set Entity.Fallback", e))
	}
	return e.Fallback
}

// Binding returns the containers in the entity's scheduler binding.
func (e *Entity) Binding() []*rc.Container {
	out := make([]*rc.Container, len(e.binding))
	for i, b := range e.binding {
		out[i] = b.c
	}
	return out
}

// String identifies the entity for diagnostics.
func (e *Entity) String() string { return fmt.Sprintf("entity(%d %s)", e.ID, e.Name) }

// ProcPrincipal is the classic scheduler's resource principal: one per
// process. CPU usage halves every decayHalfLife, as 4.3BSD's schedcpu
// decays it, so long-run shares equalize among always-runnable processes.
type ProcPrincipal struct {
	Name string
	// Nice shifts the principal's precedence; positive nice yields CPU.
	Nice int

	usage uint64       // decayed CPU usage in nanoseconds, as of decay epoch ep
	ep    uint32       // see decayed
	total sim.Duration // undecayed total, for accounting checks
}

// NewProcPrincipal returns a principal with zero usage.
func NewProcPrincipal(name string) *ProcPrincipal { return &ProcPrincipal{Name: name} }

// TotalCPU returns the undecayed total CPU charged to the principal,
// including any interrupt-level time misaccounted to it.
func (p *ProcPrincipal) TotalCPU() sim.Duration { return p.total }

// Scheduler is the interface the kernel CPU loop drives. Implementations
// are not safe for concurrent use; the simulation is single-goroutine.
type Scheduler interface {
	// Register adds an entity to the scheduler's entity set.
	Register(e *Entity)
	// Unregister removes the entity (thread exit).
	Unregister(e *Entity)
	// SetRunnable marks the entity runnable or blocked.
	SetRunnable(e *Entity, runnable bool)
	// Pick returns the entity to run next, or nil if none is eligible
	// (all blocked, or all throttled by CPU limits).
	Pick(now sim.Time) *Entity
	// Charge accounts d of CPU consumed by e, charged to container c
	// (nil when no container is involved, e.g. the unmodified baseline).
	Charge(e *Entity, c *rc.Container, d sim.Duration, now sim.Time)
	// Bind records that e's resource binding changed to c (§4.2). The
	// container scheduler uses this to maintain the scheduler binding.
	Bind(e *Entity, c *rc.Container, now sim.Time)
	// ResetBinding restricts e's scheduler binding to its current
	// resource binding (§4.6 "reset the scheduler binding").
	ResetBinding(e *Entity)
	// NextRelease returns the earliest future time at which a currently
	// throttled entity may become eligible again, if any. The kernel
	// re-dispatches at that time when Pick returned nil but runnable
	// threads exist.
	NextRelease(now sim.Time) (sim.Time, bool)
	// RunnableCount returns the current run-queue depth (runnable
	// entities, including any on CPU) — sampled by the telemetry usage
	// timeline as the machine's scheduler backlog.
	RunnableCount() int
}

// entitySet is the shared registered-entity bookkeeping. Alongside the
// full membership slice it maintains the runnable subset, kept ordered by
// registration seq: Pick iterates only runnable entities. less is a
// total order, so no winner by key depends on that order; only the
// lottery draw still does, since it lists its candidates in seq order.
type entitySet struct {
	entities []*Entity
	runnable []*Entity // runnable entities, ascending by seq
	nextSeq  uint64
}

// runnableCount returns the size of the runnable subset.
func (s *entitySet) runnableCount() int { return len(s.runnable) }

func (s *entitySet) register(e *Entity) {
	e.seq = s.nextSeq
	s.nextSeq++
	e.setIdx = len(s.entities)
	s.entities = append(s.entities, e)
	if e.runnable {
		e.runnable = false
		s.setRunnable(e, true)
	}
}

// contains reports whether e is currently registered in this set.
func (s *entitySet) contains(e *Entity) bool {
	i := e.setIdx
	return i >= 0 && i < len(s.entities) && s.entities[i] == e
}

// unregister removes e in O(1) by swapping the last entity into its slot.
// Membership order does not matter — scheduling order is defined by the
// seq-sorted runnable list, never by entities order.
func (s *entitySet) unregister(e *Entity) {
	if !s.contains(e) {
		return
	}
	s.setRunnable(e, false)
	i := e.setIdx
	last := len(s.entities) - 1
	s.entities[i] = s.entities[last]
	s.entities[i].setIdx = i
	s.entities[last] = nil
	s.entities = s.entities[:last]
	e.setIdx = -1
}

// setRunnable maintains the runnable flag and, for registered entities,
// the seq-ordered runnable list. Redundant transitions are no-ops (the
// kernel calls SetRunnable idempotently).
func (s *entitySet) setRunnable(e *Entity, v bool) {
	if e.runnable == v {
		return
	}
	e.runnable = v
	if !s.contains(e) {
		return
	}
	i := sort.Search(len(s.runnable), func(i int) bool { return s.runnable[i].seq >= e.seq })
	if v {
		s.runnable = append(s.runnable, nil)
		copy(s.runnable[i+1:], s.runnable[i:])
		s.runnable[i] = e
		return
	}
	if i < len(s.runnable) && s.runnable[i] == e {
		copy(s.runnable[i:], s.runnable[i+1:])
		s.runnable[len(s.runnable)-1] = nil
		s.runnable = s.runnable[:len(s.runnable)-1]
	}
}
