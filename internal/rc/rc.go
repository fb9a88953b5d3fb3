// Package rc implements resource containers, the paper's primary
// contribution (Banga, Druschel & Mogul, OSDI 1999, §4).
//
// A resource container is an explicit resource principal, decoupled from
// the protection domain (process). It logically contains all system
// resources used to carry out one independent activity — e.g. one HTTP
// connection — no matter which threads or processes do the work, and no
// matter whether the work happens in user mode or inside the kernel.
//
// Containers form a hierarchy: a child's resource consumption is
// constrained by its parent's scheduling parameters (§4.5). Following the
// paper's prototype, containers come in two classes: fixed-share
// containers, which carry a CPU guarantee/limit and may have children, and
// time-share containers, which time-share the CPU granted to their parent
// and must be leaves. Threads bind only to leaf containers.
//
// The package is deliberately independent of any particular scheduler or
// kernel: it provides the principal abstraction (hierarchy, attributes,
// usage accounting, reference-counted lifecycle). internal/sched consumes
// containers as scheduling principals and internal/kernel exposes the
// syscall-level operations of §4.6.
package rc

import (
	"errors"
	"fmt"
	"sync/atomic"

	"rescon/internal/sim"
)

// Sentinel errors returned by container operations.
var (
	// ErrDestroyed is returned when operating on a container whose last
	// reference has been released.
	ErrDestroyed = errors.New("rc: container destroyed")
	// ErrCycle is returned by SetParent when the new parent is the
	// container itself or one of its descendants.
	ErrCycle = errors.New("rc: parent change would create a cycle")
	// ErrTimeShareParent is returned when attempting to give children to a
	// time-share container (prototype restriction, §4.5).
	ErrTimeShareParent = errors.New("rc: time-share containers cannot have children")
	// ErrShareOverflow is returned when the fixed shares of a container's
	// children would sum to more than 1.0 of the parent.
	ErrShareOverflow = errors.New("rc: children's fixed shares exceed parent capacity")
	// ErrBadAttributes is returned for out-of-range attribute values.
	ErrBadAttributes = errors.New("rc: invalid attributes")
	// ErrNotLeaf is returned when binding a thread to a non-leaf container.
	ErrNotLeaf = errors.New("rc: threads may bind only to leaf containers")
	// ErrMemLimit is returned when a memory charge would exceed a limit
	// anywhere on the ancestor chain.
	ErrMemLimit = errors.New("rc: memory limit exceeded")
)

// Class distinguishes the two container kinds of the prototype (§5.1).
type Class int

const (
	// TimeShare containers time-share the CPU granted to their parent with
	// their siblings, weighted by numeric priority. They must be leaves.
	TimeShare Class = iota
	// FixedShare containers obtain a fixed-share guarantee (and optionally
	// a hard limit) from the scheduler and may have children.
	FixedShare
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case TimeShare:
		return "time-share"
	case FixedShare:
		return "fixed-share"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Attributes carry a container's scheduling parameters, resource limits
// and network QoS values (§4.1, §4.6).
type Attributes struct {
	// Priority is the numeric scheduling priority for time-shared
	// containers. Higher runs first; priority 0 means "only when idle"
	// (used for the SYN-flood defense of §5.7).
	Priority int
	// Share is the guaranteed CPU fraction (of the parent's allocation)
	// for fixed-share containers; 0 means no guarantee.
	Share float64
	// Limit is a hard cap on CPU consumption as a fraction of the parent's
	// allocation; 0 means unlimited. The cap includes all descendants
	// (§4.5: a parent's parameters constrain the whole subtree).
	Limit float64
	// MemLimit caps the bytes of memory charged to the subtree; 0 means
	// unlimited.
	MemLimit int64
	// QoSWeight is the network QoS weight used by the kernel network
	// subsystem when ordering protocol processing; 0 means default (1.0).
	QoSWeight float64
}

func (a Attributes) validate() error {
	if a.Priority < 0 {
		return fmt.Errorf("%w: negative priority %d", ErrBadAttributes, a.Priority)
	}
	if a.Share < 0 || a.Share > 1 {
		return fmt.Errorf("%w: share %v outside [0,1]", ErrBadAttributes, a.Share)
	}
	if a.Limit < 0 || a.Limit > 1 {
		return fmt.Errorf("%w: limit %v outside [0,1]", ErrBadAttributes, a.Limit)
	}
	if a.Limit > 0 && a.Share > a.Limit {
		return fmt.Errorf("%w: share %v exceeds limit %v", ErrBadAttributes, a.Share, a.Limit)
	}
	if a.MemLimit < 0 {
		return fmt.Errorf("%w: negative memory limit", ErrBadAttributes)
	}
	if a.QoSWeight < 0 {
		return fmt.Errorf("%w: negative QoS weight", ErrBadAttributes)
	}
	return nil
}

// Usage is the resource consumption charged to a container, including all
// of its descendants (§4.1: the kernel carefully accounts for the system
// resources consumed by a resource container).
type Usage struct {
	// CPUUser and CPUKernel are the accumulated user- and kernel-mode CPU
	// time. Their sum is the container's total CPU consumption.
	CPUUser   sim.Duration
	CPUKernel sim.Duration
	// PacketsIn/Out and BytesIn/Out count network traffic processed on
	// behalf of the container.
	PacketsIn  uint64
	PacketsOut uint64
	BytesIn    uint64
	BytesOut   uint64
	// Memory is the bytes of memory currently charged.
	Memory int64
	// PacketsDropped counts packets discarded while charged to this
	// container (e.g. SYN queue overflow).
	PacketsDropped uint64
	// DiskReads, DiskBytes and DiskTime account disk activity performed
	// on behalf of the container (§4.4 disk bandwidth).
	DiskReads uint64
	DiskBytes uint64
	DiskTime  sim.Duration
}

// CPU returns total (user + kernel) CPU time.
func (u Usage) CPU() sim.Duration { return u.CPUUser + u.CPUKernel }

// CPUKind labels which execution mode a CPU charge happened in.
type CPUKind int

const (
	// UserCPU is time spent in user mode.
	UserCPU CPUKind = iota
	// KernelCPU is time spent in kernel mode on behalf of the container
	// (protocol processing, syscall work).
	KernelCPU
)

// ProfileSlot is an opaque per-profile slot: the identity of the
// telemetry collector that owns it and the index of the principal's row
// in that collector's profile table. The zero value means unassigned
// (collector identities start at 1). The profile fills the slot on its
// first charge and re-resolves it whenever a different collector charges
// the same principal, so the accounting hot path indexes a row instead
// of hashing the principal's name; rc stores the slot without
// interpreting it.
type ProfileSlot struct {
	Owner uint32
	Row   uint32
}

// Container is one resource principal. Containers are not safe for
// concurrent use; like the rest of the simulation they live on a single
// goroutine. (A kernel implementation would protect them with the
// scheduler lock.)
type Container struct {
	id       uint64
	name     string
	class    Class
	parent   *Container
	children []*Container
	attrs    Attributes
	usage    Usage
	// refs is an int32 so that refs, destroyed and Profile share one
	// word-aligned block and the struct stays in its 256-byte size class.
	refs      int32
	destroyed bool

	// Profile caches the container's row in a telemetry profile (see
	// ProfileSlot).
	Profile ProfileSlot

	// SchedState is an opaque per-scheduler slot. The scheduler attaches
	// its bookkeeping (decayed usage, budget) here so that the rc package
	// need not know about any particular scheduling policy.
	SchedState any

	// chain caches the ancestor path (the container itself first, then
	// each parent up to the root). It is rebuilt lazily and invalidated —
	// for the whole subtree — whenever the topology changes, so the
	// accounting hot path (ChargeCPU and friends, called once per CPU
	// slice and per packet) walks a slice instead of chasing parent
	// pointers.
	chain []*Container

	// epoch counts changes to anything an ancestor-derived value could
	// depend on: this container's (or any ancestor's) attributes, parent
	// link, or destruction. Schedulers key their per-container caches
	// (effective cap budgets, share products) on it.
	epoch uint64
}

// Epoch returns the container's cache-invalidation epoch. It advances
// whenever the container's attributes or any link on its ancestor path
// change; cached values derived from the ancestor chain are valid only
// while the epoch is unchanged.
func (c *Container) Epoch() uint64 { return c.epoch }

// bumpSubtree invalidates ancestor-derived caches for c and every
// descendant. Called on topology and attribute changes, which are
// control-plane operations — the cost is a subtree walk, paid only when
// the hierarchy actually changes.
func (c *Container) bumpSubtree() {
	c.chain = nil
	c.epoch++
	for _, kid := range c.children {
		kid.bumpSubtree()
	}
}

// Ancestors returns the container's ancestor path — the container itself
// first, then each parent up to the root — as a cached slice. The caller
// must not modify or retain it past the next topology change.
func (c *Container) Ancestors() []*Container {
	if c.chain == nil {
		chain := make([]*Container, 0, c.Depth()+1)
		for p := c; p != nil; p = p.parent {
			chain = append(chain, p)
		}
		c.chain = chain
	}
	return c.chain
}

// New creates a container of the given class under parent (nil for a
// top-level container), with one reference held by the caller. It fails if
// the parent cannot have children or the attributes are invalid.
func New(parent *Container, class Class, name string, attrs Attributes) (*Container, error) {
	if err := attrs.validate(); err != nil {
		return nil, err
	}
	c := &Container{name: name, class: class, attrs: attrs, refs: 1}
	c.id = nextID()
	if parent != nil {
		if err := c.SetParent(parent); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// MustNew is New but panics on error; for tests and examples where the
// arguments are constants.
func MustNew(parent *Container, class Class, name string, attrs Attributes) *Container {
	c, err := New(parent, class, name, attrs)
	if err != nil {
		panic(err)
	}
	return c
}

// idCounter is the only process-global state in the simulation: container
// IDs must be unique across every container ever created, including when
// the experiment harness runs many independent simulations concurrently,
// so it is advanced atomically. IDs are identity, never ordering — no
// scheduling or rendering decision depends on their numeric values — so
// cross-simulation interleaving does not perturb results.
var idCounter atomic.Uint64

func nextID() uint64 { return idCounter.Add(1) }

// ID returns the container's unique identifier.
func (c *Container) ID() uint64 { return c.id }

// Name returns the diagnostic name given at creation.
func (c *Container) Name() string { return c.name }

// Class returns the container's class.
func (c *Container) Class() Class { return c.class }

// Parent returns the parent container, or nil for a top-level container.
func (c *Container) Parent() *Container { return c.parent }

// Children returns the container's direct children. The returned slice is
// shared; callers must not modify it.
func (c *Container) Children() []*Container { return c.children }

// IsLeaf reports whether the container currently has no children.
func (c *Container) IsLeaf() bool { return len(c.children) == 0 }

// Destroyed reports whether the container has been destroyed.
func (c *Container) Destroyed() bool { return c.destroyed }

// String identifies the container for diagnostics.
func (c *Container) String() string {
	return fmt.Sprintf("container(%d %q %s)", c.id, c.name, c.class)
}

// SetParent moves the container under parent, or detaches it when parent
// is nil ("no parent", §4.6). It rejects cycles, destroyed endpoints,
// time-share parents, and share overflow at the new parent.
func (c *Container) SetParent(parent *Container) error {
	if c.destroyed {
		return ErrDestroyed
	}
	if parent == c.parent {
		return nil
	}
	if parent != nil {
		if parent.destroyed {
			return fmt.Errorf("new parent: %w", ErrDestroyed)
		}
		if parent.class != FixedShare {
			return ErrTimeShareParent
		}
		for p := parent; p != nil; p = p.parent {
			if p == c {
				return ErrCycle
			}
		}
		if c.attrs.Share > 0 {
			total := c.attrs.Share
			for _, sib := range parent.children {
				total += sib.attrs.Share
			}
			if total > 1+1e-9 {
				return ErrShareOverflow
			}
		}
	}
	c.detach()
	c.parent = parent
	if parent != nil {
		parent.children = append(parent.children, c)
	}
	c.bumpSubtree()
	return nil
}

func (c *Container) detach() {
	if c.parent == nil {
		return
	}
	kids := c.parent.children
	for i, k := range kids {
		if k == c {
			c.parent.children = append(kids[:i], kids[i+1:]...)
			break
		}
	}
	c.parent = nil
}

// Retain adds a reference — the analogue of duplicating the container's
// descriptor or passing it to another process (§4.6: the sending process
// retains access). It fails on a destroyed container.
func (c *Container) Retain() error {
	if c.destroyed {
		return ErrDestroyed
	}
	c.refs++
	return nil
}

// Refs returns the current reference count.
func (c *Container) Refs() int { return int(c.refs) }

// Release drops one reference. When the last reference goes away the
// container is destroyed: it is detached from its parent and its children
// are set to "no parent" (§4.6). Releasing a destroyed container is an
// error.
func (c *Container) Release() error {
	if c.destroyed {
		return ErrDestroyed
	}
	c.refs--
	if c.refs > 0 {
		return nil
	}
	c.destroyed = true
	c.detach()
	c.bumpSubtree()
	// Children of a destroyed parent get "no parent".
	kids := c.children
	c.children = nil
	for _, kid := range kids {
		kid.parent = nil
		kid.bumpSubtree()
	}
	return nil
}

// Attributes returns the container's current attributes.
func (c *Container) Attributes() Attributes { return c.attrs }

// SetAttributes replaces the container's attributes after validation,
// including the sibling share-sum check when the container is attached.
func (c *Container) SetAttributes(attrs Attributes) error {
	if c.destroyed {
		return ErrDestroyed
	}
	if err := attrs.validate(); err != nil {
		return err
	}
	if c.parent != nil && attrs.Share > 0 {
		total := attrs.Share
		for _, sib := range c.parent.children {
			if sib != c {
				total += sib.attrs.Share
			}
		}
		if total > 1+1e-9 {
			return ErrShareOverflow
		}
	}
	c.attrs = attrs
	c.bumpSubtree()
	return nil
}

// Usage returns the resource consumption charged to the container and its
// descendants so far (§4.6 "container usage information").
func (c *Container) Usage() Usage { return c.usage }

// ChargeCPU adds CPU time of the given kind to the container and all of
// its ancestors. Charging a destroyed container is a silent no-op — in the
// kernel, in-flight work can complete after the last descriptor closes.
// The walk uses the precomputed ancestor slice: ChargeCPU runs once per
// scheduled CPU slice, so it must not re-derive the path each time.
func (c *Container) ChargeCPU(kind CPUKind, d sim.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("rc: negative CPU charge %v", d))
	}
	if kind == UserCPU {
		for _, p := range c.Ancestors() {
			p.usage.CPUUser += d
		}
		return
	}
	for _, p := range c.Ancestors() {
		p.usage.CPUKernel += d
	}
}

// ChargePacketIn accounts one received packet of the given size.
func (c *Container) ChargePacketIn(bytes int) {
	for _, p := range c.Ancestors() {
		p.usage.PacketsIn++
		p.usage.BytesIn += uint64(bytes)
	}
}

// ChargePacketOut accounts one transmitted packet of the given size.
func (c *Container) ChargePacketOut(bytes int) {
	for _, p := range c.Ancestors() {
		p.usage.PacketsOut++
		p.usage.BytesOut += uint64(bytes)
	}
}

// ChargeDrop accounts one dropped packet.
func (c *Container) ChargeDrop() {
	for _, p := range c.Ancestors() {
		p.usage.PacketsDropped++
	}
}

// ChargeDiskRead accounts one disk read of the given size and device
// occupancy on behalf of the container (§4.4).
func (c *Container) ChargeDiskRead(bytes int, busy sim.Duration) {
	for _, p := range c.Ancestors() {
		p.usage.DiskReads++
		p.usage.DiskBytes += uint64(bytes)
		p.usage.DiskTime += busy
	}
}

// ChargeMemory attempts to charge bytes of memory (negative to release).
// The charge fails without effect if it would push any container on the
// ancestor chain past its MemLimit.
func (c *Container) ChargeMemory(bytes int64) error {
	if bytes > 0 {
		for p := c; p != nil; p = p.parent {
			if p.attrs.MemLimit > 0 && p.usage.Memory+bytes > p.attrs.MemLimit {
				return fmt.Errorf("%w: %s at %d/%d bytes", ErrMemLimit, p, p.usage.Memory, p.attrs.MemLimit)
			}
		}
	}
	for p := c; p != nil; p = p.parent {
		p.usage.Memory += bytes
		if p.usage.Memory < 0 {
			p.usage.Memory = 0
		}
	}
	return nil
}

// Root returns the top of the container's hierarchy (itself if detached).
func (c *Container) Root() *Container {
	p := c
	for p.parent != nil {
		p = p.parent
	}
	return p
}

// Depth returns the number of ancestors above the container.
func (c *Container) Depth() int {
	d := 0
	for p := c.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// Walk visits the container and every descendant in depth-first order.
func (c *Container) Walk(fn func(*Container)) {
	fn(c)
	for _, kid := range c.children {
		kid.Walk(fn)
	}
}

// EffectivePriority returns the scheduling priority, defaulting to 0.
func (c *Container) EffectivePriority() int { return c.attrs.Priority }

// QoSWeight returns the network QoS weight, defaulting to 1.0.
func (c *Container) QoSWeight() float64 {
	if c.attrs.QoSWeight <= 0 {
		return 1.0
	}
	return c.attrs.QoSWeight
}
