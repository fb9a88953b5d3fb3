package sched

import (
	"fmt"
	"math"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

// DefaultWindow is the fixed-share/cap enforcement window. Guarantees and
// limits hold over multiples of this window; the paper's prototype
// enforced them at tens of seconds, we enforce much finer.
const DefaultWindow = 20 * sim.Millisecond

// DefaultPruneAge is how long a container stays in a thread's scheduler
// binding after the thread last had a resource binding to it (§4.3: the
// kernel prunes the scheduler binding periodically).
const DefaultPruneAge = 100 * sim.Millisecond

// cstate is the scheduler's per-container bookkeeping, stored in the
// container's SchedState slot.
type cstate struct {
	decayed   float64      // decayed CPU usage of this leaf, in seconds
	lastDecay sim.Time     // last decay application
	snapshot  sim.Duration // subtree CPU usage at the start of the window

	// Cached attribute aggregates over the ancestor chain, so the Pick
	// path does not recompute O(depth²) products on every evaluation.
	// Invalidated by rc's epoch counter, which bumps on any attribute or
	// topology change in the subtree.
	cacheValid bool
	cacheEpoch uint64
	capBudget  sim.Duration // own-limit window budget; -1 when no own limit
	effShare   float64      // guaranteed machine fraction (0 when no own share)
}

// ContainerScheduler schedules threads by the attributes and usage of the
// resource containers in their scheduler bindings (§4.3). It implements
// the prototype's multi-level policy (§5.1): fixed-share guarantees and
// hard caps enforced over a window, regular time-sharing below them, and
// an idle class for priority-0 time-share containers.
type ContainerScheduler struct {
	set     entitySet
	quantum sim.Duration

	// Window is the share/cap enforcement window.
	Window sim.Duration
	// PruneAge is the scheduler-binding pruning age. Setting
	// DisablePruning keeps stale containers in bindings forever — the
	// ablation knob for the pruning design choice.
	PruneAge       sim.Duration
	DisablePruning bool
	// Capacity is the number of processors: share guarantees and limit
	// budgets are fractions of the whole machine, so they scale with it.
	Capacity int

	windowStart  sim.Time
	registered   []*rc.Container
	sawThrottled bool
	policy       LeafPolicy
	rng          *sim.RNG
	// decayDt and decayFactor memoise the last decay interval and its
	// factor (see decayedOf).
	decayDt     sim.Duration
	decayFactor float64
}

// NewContainerScheduler returns a container scheduler with default
// quantum, window and pruning age.
func NewContainerScheduler() *ContainerScheduler {
	return &ContainerScheduler{
		quantum:  DefaultQuantum,
		Window:   DefaultWindow,
		PruneAge: DefaultPruneAge,
		Capacity: 1,
	}
}

// Register implements Scheduler.
func (s *ContainerScheduler) Register(e *Entity) { s.set.register(e) }

// Unregister implements Scheduler.
func (s *ContainerScheduler) Unregister(e *Entity) { s.set.unregister(e) }

// SetRunnable implements Scheduler.
func (s *ContainerScheduler) SetRunnable(e *Entity, runnable bool) { s.set.setRunnable(e, runnable) }

// Quantum implements Scheduler.
func (s *ContainerScheduler) Quantum() sim.Duration { return s.quantum }

// state returns (registering if needed) the scheduler state of c.
func (s *ContainerScheduler) state(c *rc.Container) *cstate {
	if st, ok := c.SchedState.(*cstate); ok {
		return st
	}
	st := &cstate{snapshot: c.Usage().CPU(), lastDecay: s.windowStart}
	c.SchedState = st
	s.registered = append(s.registered, c)
	return st
}

// registerChain registers c and all its ancestors.
func (s *ContainerScheduler) registerChain(c *rc.Container) {
	for p := c; p != nil; p = p.Parent() {
		s.state(p)
	}
}

// rollWindow starts a new enforcement window if the current one expired:
// every registered container's usage snapshot advances, replenishing cap
// budgets and resetting guarantee progress.
func (s *ContainerScheduler) rollWindow(now sim.Time) {
	if now.Sub(s.windowStart) < s.Window {
		return
	}
	// Compact destroyed containers while resnapshotting, so short-lived
	// per-connection containers do not accumulate.
	kept := s.registered[:0]
	for _, c := range s.registered {
		if c.Destroyed() {
			c.SchedState = nil
			continue
		}
		s.state(c).snapshot = c.Usage().CPU()
		kept = append(kept, c)
	}
	s.registered = kept
	s.windowStart = now
}

// windowUsage returns the CPU consumed by c's subtree in the current
// window.
func (s *ContainerScheduler) windowUsage(c *rc.Container) sim.Duration {
	u := c.Usage().CPU() - s.state(c).snapshot
	if u < 0 {
		return 0
	}
	return u
}

// attrs returns c's scheduler state with the cached attribute aggregates
// up to date. The products are recomputed only when the container's epoch
// changes (any attribute or topology change in the subtree bumps it);
// otherwise every throttle/deficit check on the Pick path reads two cached
// scalars. The accumulation order deliberately matches the original
// per-call walks (leaf to root) so the cached floats are bit-identical to
// what an uncached evaluation would produce.
func (s *ContainerScheduler) attrs(c *rc.Container) *cstate {
	st := s.state(c)
	epoch := c.Epoch()
	if st.cacheValid && st.cacheEpoch == epoch {
		return st
	}
	chain := c.Ancestors()
	st.capBudget = -1
	if l := c.Attributes().Limit; l > 0 {
		parentFrac := 1.0
		for _, p := range chain[1:] {
			if pl := p.Attributes().Limit; pl > 0 {
				parentFrac *= pl
			}
		}
		st.capBudget = sim.Duration(l * parentFrac * float64(s.Window) * float64(s.Capacity))
	}
	st.effShare = 0
	if own := c.Attributes().Share; own > 0 {
		f := own
		for _, p := range chain[1:] {
			if sh := p.Attributes().Share; sh > 0 {
				f *= sh
			}
		}
		st.effShare = f
	}
	st.cacheEpoch = epoch
	st.cacheValid = true
	return st
}

// throttled reports whether c or any ancestor has exhausted its CPU limit
// budget for the current window (§4.1 resource limits; §5.6 CGI caps).
func (s *ContainerScheduler) throttled(c *rc.Container) bool {
	for _, p := range c.Ancestors() {
		st := s.attrs(p)
		if st.capBudget < 0 {
			continue
		}
		if s.windowUsage(p) >= st.capBudget {
			return true
		}
	}
	return false
}

// pathDeficit returns the largest positive guarantee deficit on c's
// ancestor path: how far behind its fixed-share guarantee the most
// deprived enclosing subtree is, in CPU time.
func (s *ContainerScheduler) pathDeficit(c *rc.Container, now sim.Time) sim.Duration {
	elapsed := now.Sub(s.windowStart)
	var max sim.Duration
	for _, p := range c.Ancestors() {
		sh := s.attrs(p).effShare
		if sh <= 0 {
			continue
		}
		d := sim.Duration(sh*float64(elapsed)*float64(s.Capacity)) - s.windowUsage(p)
		if d > max {
			max = d
		}
	}
	return max
}

// weight returns the time-sharing weight of a container. Priority-0
// time-share containers form the idle class (weight 0), the mechanism
// behind the SYN-flood defense of §5.7. Fixed-share containers never
// starve: they default to weight 1 when no priority is set.
func weight(c *rc.Container) float64 {
	p := c.Attributes().Priority
	if p > 0 {
		return float64(p)
	}
	if c.Class() == rc.FixedShare {
		return 1
	}
	return 0
}

// decayedOf applies lazy exponential decay and returns the leaf's decayed
// usage.
func (s *ContainerScheduler) decayedOf(c *rc.Container, now sim.Time) float64 {
	st := s.state(c)
	if now > st.lastDecay {
		// The decays of one Pick mostly share one interval (the leaves
		// were last decayed together), and the same interval always gives
		// the same factor, so memoising the last one changes no result.
		if dt := now.Sub(st.lastDecay); dt != s.decayDt {
			s.decayDt, s.decayFactor = dt, math.Exp(-dt.Seconds()/decayTau.Seconds())
		}
		st.decayed *= s.decayFactor
		st.lastDecay = now
	}
	return st.decayed
}

// schedClass orders candidate entities: guarantee-deficit first, then
// regular time-sharing, then the idle class.
type schedClass int

const (
	classGuarantee schedClass = iota
	classNormal
	classIdle
	classNone // not eligible at all (throttled or blocked)
)

// evaluate classifies an entity and computes its in-class key
// (guarantee: larger deficit wins; normal/idle: smaller key wins).
func (s *ContainerScheduler) evaluate(e *Entity, now sim.Time) (schedClass, float64) {
	cls := classNone
	bestDeficit := sim.Duration(0)
	bestKey := math.Inf(1)
	consider := func(c *rc.Container) {
		if c.Destroyed() || s.throttled(c) {
			return
		}
		if d := s.pathDeficit(c, now); d > 0 {
			if cls > classGuarantee {
				cls = classGuarantee
			}
			if d > bestDeficit {
				bestDeficit = d
			}
			return
		}
		w := weight(c)
		if w > 0 {
			if cls > classNormal {
				cls = classNormal
			}
			if k := s.decayedOf(c, now) / w; k < bestKey {
				bestKey = k
			}
		} else {
			if cls > classIdle {
				cls = classIdle
			}
			if k := s.decayedOf(c, now); k < bestKey {
				bestKey = k
			}
		}
	}
	if e.DynamicBinding != nil {
		// Exact pending-work binding (kernel network threads, §4.7): the
		// thread is classed by the containers it is about to serve, plus
		// its current resource binding for in-progress work.
		for _, c := range e.DynamicBinding() {
			if c != nil {
				consider(c)
			}
		}
		if e.Resource != nil {
			consider(e.Resource)
		}
		if cls == classNone {
			return classNone, 0
		}
	} else {
		if len(e.binding) == 0 {
			if e.Fallback == nil || e.Fallback.Destroyed() {
				panic(fmt.Sprintf("sched: runnable entity %v has an empty scheduler binding and no fallback; the kernel must bind threads to a container", e))
			}
			consider(e.Fallback)
		}
		for _, b := range e.binding {
			consider(b.c)
		}
	}
	switch cls {
	case classGuarantee:
		return cls, -bestDeficit.Seconds() // negate: smaller key = bigger deficit
	case classNormal, classIdle:
		return cls, bestKey
	default:
		return classNone, 0
	}
}

// Pick implements Scheduler.
func (s *ContainerScheduler) Pick(now sim.Time) *Entity {
	s.rollWindow(now)
	s.sawThrottled = false
	best, bestClass := s.pickIn(s.set.runnable, now)
	if best != nil && bestClass == classNormal && s.policy == PolicyLottery {
		best = s.lotteryNormal(now)
	}
	if best != nil {
		best.lastRun = now
	}
	return best
}

// pickIn finds the best eligible entity in one seq-ordered runnable list
// (the shared list, or a per-CPU shard). Candidate order matters: the
// near-equal-key tie-break is not transitive, so both paths must iterate
// in the same seq order a full-set scan would.
func (s *ContainerScheduler) pickIn(list []*Entity, now sim.Time) (*Entity, schedClass) {
	var best *Entity
	bestClass := classNone
	var bestKey float64
	for _, e := range list {
		if e.onCPU {
			continue
		}
		s.prune(e, now)
		cls, key := s.evaluate(e, now)
		if cls == classNone {
			s.sawThrottled = true
			continue
		}
		if best == nil || cls < bestClass || (cls == bestClass && less(key, e, bestKey, best)) {
			best, bestClass, bestKey = e, cls, key
		}
	}
	return best, bestClass
}

// lotteryNormal re-selects among all normal-class candidates by lottery.
func (s *ContainerScheduler) lotteryNormal(now sim.Time) *Entity {
	var cands []*Entity
	var tickets []float64
	for _, e := range s.set.runnable {
		if e.onCPU {
			continue
		}
		cls, _ := s.evaluate(e, now)
		if cls != classNormal {
			continue
		}
		if t := s.tickets(e, now); t > 0 {
			cands = append(cands, e)
			tickets = append(tickets, t)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return s.lotteryPick(cands, tickets)
}

// Charge implements Scheduler: decayed usage lands on the charged leaf
// container. Window usage and cap budgets need no update here — they are
// derived from the container's own accounting (rc.ChargeCPU), which the
// kernel performs for every slice.
func (s *ContainerScheduler) Charge(e *Entity, c *rc.Container, d sim.Duration, now sim.Time) {
	if c == nil {
		return
	}
	s.registerChain(c)
	st := s.state(c)
	s.decayedOf(c, now)
	st.decayed += d.Seconds()
}

// Bind implements Scheduler: the entity's resource binding moves to c and
// c joins the scheduler binding (§4.3: the scheduler binding is set
// implicitly by the system's observation of the thread's resource
// bindings).
func (s *ContainerScheduler) Bind(e *Entity, c *rc.Container, now sim.Time) {
	if c == nil {
		panic("sched: Bind to nil container")
	}
	e.Resource = c
	s.registerChain(c)
	for i := range e.binding {
		if e.binding[i].c == c {
			e.binding[i].last = now
			s.prune(e, now)
			return
		}
	}
	e.binding = append(e.binding, bindingEntry{c: c, last: now})
	s.prune(e, now)
}

// prune drops scheduler-binding entries the thread has not served
// recently, and destroyed containers. The current resource binding is
// always kept.
func (s *ContainerScheduler) prune(e *Entity, now sim.Time) {
	keep := func(b bindingEntry) bool {
		// Destroyed containers go even with pruning disabled: scheduling
		// over freed principals would be a use-after-free in a real
		// kernel.
		if b.c.Destroyed() {
			return false
		}
		return s.DisablePruning || b.c == e.Resource || now.Sub(b.last) <= s.PruneAge
	}
	i := 0
	for i < len(e.binding) && keep(e.binding[i]) {
		i++
	}
	if i == len(e.binding) {
		// Nothing to drop. Leave the entries unwritten: rewriting them in
		// place would cost a GC write barrier per entry on every Pick.
		return
	}
	kept := e.binding[:i]
	var newest bindingEntry
	for _, b := range e.binding[i:] {
		if b.c.Destroyed() {
			continue
		}
		if newest.c == nil || b.last > newest.last {
			newest = b
		}
		if keep(b) {
			kept = append(kept, b)
		}
	}
	if len(kept) == 0 && newest.c != nil {
		// Never prune a binding to empty: a thread idle longer than the
		// pruning age keeps its most recent live binding until it is
		// rebound (threads always have *some* resource context, §4.2).
		// Only a scan from the first entry can get here, so newest is
		// the newest live entry of the whole binding.
		kept = append(kept, newest)
	}
	e.binding = kept
}

// ResetBinding implements Scheduler (§4.6): the scheduler binding
// collapses to the current resource binding only.
func (s *ContainerScheduler) ResetBinding(e *Entity) {
	if e.Resource == nil {
		e.binding = e.binding[:0]
		return
	}
	e.binding = append(e.binding[:0], bindingEntry{c: e.Resource, last: e.lastRun})
}

// NextRelease implements Scheduler: throttled entities become eligible
// when the window rolls.
func (s *ContainerScheduler) NextRelease(now sim.Time) (sim.Time, bool) {
	if !s.sawThrottled {
		return 0, false
	}
	return s.windowStart.Add(s.Window), true
}

// RunnableCount implements Scheduler: the current run-queue depth.
func (s *ContainerScheduler) RunnableCount() int { return s.set.runnableCount() }

// SliceBudget returns how much CPU a slice charged to c may consume
// before hitting a limit budget in the current window. The kernel clips
// slices to this value so hard caps are enforced almost exactly (§5.6
// "the CPU limits are enforced almost exactly"). A zero (or negative)
// result means the container is out of budget: the kernel must not run
// work charged to it until the window rolls — even if the thread holding
// that work has scheduling standing through other binding containers.
func (s *ContainerScheduler) SliceBudget(c *rc.Container, now sim.Time) sim.Duration {
	s.rollWindow(now)
	budget := s.quantum
	for _, p := range c.Ancestors() {
		st := s.attrs(p)
		if st.capBudget < 0 {
			continue
		}
		rem := st.capBudget - s.windowUsage(p)
		if rem < budget {
			budget = rem
		}
	}
	if budget < 0 {
		return 0
	}
	return budget
}

// NextWindow returns when the current enforcement window rolls and cap
// budgets replenish.
func (s *ContainerScheduler) NextWindow(now sim.Time) sim.Time {
	s.rollWindow(now)
	return s.windowStart.Add(s.Window)
}

// SliceBudgeter is implemented by schedulers that can bound slice length
// for cap enforcement; the kernel consults it when present.
type SliceBudgeter interface {
	SliceBudget(c *rc.Container, now sim.Time) sim.Duration
	NextWindow(now sim.Time) sim.Time
}
