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
// container's SchedState slot. There is one per container, so one per
// connection under per-connection containers: keep it within 64 bytes
// (TestCStateSize).
type cstate struct {
	decayed   float64      // decayed CPU usage of this leaf, in seconds
	lastDecay sim.Time     // last decay application
	snapshot  sim.Duration // subtree CPU usage at the start of the window

	// Cached attribute aggregates over the ancestor chain, so the Pick
	// path does not recompute O(depth²) products or walk the chain on
	// every evaluation. Invalidated by rc's epoch counter, which bumps on
	// any attribute or topology change in the subtree.
	cacheValid  bool
	chainCapped bool // some container on the ancestor path has a Limit
	chainShared bool // some container on the ancestor path has a Share
	cacheEpoch  uint64
	capBudget   sim.Duration // own-limit window budget; -1 when no own limit
	effShare    float64      // guaranteed machine fraction (0 when no own share)
	weight      float64      // time-sharing weight (see weight)
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
	// decayDt and decayFactor memoise the last two decay intervals
	// computed and their factors, newest first (see decayFactorOf).
	decayDt     [2]sim.Duration
	decayFactor [2]float64
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
// otherwise every throttle/deficit check on the Pick path reads cached
// scalars. The accumulation order deliberately matches the original
// per-call walks (leaf to root) so the cached floats are bit-identical to
// what an uncached evaluation would produce.
//
// The chain flags tell the Pick path which walks can find anything: with
// no Limit on the path throttled is false, with no Share pathDeficit is
// 0, so a container under neither costs O(1) to evaluate. They come from
// the parent's own cached flags, which also registers every ancestor at
// the moment the uncached walks would have.
func (s *ContainerScheduler) attrs(c *rc.Container) *cstate {
	st := s.state(c)
	epoch := c.Epoch()
	if st.cacheValid && st.cacheEpoch == epoch {
		return st
	}
	own := c.Attributes()
	st.chainCapped, st.chainShared = own.Limit > 0, own.Share > 0
	if p := c.Parent(); p != nil {
		ps := s.attrs(p)
		st.chainCapped = st.chainCapped || ps.chainCapped
		st.chainShared = st.chainShared || ps.chainShared
	}
	st.weight = weight(c)
	chain := c.Ancestors()
	st.capBudget = -1
	if l := own.Limit; l > 0 {
		parentFrac := 1.0
		for _, p := range chain[1:] {
			if pl := p.Attributes().Limit; pl > 0 {
				parentFrac *= pl
			}
		}
		st.capBudget = sim.Duration(l * parentFrac * float64(s.Window) * float64(s.Capacity))
	}
	st.effShare = 0
	if sh := own.Share; sh > 0 {
		f := sh
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
// Callers skip it when c's chain is not capped.
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
// deprived enclosing subtree is, in CPU time. Callers skip it when c's
// chain has no share.
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

// decay applies lazy exponential decay to a leaf's state and returns its
// decayed usage.
func (s *ContainerScheduler) decay(st *cstate, now sim.Time) float64 {
	if now > st.lastDecay {
		st.decayed *= s.decayFactorOf(now.Sub(st.lastDecay))
		st.lastDecay = now
	}
	return st.decayed
}

// decayFactorOf returns the decay factor for an interval. The decays of
// one Pick mostly share one of two intervals: the leaves were last
// decayed together, except the one just charged. The same interval always
// gives the same factor, so memoising the last two changes no result.
func (s *ContainerScheduler) decayFactorOf(dt sim.Duration) float64 {
	switch dt {
	case s.decayDt[0]:
		return s.decayFactor[0]
	case s.decayDt[1]:
		return s.decayFactor[1]
	}
	f := math.Exp(-dt.Seconds() / decayTau.Seconds())
	s.decayDt[0], s.decayDt[1] = dt, s.decayDt[0]
	s.decayFactor[0], s.decayFactor[1] = f, s.decayFactor[0]
	return f
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

// verdict accumulates an entity's class and in-class key over the
// containers of its binding.
type verdict struct {
	cls     schedClass
	deficit sim.Duration // largest guarantee deficit (guarantee class)
	key     float64      // smallest decayed-usage key (normal/idle class)
}

func newVerdict() verdict { return verdict{cls: classNone, key: math.Inf(1)} }

// consider folds one binding container into v. The chain flags skip the
// throttle and deficit walks exactly where they could find nothing.
func (s *ContainerScheduler) consider(v *verdict, c *rc.Container, now sim.Time) {
	if c.Destroyed() {
		return
	}
	st := s.attrs(c)
	if st.chainCapped && s.throttled(c) {
		return
	}
	if st.chainShared {
		if d := s.pathDeficit(c, now); d > 0 {
			v.cls = min(v.cls, classGuarantee)
			v.deficit = max(v.deficit, d)
			return
		}
	}
	cls, k := classIdle, s.decay(st, now)
	if st.weight > 0 {
		cls, k = classNormal, k/st.weight
	}
	v.cls = min(v.cls, cls)
	if k < v.key {
		v.key = k
	}
}

// considerBinding folds the entity's scheduler binding (or its fallback,
// when the binding is empty) into v. With checkKeep set it stops at the
// first entry prune would drop and reports false.
func (s *ContainerScheduler) considerBinding(v *verdict, e *Entity, now sim.Time, checkKeep bool) bool {
	if len(e.binding) == 0 {
		if e.Fallback == nil || e.Fallback.Destroyed() {
			panic(fmt.Sprintf("sched: runnable entity %v has an empty scheduler binding and no fallback; the kernel must bind threads to a container", e))
		}
		s.consider(v, e.Fallback, now)
		return true
	}
	for _, b := range e.binding {
		if checkKeep && !s.keep(e, b, now) {
			return false
		}
		s.consider(v, b.c, now)
	}
	return true
}

// evaluate classifies an entity and computes its in-class key
// (guarantee: larger deficit wins; normal/idle: smaller key wins). With
// prune set it first prunes the scheduler binding, folded into the same
// pass: the scan checks each entry against prune's rule, and only on the
// first entry that fails does it prune and start over. Considering the
// entries before it again is exact: they are already decayed to now, and
// every other effect of consider is idempotent.
func (s *ContainerScheduler) evaluate(e *Entity, now sim.Time, prune bool) (schedClass, float64) {
	v := newVerdict()
	if e.DynamicBinding != nil {
		if prune {
			s.prune(e, now)
		}
		// Exact pending-work binding (kernel network threads, §4.7): the
		// thread is classed by the containers it is about to serve, plus
		// its current resource binding for in-progress work.
		for _, c := range e.DynamicBinding() {
			if c != nil {
				s.consider(&v, c, now)
			}
		}
		if e.Resource != nil {
			s.consider(&v, e.Resource, now)
		}
	} else if !s.considerBinding(&v, e, now, prune) {
		s.prune(e, now)
		v = newVerdict()
		s.considerBinding(&v, e, now, false)
	}
	switch v.cls {
	case classGuarantee:
		return v.cls, -v.deficit.Seconds() // negate: smaller key = bigger deficit
	case classNormal, classIdle:
		return v.cls, v.key
	default:
		return classNone, 0
	}
}

// Pick implements Scheduler.
func (s *ContainerScheduler) Pick(now sim.Time) *Entity {
	s.rollWindow(now)
	s.sawThrottled = false
	// Candidate order matters: the near-equal-key tie-break is not
	// transitive, so the scan runs in registration (seq) order.
	var best *Entity
	bestClass := classNone
	var bestKey float64
	for _, e := range s.set.runnable {
		if e.onCPU {
			continue
		}
		cls, key := s.evaluate(e, now, true)
		if cls == classNone {
			s.sawThrottled = true
			continue
		}
		if best == nil || cls < bestClass || (cls == bestClass && less(key, e, bestKey, best)) {
			best, bestClass, bestKey = e, cls, key
		}
	}
	if best != nil && bestClass == classNormal && s.policy == PolicyLottery {
		best = s.lotteryNormal(now)
	}
	if best != nil {
		best.lastRun = now
	}
	return best
}

// lotteryNormal re-selects among all normal-class candidates by lottery.
func (s *ContainerScheduler) lotteryNormal(now sim.Time) *Entity {
	var cands []*Entity
	var tickets []float64
	for _, e := range s.set.runnable {
		if e.onCPU {
			continue
		}
		// Pick pruned every binding at this now already.
		cls, _ := s.evaluate(e, now, false)
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
	s.decay(st, now)
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
	i := 0
	for i < len(e.binding) && s.keep(e, e.binding[i], now) {
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
		if s.keep(e, b, now) {
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

// keep reports whether prune keeps a scheduler-binding entry.
func (s *ContainerScheduler) keep(e *Entity, b bindingEntry, now sim.Time) bool {
	// Destroyed containers go even with pruning disabled: scheduling over
	// freed principals would be a use-after-free in a real kernel.
	if b.c.Destroyed() {
		return false
	}
	return s.DisablePruning || b.c == e.Resource || now.Sub(b.last) <= s.PruneAge
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
	if !s.attrs(c).chainCapped {
		return budget
	}
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
