package sched

import (
	"math"
	"math/bits"

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

// never is a prune deadline that never passes.
const never = sim.Time(math.MaxInt64)

// cstate is the scheduler's per-container bookkeeping, stored in the
// container's SchedState slot. There is one per container, so one per
// connection under per-connection containers: keep it within 64 bytes
// (TestCStateSize).
type cstate struct {
	sched *ContainerScheduler // told of every change to the container
	// usage is the leaf's decayed CPU usage in nanoseconds as of decay
	// epoch ep (see decayed).
	usage uint64

	// Cached attribute aggregates over the ancestor chain, so the Pick
	// path does not recompute O(depth²) products or walk the chain on
	// every evaluation. Invalidated by rc's epoch counter, which bumps on
	// any attribute or topology change in the subtree.
	cacheValid  bool
	chainCapped bool   // some container on the ancestor path has a Limit
	chainShared bool   // some container on the ancestor path has a Share
	ep          uint32 // usage's decay epoch, in the flags' padding
	cacheEpoch  uint64
	capBudget   sim.Duration // own-limit window budget; -1 when no own limit
	effShare    float64      // guaranteed machine fraction (0 when no own share)
	weight      uint64       // time-sharing weight (see weight)
}

// usageAt returns the leaf's decayed usage at decay epoch k.
func (st *cstate) usageAt(k uint32) uint64 { return decayed(st.usage, st.ep, k) }

// Changed implements rc.SchedHook: any attribute, topology or liveness
// change may change an entity's class or key, so every entity cache of
// the scheduler goes stale.
func (st *cstate) Changed() { st.sched.epoch++ }

// ContainerScheduler schedules threads by the attributes and usage of the
// resource containers in their scheduler bindings (§4.3). It implements
// the prototype's multi-level policy (§5.1): fixed-share guarantees and
// hard caps enforced over a window, regular time-sharing below them, and
// an idle class for priority-0 time-share containers.
type ContainerScheduler struct {
	set entitySet

	// DisablePruning keeps stale containers in scheduler bindings forever
	// instead of pruning them after DefaultPruneAge — the ablation knob
	// for the pruning design choice.
	DisablePruning bool
	// Capacity is the number of processors: share guarantees and limit
	// budgets are fractions of the whole machine, so they scale with it.
	Capacity int

	win          rc.Window // cap budgets and guarantee progress read it
	windowStart  sim.Time
	sawThrottled bool
	policy       LeafPolicy
	rng          *sim.RNG
	// decayEp is the decay epoch every key is read at: the latest one
	// Pick or Charge has seen (see age).
	decayEp uint32
	// epoch advances on every container change (cstate.Changed) and
	// every new decay epoch; an entity's Pick cache holds only under the
	// epoch it was filled in.
	epoch uint64
}

// NewContainerScheduler returns a uniprocessor container scheduler.
func NewContainerScheduler() *ContainerScheduler {
	// Epoch 0 marks an empty entity cache, so the scheduler starts at 1.
	return &ContainerScheduler{Capacity: 1, epoch: 1}
}

// Register implements Scheduler.
func (s *ContainerScheduler) Register(e *Entity) { s.set.register(e) }

// Unregister implements Scheduler.
func (s *ContainerScheduler) Unregister(e *Entity) { s.set.unregister(e) }

// SetRunnable implements Scheduler.
func (s *ContainerScheduler) SetRunnable(e *Entity, runnable bool) { s.set.setRunnable(e, runnable) }

// Window returns the limit window every CPU charge to a container the
// scheduler schedules must pass; nil for a nil scheduler.
func (s *ContainerScheduler) Window() *rc.Window {
	if s == nil {
		return nil
	}
	return &s.win
}

// state returns (registering and joining the window if needed) c's state.
func (s *ContainerScheduler) state(c *rc.Container) *cstate {
	if st, ok := c.SchedState.(*cstate); ok {
		return st
	}
	st := &cstate{sched: s}
	c.SchedState = st
	s.win.Join(c)
	return st
}

// registerChain registers c and all its ancestors.
func (s *ContainerScheduler) registerChain(c *rc.Container) {
	for p := c; p != nil; p = p.Parent() {
		s.state(p)
	}
}

// rollWindow starts a new enforcement window if the current one expired,
// replenishing cap budgets and resetting guarantee progress.
func (s *ContainerScheduler) rollWindow(now sim.Time) {
	if now.Sub(s.windowStart) < DefaultWindow {
		return
	}
	s.windowStart = now
	s.win.Roll()
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
	st.capBudget = -1
	if f := c.LimitFrac(); f > 0 {
		st.capBudget = sim.Duration(f * float64(DefaultWindow) * float64(s.Capacity))
	}
	st.effShare = 0
	if sh := own.Share; sh > 0 {
		f := sh
		for _, p := range c.Ancestors()[1:] {
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
		if s.win.Usage(p) >= st.capBudget {
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
		d := sim.Duration(sh*float64(elapsed)*float64(s.Capacity)) - s.win.Usage(p)
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
func weight(c *rc.Container) uint64 {
	p := c.Attributes().Priority
	if p > 0 {
		return uint64(p)
	}
	if c.Class() == rc.FixedShare {
		return 1
	}
	return 0
}

// age brings the scheduler to now's decay epoch. Every cached key was
// read at the old epoch, so a new one makes them all stale.
func (s *ContainerScheduler) age(now sim.Time) {
	if k := decayEpoch(now); k > s.decayEp {
		s.decayEp = k
		s.epoch++
	}
}

// key is an in-class scheduling key, the fraction u/w; lower runs first.
// A normal-class key is decayed usage over weight, an idle-class key
// decayed usage over 1, and a guarantee-class key MaxUint64 − deficit
// over 1, so that the largest deficit runs first.
type key struct{ u, w uint64 }

// cmp returns the sign of k − o, exactly: it compares u·o.w with o.u·w
// as 128-bit products.
func (k key) cmp(o key) int {
	ah, al := bits.Mul64(k.u, o.w)
	bh, bl := bits.Mul64(o.u, k.w)
	switch {
	case ah < bh || ah == bh && al < bl:
		return -1
	case ah == bh && al == bl:
		return 0
	}
	return 1
}

// leafClass returns the class of an eligible time-share leaf: normal,
// or idle at weight 0.
func leafClass(st *cstate) schedClass {
	if st.weight > 0 {
		return classNormal
	}
	return classIdle
}

// leafKey returns the class and in-class key of an eligible time-share
// leaf at the scheduler's decay epoch: its decayed usage over its
// weight, or in the idle class its decayed usage alone.
func (s *ContainerScheduler) leafKey(st *cstate) (schedClass, key) {
	return leafClass(st), key{st.usageAt(s.decayEp), max(st.weight, 1)}
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
	key     key          // smallest usage key (normal/idle class)
	leaf    *cstate      // the leaf that gave key; nil before the first
	// nocache is set when the verdict cannot be cached: a considered
	// container has a limit or a share on its ancestor path, so its class
	// depends on the window, or the entity fell back to Entity.Fallback,
	// and a later Bind replaces the fallback instead of joining it.
	nocache bool
}

func newVerdict() verdict { return verdict{cls: classNone} }

// consider folds one binding container into v. The chain flags skip the
// throttle and deficit walks exactly where they could find nothing.
func (s *ContainerScheduler) consider(v *verdict, c *rc.Container, now sim.Time) {
	if c.Destroyed() {
		return
	}
	st := s.attrs(c)
	v.nocache = v.nocache || st.chainCapped || st.chainShared
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
	cls, k := s.leafKey(st)
	v.cls = min(v.cls, cls)
	// Among equal keys the later leaf gives the key. Equal charges give
	// equal usage, so exact keys tie often; a thread serves its leaves
	// roughly in the order they joined (oldest connection, oldest
	// pending work first), so the later leaf is charged later and the
	// entity's cached key, which only its own leaf's charge drops,
	// holds longer.
	if v.leaf == nil || k.cmp(v.key) <= 0 {
		v.key, v.leaf = k, st
	}
}

// result returns the verdict's class and key (guarantee: larger deficit
// wins; normal/idle: smaller key wins).
func (v *verdict) result() (schedClass, key) {
	switch v.cls {
	case classGuarantee:
		return v.cls, key{math.MaxUint64 - uint64(v.deficit), 1}
	case classNormal, classIdle:
		return v.cls, v.key
	default:
		return classNone, key{}
	}
}

// considerBinding folds the entity's scheduler binding into v. With
// checkKeep set it stops at the first entry prune would drop and reports
// false; when it gets through, prune has nothing to do, and it records
// until when that holds.
func (s *ContainerScheduler) considerBinding(v *verdict, e *Entity, now sim.Time, checkKeep bool) bool {
	by := never
	for _, b := range e.binding {
		if checkKeep {
			if !s.keep(e, b, now) {
				return false
			}
			by = s.pruneDeadline(e, b, by)
		}
		s.consider(v, b.c, now)
	}
	if checkKeep {
		e.pruneEpoch, e.pruneBy = s.epoch, by
	}
	return true
}

// pruned reports whether prune would drop nothing from e's binding at
// now: nothing changed since it last checked, and no entry has aged out.
func (s *ContainerScheduler) pruned(e *Entity, now sim.Time) bool {
	return e.pruneEpoch == s.epoch && now <= e.pruneBy
}

// pruneDeadline folds entry b into by, the earliest time at which prune
// could drop an entry of e's binding.
func (s *ContainerScheduler) pruneDeadline(e *Entity, b bindingEntry, by sim.Time) sim.Time {
	if s.DisablePruning || b.c == e.Resource {
		return by
	}
	return min(by, b.last.Add(DefaultPruneAge))
}

// evaluate classifies an entity and computes its in-class key. With
// prune set it first prunes the scheduler binding.
//
// An entity keeps its class and key from the last evaluation when no
// container it was classed by has a limit or a share on its ancestor
// path: within one decay epoch usage only changes when charged, so the
// key holds until the leaf that gave it is charged, the containers
// change (Bind and a pending-set add fold a new leaf in; prune and
// dropKey invalidate), prune could drop an entry, or the scheduler's
// epoch moves (a container change or a new decay epoch). When only the
// leaf was charged, one pass refills it without pruning.
//
// Otherwise pruning is folded into the evaluation pass: the scan checks
// each entry against prune's rule, and only on the first entry that
// fails does it prune and start over. Considering the entries before it
// again is exact: consider's only effect beyond the verdict, filling
// attribute caches, is idempotent.
//
// An entity with a pending set (kernel network threads, §4.7) is classed
// by the set and its resource binding, and keeps no scheduler binding.
// Containers added since the key was filled are folded in here, not at
// the add, so each registers with the scheduler at the first evaluation
// that considers it. Either way, the entity's fallback is considered
// where Entity.fallback says, uncached.
func (s *ContainerScheduler) evaluate(e *Entity, now sim.Time, prune bool) (schedClass, key) {
	v := newVerdict()
	keyHolds := e.keyEpoch == s.epoch && e.keyLeaf.usageAt(s.decayEp) == e.keyUsage
	if p := e.pending; p != nil {
		if keyHolds {
			for _, c := range p.list[p.folded:] {
				s.foldKey(e, c)
			}
			p.folded = len(p.list)
			if e.keyEpoch == s.epoch {
				return e.keyCls, e.key
			}
		}
		for _, c := range p.list {
			s.consider(&v, c, now)
		}
		if e.Resource != nil {
			s.consider(&v, e.Resource, now)
		}
		p.folded = len(p.list)
	} else {
		fresh := s.pruned(e, now)
		if fresh && keyHolds {
			return e.keyCls, e.key
		}
		if fresh || !prune {
			s.considerBinding(&v, e, now, false)
		} else if !s.considerBinding(&v, e, now, true) {
			s.prune(e, now)
			v = newVerdict()
			s.considerBinding(&v, e, now, false)
		}
		v.nocache = v.nocache || !s.pruned(e, now)
	}
	if c := e.fallback(); c != nil {
		s.consider(&v, c, now)
		v.nocache = true
	}
	e.keyEpoch = 0
	if !v.nocache && v.leaf != nil {
		e.keyEpoch, e.keyCls, e.key = s.epoch, v.cls, v.key
		e.keyLeaf, e.keyUsage = v.leaf, v.key.u
	}
	return v.result()
}

// Pick implements Scheduler.
func (s *ContainerScheduler) Pick(now sim.Time) *Entity {
	s.rollWindow(now)
	s.age(now)
	s.sawThrottled = false
	// Class, key and less are a total order, so the winner does not
	// depend on the candidate order; only the lottery draw below still
	// depends on the seq order of the runnable list.
	var best *Entity
	bestClass := classNone
	var bestKey key
	for _, e := range s.set.runnable {
		if e.onCPU {
			continue
		}
		cls, k := s.evaluate(e, now, true)
		if cls == classNone {
			s.sawThrottled = true
			continue
		}
		if best == nil || cls < bestClass || (cls == bestClass && less(k.cmp(bestKey), e, best)) {
			best, bestClass, bestKey = e, cls, k
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

// Charge implements Scheduler: usage lands on the charged leaf
// container, brought to the current decay epoch first. Window usage and cap budgets need no update here — they are
// derived from the container's own accounting (rc.ChargeCPU through
// Window), which the kernel performs for every slice.
func (s *ContainerScheduler) Charge(e *Entity, c *rc.Container, d sim.Duration, now sim.Time) {
	if c == nil {
		return
	}
	s.registerChain(c)
	s.age(now)
	st := s.state(c)
	st.usage, st.ep = st.usageAt(s.decayEp)+uint64(d), s.decayEp
}

// Bind implements Scheduler: the entity's resource binding moves to c and
// c joins the scheduler binding (§4.3: the scheduler binding is set
// implicitly by the system's observation of the thread's resource
// bindings). A pending-set entity keeps no scheduler binding.
func (s *ContainerScheduler) Bind(e *Entity, c *rc.Container, now sim.Time) {
	if c == nil {
		panic("sched: Bind to nil container")
	}
	old := e.Resource
	e.Resource = c
	s.registerChain(c)
	if e.pending != nil {
		// It is classed by its resource binding: a remove, then an add.
		if old != nil && old != c {
			e.dropKey(old)
		}
		s.foldKey(e, c)
		return
	}
	found, aged := false, old == c
	for i := 0; i < len(e.binding) && !(found && aged); i++ {
		switch b := &e.binding[i]; b.c {
		case c:
			b.last, found = now, true
		case old:
			// No longer the resource binding, so it may age out.
			e.pruneBy, aged = s.pruneDeadline(e, *b, e.pruneBy), true
		}
	}
	if !found {
		e.binding = append(e.binding, bindingEntry{c: c, last: now})
		s.foldKey(e, c)
	}
	s.prune(e, now)
}

// foldKey folds a container just added to the containers e is classed by
// into the entity's cached key, if it has one: the key is a minimum, so
// one more leaf needs one comparison. A destroyed container classes
// nothing, and consider does not register it, so neither does foldKey.
func (s *ContainerScheduler) foldKey(e *Entity, c *rc.Container) {
	if e.keyEpoch != s.epoch || c.Destroyed() {
		return
	}
	st := s.attrs(c)
	if st.chainCapped || st.chainShared {
		e.keyEpoch = 0
		return
	}
	cls, k := s.leafKey(st)
	e.keyCls = min(e.keyCls, cls)
	if k.cmp(e.key) <= 0 { // the later leaf, as in consider
		e.key, e.keyLeaf, e.keyUsage = k, st, k.u
	}
}

// dropKey drops e's cached key when c, leaving the containers the key
// covers, could have given it: c gave the key, or c has the key's class
// and the leaf that gave the key does not. Other leaves' keys only rise,
// so otherwise the key holds. An unregistered c was never folded in.
func (e *Entity) dropKey(c *rc.Container) {
	st, ok := c.SchedState.(*cstate)
	if e.keyEpoch == 0 || !ok {
		return
	}
	if st == e.keyLeaf || (leafClass(st) == e.keyCls && leafClass(e.keyLeaf) != e.keyCls) {
		e.keyEpoch = 0
	}
}

// prune drops scheduler-binding entries the thread has not served
// recently, and destroyed containers. The current resource binding is
// always kept. It returns at once while no entry can have aged out.
func (s *ContainerScheduler) prune(e *Entity, now sim.Time) {
	if s.pruned(e, now) {
		return
	}
	by := never
	i := 0
	for ; i < len(e.binding) && s.keep(e, e.binding[i], now); i++ {
		by = s.pruneDeadline(e, e.binding[i], by)
	}
	e.pruneEpoch = s.epoch
	if i == len(e.binding) {
		// Nothing to drop. Leave the entries unwritten: rewriting them in
		// place would cost a GC write barrier per entry on every Pick.
		e.pruneBy = by
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
			by = s.pruneDeadline(e, b, by)
		}
	}
	if len(kept) == 0 && newest.c != nil {
		// Never prune a binding to empty: a thread idle longer than the
		// pruning age keeps its most recent live binding until it is
		// rebound (threads always have *some* resource context, §4.2).
		// Only a scan from the first entry can get here, so newest is
		// the newest live entry of the whole binding.
		kept = append(kept, newest)
		by = s.pruneDeadline(e, newest, by)
	}
	e.binding = kept
	e.pruneBy = by
	e.keyEpoch = 0
}

// keep reports whether prune keeps a scheduler-binding entry.
func (s *ContainerScheduler) keep(e *Entity, b bindingEntry, now sim.Time) bool {
	// Destroyed containers go even with pruning disabled: scheduling over
	// freed principals would be a use-after-free in a real kernel.
	if b.c.Destroyed() {
		return false
	}
	return s.DisablePruning || b.c == e.Resource || now.Sub(b.last) <= DefaultPruneAge
}

// ResetBinding implements Scheduler (§4.6): the scheduler binding
// collapses to the current resource binding only.
func (s *ContainerScheduler) ResetBinding(e *Entity) {
	e.pruneEpoch, e.keyEpoch = 0, 0
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
	return s.windowStart.Add(DefaultWindow), true
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
	budget := DefaultQuantum
	if !s.attrs(c).chainCapped {
		return budget
	}
	for _, p := range c.Ancestors() {
		st := s.attrs(p)
		if st.capBudget < 0 {
			continue
		}
		rem := st.capBudget - s.win.Usage(p)
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
	return s.windowStart.Add(DefaultWindow)
}
