package kernel

import (
	"fmt"
	"slices"

	"rescon/internal/fault"
	"rescon/internal/rc"
	"rescon/internal/sim"
)

// WatchInvariants registers the kernel's invariants with the runtime
// invariant checker, each as a named check whose name is its failure
// class:
//
//   - non-negative: no container in the hierarchies reachable from a
//     process's default container has negative CPU usage or memory;
//   - hierarchy-conservation: in those hierarchies every parent's CPU
//     usage is at least the sum of its children's (charges propagate to
//     all ancestors; reparenting a charged container breaks this);
//   - queue-bound: every protocol queue holds at most DefaultNetBacklog
//     packets (+1, see checkQueueBounds), and every open listen socket's
//     accept and SYN queues stay within their caps;
//   - conn-conservation: every established connection is open or closed
//     exactly once — none lost;
//   - item-recycling: no work item is on the free list twice, or still
//     queued or running on a thread;
//   - net-pending: no listed protocol queue is empty, and the network
//     thread's pending set is in step with the list.
//
// The checks read the kernel's state afresh at every checker tick, so
// processes, sockets and containers created after this call are still
// covered.
func (k *Kernel) WatchInvariants(ch *fault.Checker) {
	// non-negative and hierarchy-conservation share one walk per tick:
	// the first check walks and keeps the second's verdict for it.
	var roots []*rc.Container
	var conservation string
	ch.MustWatchCheck("non-negative", func() string {
		var negative string
		conservation = ""
		for _, p := range k.procs {
			c := p.DefaultContainer
			if c == nil || c.Destroyed() {
				continue
			}
			if root := c.Root(); !slices.Contains(roots, root) {
				roots = append(roots, root)
				checkAccounts(root, &negative, &conservation)
			}
		}
		clear(roots)
		roots = roots[:0]
		return negative
	})
	ch.MustWatchCheck("hierarchy-conservation", func() string { return conservation })
	ch.MustWatchCheck("queue-bound", k.checkQueueBounds)
	ch.MustWatchCheck("conn-conservation", func() string {
		est, closed, open := k.net.established, k.net.closed, uint64(k.net.conns.live)
		if est != closed+open {
			return fmt.Sprintf("established %d != closed %d + open %d", est, closed, open)
		}
		return ""
	})
	ch.MustWatchCheck("item-recycling", k.checkItemRecycling)
	ch.MustWatchCheck("net-pending", k.checkNetPending)
}

// checkAccounts walks the subtree at c and keeps, in *negative and
// *conservation, the first violation of each accounting invariant.
func checkAccounts(c *rc.Container, negative, conservation *string) {
	u := c.Usage()
	if *negative == "" {
		if u.CPUUser < 0 || u.CPUKernel < 0 {
			*negative = fmt.Sprintf("%v has negative CPU usage (user=%v kernel=%v)", c, u.CPUUser, u.CPUKernel)
		} else if u.Memory < 0 {
			*negative = fmt.Sprintf("%v has negative memory %d", c, u.Memory)
		}
	}
	kids := c.Children()
	if *conservation == "" && len(kids) > 0 {
		var kidCPU sim.Duration
		for _, kid := range kids {
			kidCPU += kid.Usage().CPU()
		}
		if own := u.CPU(); own < kidCPU {
			*conservation = fmt.Sprintf("broken at %v: parent %v < children sum %v", c, own, kidCPU)
		}
	}
	for _, kid := range kids {
		checkAccounts(kid, negative, conservation)
	}
}

// checkQueueBounds audits every bounded queue the kernel keeps. A
// protocol queue may hold one packet over DefaultNetBacklog: requeueFront
// may return one borrowed item to a full queue (see
// netsim.Queue.PushFront).
func (k *Kernel) checkQueueBounds() string {
	for _, p := range k.procs {
		if p.netQ == nil {
			continue
		}
		for _, cq := range p.netQ.queues {
			if n := cq.q.Len(); n > DefaultNetBacklog+1 {
				return fmt.Sprintf("%s/netq:%v over bound: %d > %d", p.name, cq.c, n, DefaultNetBacklog+1)
			}
		}
	}
	for _, ls := range k.net.socks {
		if ls.closed {
			continue
		}
		if n, limit := ls.acceptQ.Len(), ls.acceptQ.Cap(); n > limit {
			return fmt.Sprintf("accept:%v over bound: %d > %d", ls.cfg.Local, n, limit)
		}
		if n, limit := ls.synQ.Len(), ls.synQ.Cap(); n > limit {
			return fmt.Sprintf("syn:%v over bound: %d > %d", ls.cfg.Local, n, limit)
		}
	}
	return ""
}

// checkNetPending audits every process's protocol queue: hasWork reads
// only the length of its list, so no listed queue may be empty, and the
// network thread is classed by its pending set, which must hold the
// listed queues' containers in list order.
func (k *Kernel) checkNetPending() string {
	for _, p := range k.procs {
		pq := p.netQ
		if pq == nil {
			continue
		}
		var set []*rc.Container
		if pq.set != nil {
			set = pq.set.Containers()
		}
		n := 0
		for i, cq := range pq.queues {
			if cq.q.Len() == 0 {
				return fmt.Sprintf("%s: listed protocol queue %d (%v) is empty", p.name, i, cq.c)
			}
			if pq.set == nil || cq.c == nil {
				continue
			}
			if n >= len(set) || set[n] != cq.c {
				return fmt.Sprintf("%s: pending set %v does not follow the protocol queues at queue %d (%v)", p.name, set, i, cq.c)
			}
			n++
		}
		if n != len(set) {
			return fmt.Sprintf("%s: pending set %v holds %d containers with no listed queue", p.name, set, len(set)-n)
		}
	}
	return ""
}

// checkItemRecycling audits the work-item free list: an item on it twice,
// or one a thread still runs or has queued, would hand one record to two
// owners.
func (k *Kernel) checkItemRecycling() string {
	free := make(map[*WorkItem]int, len(k.freeItems))
	for i, item := range k.freeItems {
		if j, ok := free[item]; ok {
			return fmt.Sprintf("free-list slots %d and %d hold the same work item", j, i)
		}
		free[item] = i
	}
	for _, p := range k.procs {
		threads := p.threads
		if p.netThread != nil {
			threads = append(threads[:len(threads):len(threads)], p.netThread)
		}
		for _, t := range threads {
			if i, ok := free[t.current]; ok {
				return fmt.Sprintf("thread %s runs the work item in free-list slot %d", t.ent.Name, i)
			}
			for n := 0; n < t.fifo.Len(); n++ {
				if i, ok := free[t.fifo.At(n)]; ok {
					return fmt.Sprintf("thread %s has the work item in free-list slot %d at position %d of its FIFO", t.ent.Name, i, n)
				}
			}
		}
	}
	return ""
}
