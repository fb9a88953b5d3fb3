package kernel

import (
	"fmt"

	"rescon/internal/fault"
	"rescon/internal/rc"
)

// WatchInvariants registers the kernel's live state with the runtime
// invariant checker: the container hierarchies reachable from every
// process's default container (for the CPU-conservation and
// non-negativity checks), the bounded per-container protocol queues and
// listen-socket accept/SYN queues (for the queue-bound check), and the
// connection-lifecycle conservation invariant (every established
// connection is open or closed exactly once — none lost), and the
// work-item free list (no item on it twice, none still queued or running
// on a thread). The sources
// are re-evaluated at every checker tick, so processes, sockets and
// containers created after this call are still covered.
func (k *Kernel) WatchInvariants(ch *fault.Checker) {
	ch.WatchContainerSource(func() []*rc.Container {
		var out []*rc.Container
		for _, p := range k.procs {
			if p.DefaultContainer != nil {
				out = append(out, p.DefaultContainer)
			}
		}
		return out
	})
	ch.WatchQueueSource(func() []fault.QueueState {
		var out []fault.QueueState
		for _, p := range k.procs {
			if p.netQ == nil {
				continue
			}
			for _, cq := range p.netQ.queues {
				name := p.name + "/netq"
				if cq.c != nil {
					name = fmt.Sprintf("%s:%v", name, cq.c)
				}
				// +1 slack: requeueFront may return one borrowed item to a
				// full queue (see netsim.Queue.PushFront).
				out = append(out, fault.QueueState{
					Name:  name,
					Len:   cq.q.Len(),
					Bound: p.netQ.backlog + 1,
				})
			}
		}
		return out
	})
	ch.WatchQueueSource(func() []fault.QueueState {
		var out []fault.QueueState
		for _, ls := range k.net.socks {
			if ls.closed {
				continue
			}
			out = append(out,
				fault.QueueState{
					Name:  "accept:" + ls.cfg.Local.String(),
					Len:   ls.acceptQ.Len(),
					Bound: ls.acceptQ.Cap(),
				},
				fault.QueueState{
					Name:  "syn:" + ls.cfg.Local.String(),
					Len:   ls.synQ.Len(),
					Bound: ls.synQ.Cap(),
				})
		}
		return out
	})
	ch.MustWatchCheck("conn-conservation", func() string {
		est, closed, open := k.net.established, k.net.closed, uint64(k.net.conns.live)
		if est != closed+open {
			return fmt.Sprintf("established %d != closed %d + open %d", est, closed, open)
		}
		return ""
	})
	ch.MustWatchCheck("item-recycling", k.checkItemRecycling)
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
