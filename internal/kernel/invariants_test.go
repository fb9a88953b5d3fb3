package kernel

import (
	"strings"
	"testing"

	"rescon/internal/fault"
	"rescon/internal/rc"
	"rescon/internal/sim"
)

// recyclingRig is an RC-mode kernel with the invariant checker watching
// it, recording violations instead of panicking, and one thread that has
// run a work item (now on the free list), is running a second and has a
// third queued.
type recyclingRig struct {
	eng *sim.Engine
	k   *Kernel
	ch  *fault.Checker
	th  *Thread
}

func newRecyclingRig(t *testing.T) *recyclingRig {
	t.Helper()
	eng, k := newKernel(ModeRC)
	ch := fault.NewChecker(eng)
	ch.FailFast = false
	k.WatchInvariants(ch)
	p := k.NewProcess("httpd")
	r := &recyclingRig{eng: eng, k: k, ch: ch, th: p.NewThread("worker")}
	ran := 0
	for i := 0; i < 3; i++ {
		r.th.PostFunc("work", 100*sim.Microsecond, rc.UserCPU, p.DefaultContainer, func() { ran++ })
	}
	eng.RunUntil(eng.Now().Add(150 * sim.Microsecond))
	if ran != 1 || len(k.freeItems) != 1 || r.th.current == nil || r.th.fifo.Len() != 1 {
		t.Fatalf("rig: ran %d, %d free, current %v, %d queued; want 1, 1, running, 1",
			ran, len(k.freeItems), r.th.current != nil, r.th.fifo.Len())
	}
	r.check(t, "")
	return r
}

// check runs the invariants once and fails unless the item-recycling
// violation they report contains want ("" for none).
func (r *recyclingRig) check(t *testing.T, want string) {
	t.Helper()
	r.ch.Check()
	var got []string
	for _, v := range r.ch.Violations() {
		if strings.Contains(v, "item-recycling") {
			got = append(got, v)
		}
	}
	switch {
	case want == "" && len(got) > 0:
		t.Fatalf("unexpected violation: %v", got)
	case want != "" && (len(got) != 1 || !strings.Contains(got[0], want)):
		t.Fatalf("violations %v, want one item-recycling violation containing %q", got, want)
	}
}

// A kernel-owned work item goes back to the free list only after its last
// use, and every one is back once the thread has drained.
func TestItemRecyclingInvariantHolds(t *testing.T) {
	r := newRecyclingRig(t)
	r.ch.Start(50 * sim.Microsecond)
	c := r.th.proc.DefaultContainer
	for i := 0; i < 100; i++ {
		r.th.PostFunc("more", 30*sim.Microsecond, rc.UserCPU, c, nil)
	}
	r.eng.RunUntil(r.eng.Now().Add(10 * sim.Millisecond))
	if v := r.ch.Violations(); len(v) > 0 {
		t.Fatalf("violations on a correct kernel: %v", v)
	}
	if r.ch.Checks() < 100 {
		t.Fatalf("checker ran %d times, want the whole run covered", r.ch.Checks())
	}
	if n := len(r.k.freeItems); n != 102 {
		t.Fatalf("%d items on the free list after the thread drained, want all 102", n)
	}
}

// Planted bug: an item recycled while its thread still runs it (before
// completeSlice has read its callbacks) is caught.
func TestItemRecyclingInvariantCatchesRunningItem(t *testing.T) {
	r := newRecyclingRig(t)
	r.k.releaseItem(r.th.current)
	r.check(t, "thread httpd/worker runs the work item in free-list slot 1")
}

// Planted bug: an item recycled while it waits in its thread's FIFO is
// caught.
func TestItemRecyclingInvariantCatchesQueuedItem(t *testing.T) {
	r := newRecyclingRig(t)
	r.k.releaseItem(r.th.fifo.At(0))
	r.check(t, "work item in free-list slot 1 at position 0 of its FIFO")
}

// Planted bug: an item released twice is caught.
func TestItemRecyclingInvariantCatchesDoubleRelease(t *testing.T) {
	r := newRecyclingRig(t)
	r.k.releaseItem(r.k.freeItems[0])
	r.check(t, "free-list slots 0 and 1 hold the same work item")
}

// netViolations runs the invariants once and returns the net-pending
// violations they report.
func netViolations(ch *fault.Checker) []string {
	ch.Check()
	var got []string
	for _, v := range ch.Violations() {
		if strings.Contains(v, "net-pending") {
			got = append(got, v)
		}
	}
	return got
}

// newNetRig is an RC-mode kernel with the invariant checker watching it,
// recording violations instead of panicking, and a process whose
// protocol queue holds two packets for container a, then one for b.
func newNetRig(t *testing.T) (*fault.Checker, *pktQueue) {
	t.Helper()
	eng, k := newKernel(ModeRC)
	ch := fault.NewChecker(eng)
	ch.FailFast = false
	k.WatchInvariants(ch)
	p := k.NewProcess("httpd")
	p.ensureNetThread()
	a, b := rc.MustNew(nil, rc.TimeShare, "a", rc.Attributes{Priority: 1}), rc.MustNew(nil, rc.TimeShare, "b", rc.Attributes{Priority: 1})
	fillBacklog(t, p, a, 2)
	fillBacklog(t, p, b, 1)
	if v := netViolations(ch); len(v) > 0 {
		t.Fatalf("violations on a correct kernel: %v", v)
	}
	return ch, p.netQ
}

// Protocol processing over connections in several containers keeps every
// listed queue non-empty and the network thread's pending set in step.
func TestNetPendingInvariantHolds(t *testing.T) {
	eng, k := newKernel(ModeRC)
	ch := fault.NewChecker(eng)
	ch.FailFast = false
	k.WatchInvariants(ch)
	p := k.NewProcess("httpd")
	var conns []*Conn
	_, _ = k.Listen(p, ListenConfig{
		Local: srvAddr,
		OnAcceptable: func(l *ListenSocket) {
			c, _ := l.Accept()
			c.SetContainer(rc.MustNew(nil, rc.TimeShare, "conn", rc.Attributes{Priority: 1 + len(conns)%3}))
			conns = append(conns, c)
		},
	})
	for i := 0; i < 6; i++ {
		k.ClientSend(SYNPacket(client(uint16(i+1)), srvAddr, false))
	}
	eng.RunUntil(sim.Time(5 * sim.Millisecond))
	if len(conns) != 6 {
		t.Fatalf("accepted %d connections, want 6", len(conns))
	}
	most := 0
	ch.MustWatchCheck("pending-size", func() string {
		most = max(most, len(p.netQ.set.Containers()))
		return ""
	})
	ch.Start(5 * sim.Microsecond)
	for round := 0; round < 4; round++ {
		for i, c := range conns {
			k.Arrive(DataPacket(client(uint16(i+1)), srvAddr, c.ID(), 100, nil))
		}
		eng.RunUntil(eng.Now().Add(2 * sim.Millisecond))
		if n := len(p.netQ.set.Containers()); n != 0 {
			t.Fatalf("round %d: %d containers still pending after the queue drained", round, n)
		}
	}
	if v := ch.Violations(); len(v) > 0 {
		t.Fatalf("violations on a correct kernel: %v", v)
	}
	if ch.Checks() < 100 || most < 2 {
		t.Fatalf("checker ran %d times and saw at most %d containers pending, want the whole run covered with several pending", ch.Checks(), most)
	}
}

// Planted bug: a drain that takes b's queue off the list but skips the
// removal from the pending set is caught.
func TestNetPendingInvariantCatchesSkippedRemoval(t *testing.T) {
	ch, pq := newNetRig(t)
	set := pq.set
	pq.set = nil
	pq.nextWork() // a's first packet
	pq.nextWork() // b's only packet: its queue drains
	pq.set = set
	got := netViolations(ch)
	if len(got) != 1 || !strings.Contains(got[0], "holds 1 containers with no listed queue") {
		t.Fatalf("violations %v, want one about the container with no queue", got)
	}
}

// Planted bug: a drained queue left on the list is caught.
func TestNetPendingInvariantCatchesEmptyQueue(t *testing.T) {
	ch, pq := newNetRig(t)
	pq.queues[1].q.Clear()
	got := netViolations(ch)
	if len(got) != 1 || !strings.Contains(got[0], "listed protocol queue 1 ") {
		t.Fatalf("violations %v, want one about the empty queue 1", got)
	}
	if !strings.Contains(got[0], `"b"`) {
		t.Fatalf("violation %q does not name container b", got[0])
	}
}

// Planted bug: a container added to the pending set out of the order
// of the queues is caught.
func TestNetPendingInvariantCatchesOrder(t *testing.T) {
	ch, pq := newNetRig(t)
	a := pq.set.Containers()[0]
	pq.set.Remove(a)
	pq.set.Add(a)
	got := netViolations(ch)
	if len(got) != 1 || !strings.Contains(got[0], "does not follow the protocol queues at queue 0 ") {
		t.Fatalf("violations %v, want one about the pending set at queue 0", got)
	}
}

// watchedKernel is an RC-mode kernel with the invariant checker watching
// it, recording violations instead of panicking.
func watchedKernel() (*sim.Engine, *Kernel, *fault.Checker) {
	eng, k := newKernel(ModeRC)
	ch := fault.NewChecker(eng)
	ch.FailFast = false
	k.WatchInvariants(ch)
	return eng, k, ch
}

// A kernel charging work to containers under a process's default
// container, and to a tree its default container joined, keeps every
// invariant.
func TestInvariantsCleanRun(t *testing.T) {
	eng, k, ch := watchedKernel()
	p := k.NewProcess("httpd")
	group := rc.MustNew(nil, rc.FixedShare, "group", rc.Attributes{})
	if err := p.DefaultContainer.SetParent(group); err != nil {
		t.Fatal(err)
	}
	kid := rc.MustNew(group, rc.TimeShare, "kid", rc.Attributes{Priority: 1})
	th := p.NewThread("worker")
	eng.Every(sim.Millisecond/2, func() {
		th.PostFunc("work", 100*sim.Microsecond, rc.UserCPU, kid, nil)
		th.PostFunc("work", 50*sim.Microsecond, rc.KernelCPU, p.DefaultContainer, nil)
	})
	ch.Start(sim.Millisecond)
	eng.RunUntil(sim.Time(0).Add(100 * sim.Millisecond))
	if ch.Checks() == 0 || kid.Usage().CPU() == 0 {
		t.Fatalf("checker ran %d times, kid charged %v: the run did nothing", ch.Checks(), kid.Usage().CPU())
	}
	if v := ch.Violations(); len(v) != 0 {
		t.Fatalf("violations on a correct kernel: %v", v)
	}
}

// Planted bug: a child charged under one root and then reparented under
// the tree of a process's default container leaves the new parent's CPU
// below its children's sum.
func TestInvariantsCatchConservationBreak(t *testing.T) {
	_, k, ch := watchedKernel()
	p := k.NewProcess("httpd")
	oldRoot := rc.MustNew(nil, rc.FixedShare, "old", rc.Attributes{})
	kid := rc.MustNew(oldRoot, rc.TimeShare, "kid", rc.Attributes{Priority: 1})
	kid.ChargeCPU(rc.KernelCPU, sim.Millisecond)
	group := rc.MustNew(nil, rc.FixedShare, "group", rc.Attributes{})
	if err := p.DefaultContainer.SetParent(group); err != nil {
		t.Fatal(err)
	}
	if err := kid.SetParent(group); err != nil {
		t.Fatal(err)
	}
	ch.Check()
	v := ch.Violations()
	if len(v) != 1 || !strings.Contains(v[0], `: hierarchy-conservation: broken at container(`) || !strings.Contains(v[0], `"group"`) {
		t.Fatalf("violations %q, want one hierarchy-conservation violation at group", v)
	}
}

// A root shared by several processes' default containers is walked
// (once per check), and processes whose default container is destroyed
// or missing are skipped.
func TestInvariantsSkipDestroyedAndSharedRoots(t *testing.T) {
	_, k, ch := watchedKernel()
	group := rc.MustNew(nil, rc.FixedShare, "group", rc.Attributes{})
	for _, name := range []string{"a", "b"} {
		if err := k.NewProcess(name).DefaultContainer.SetParent(group); err != nil {
			t.Fatal(err)
		}
	}
	dead := rc.MustNew(nil, rc.TimeShare, "dead", rc.Attributes{Priority: 1})
	if err := dead.Release(); err != nil {
		t.Fatal(err)
	}
	k.NewProcess("dead").DefaultContainer = dead
	k.NewProcess("none").DefaultContainer = nil
	ch.Check()
	if v := ch.Violations(); len(v) != 0 {
		t.Fatalf("violations on a correct kernel: %v", v)
	}
}

// Planted bug: an accept queue pushed past its cap (PushFront bypasses
// the bound) is reported as queue-bound.
func TestInvariantsCatchAcceptQueueOverBound(t *testing.T) {
	_, k, ch := watchedKernel()
	p := k.NewProcess("httpd")
	ls, err := k.Listen(p, ListenConfig{Local: srvAddr, AcceptBacklog: 2})
	if err != nil {
		t.Fatal(err)
	}
	for ls.acceptQ.Push(nil) {
	}
	ch.Check()
	if v := ch.Violations(); len(v) != 0 {
		t.Fatalf("violations on a full accept queue: %v", v)
	}
	ls.acceptQ.PushFront(nil)
	ch.Check()
	want := ": queue-bound: accept:" + srvAddr.String() + " over bound: 3 > 2"
	if v := ch.Violations(); len(v) != 1 || !strings.HasSuffix(v[0], want) {
		t.Fatalf("violations %q, want one ending %q", v, want)
	}
}
