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
