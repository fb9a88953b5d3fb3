package sched

import (
	"fmt"
	"testing"
	"unsafe"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

// Pick is the scheduler's innermost loop: once ancestor chains and the
// per-container attribute caches are warm, a scheduling decision must not
// allocate.
func TestContainerPickNoAllocs(t *testing.T) {
	s := NewContainerScheduler()
	now := sim.Time(0)
	for i := 0; i < 8; i++ {
		e := &Entity{ID: uint64(i + 1)}
		s.Register(e)
		parent := rc.MustNew(nil, rc.FixedShare, fmt.Sprintf("svc%d", i),
			rc.Attributes{Share: 0.05, Limit: 0.5})
		leaf := rc.MustNew(parent, rc.TimeShare, fmt.Sprintf("conn%d", i),
			rc.Attributes{Priority: 1 + i%5})
		s.Bind(e, leaf, now)
		s.SetRunnable(e, true)
	}
	// Warm caches (ancestor chains, attrs, window snapshots).
	if s.Pick(now) == nil {
		t.Fatal("no entity picked")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if s.Pick(now) == nil {
			t.Fatal("no entity picked")
		}
	})
	if allocs != 0 {
		t.Fatalf("ContainerScheduler.Pick allocates %.1f objects/op, want 0", allocs)
	}
}

func TestDecayPickNoAllocs(t *testing.T) {
	s := NewDecayScheduler()
	now := sim.Time(0)
	for i := 0; i < 8; i++ {
		e := &Entity{ID: uint64(i + 1), Proc: NewProcPrincipal("p")}
		s.Register(e)
		s.SetRunnable(e, true)
	}
	s.Pick(now)
	allocs := testing.AllocsPerRun(200, func() {
		if s.Pick(now) == nil {
			t.Fatal("no entity picked")
		}
	})
	if allocs != 0 {
		t.Fatalf("DecayScheduler.Pick allocates %.1f objects/op, want 0", allocs)
	}
}

// There is one cstate per container, so one per connection under
// per-connection containers: past 64 bytes it moves to a larger size
// class and every connection pays for it. The chain flags sit in
// cacheValid's padding to stay within it.
func TestCStateSize(t *testing.T) {
	if got := unsafe.Sizeof(cstate{}); got > 64 {
		t.Fatalf("cstate is %d bytes, want at most 64", got)
	}
}
