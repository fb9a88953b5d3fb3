package rc

import (
	"testing"
	"unsafe"

	"rescon/internal/sim"
)

// Every connection gets a container, so a Container that outgrows the
// 256-byte allocation size class costs every request the next class up.
func TestContainerFitsSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Container{}); sz > 256 {
		t.Fatalf("Container is %d bytes, want at most 256", sz)
	}
}

// Charging runs once per scheduled CPU slice and per packet; with the
// ancestor chain built, it must stay allocation-free, also through a
// window whose roll moves every joined ancestor's snapshot.
func TestChargeCPUNoAllocs(t *testing.T) {
	root := MustNew(nil, FixedShare, "root", Attributes{})
	mid := MustNew(root, FixedShare, "mid", Attributes{})
	leaf := MustNew(mid, TimeShare, "leaf", Attributes{Priority: 1})
	var w Window
	for _, c := range []*Container{root, mid, leaf} {
		w.Join(c)
	}
	leaf.ChargeCPU(UserCPU, sim.Microsecond, &w) // build the chain
	allocs := testing.AllocsPerRun(200, func() {
		w.Roll()
		leaf.ChargeCPU(UserCPU, sim.Microsecond, &w)
		leaf.ChargeCPU(KernelCPU, sim.Microsecond, &w)
	})
	if allocs != 0 {
		t.Fatalf("ChargeCPU allocates %.1f objects/op, want 0", allocs)
	}
	if got := w.Usage(root); got != 2*sim.Microsecond {
		t.Fatalf("root window usage %v after a roll and two charges, want 2µs", got)
	}
}

// A charge after the last Release is the no-op ChargeCPU promises: it
// moves no usage and, though Release dropped the cached chain, builds
// no new one. Each run charges a container not charged since its
// Release, as the kernel charges a closed connection's.
func TestChargeCPUDestroyedNoop(t *testing.T) {
	const runs = 100
	root := MustNew(nil, FixedShare, "root", Attributes{})
	var dead []*Container
	for i := 0; i <= runs; i++ {
		c := MustNew(root, TimeShare, "conn", Attributes{Priority: 1})
		c.ChargeCPU(UserCPU, sim.Millisecond, nil)
		if err := c.Release(); err != nil {
			t.Fatal(err)
		}
		dead = append(dead, c)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		dead[next].ChargeCPU(KernelCPU, sim.Millisecond, nil)
		next++
	})
	if allocs != 0 {
		t.Fatalf("charging a destroyed container allocates %.1f objects/op, want 0", allocs)
	}
	for _, c := range dead {
		if got := c.Usage().CPU(); got != sim.Millisecond {
			t.Fatalf("destroyed container's usage %v, want the 1ms charged before Release", got)
		}
	}
	if got, want := root.Usage().CPU(), (runs+1)*sim.Millisecond; got != want {
		t.Fatalf("old parent's usage %v, want %v", got, want)
	}
}

func TestChargePacketNoAllocs(t *testing.T) {
	root := MustNew(nil, FixedShare, "root", Attributes{})
	leaf := MustNew(root, TimeShare, "leaf", Attributes{Priority: 1})
	leaf.ChargePacketIn(64)
	allocs := testing.AllocsPerRun(200, func() {
		leaf.ChargePacketIn(64)
		leaf.ChargePacketOut(1024)
		leaf.ChargeDrop()
	})
	if allocs != 0 {
		t.Fatalf("packet charging allocates %.1f objects/op, want 0", allocs)
	}
}

// The cached chain must be rebuilt, not stale, after reparenting.
func TestAncestorChainInvalidation(t *testing.T) {
	a := MustNew(nil, FixedShare, "a", Attributes{})
	b := MustNew(nil, FixedShare, "b", Attributes{})
	leaf := MustNew(a, TimeShare, "leaf", Attributes{Priority: 1})
	leaf.ChargeCPU(UserCPU, sim.Millisecond, nil) // chain through a
	if err := leaf.SetParent(b); err != nil {
		t.Fatal(err)
	}
	leaf.ChargeCPU(UserCPU, sim.Millisecond, nil)
	if got := a.Usage().CPUUser; got != sim.Millisecond {
		t.Fatalf("old parent charged %v after reparent, want 1ms", got)
	}
	if got := b.Usage().CPUUser; got != sim.Millisecond {
		t.Fatalf("new parent charged %v, want 1ms", got)
	}
	if got := leaf.Usage().CPUUser; got != 2*sim.Millisecond {
		t.Fatalf("leaf charged %v, want 2ms", got)
	}
}
