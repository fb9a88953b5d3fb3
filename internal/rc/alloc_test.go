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
// ancestor chain built, it must stay allocation-free.
func TestChargeCPUNoAllocs(t *testing.T) {
	root := MustNew(nil, FixedShare, "root", Attributes{})
	mid := MustNew(root, FixedShare, "mid", Attributes{})
	leaf := MustNew(mid, TimeShare, "leaf", Attributes{Priority: 1})
	leaf.ChargeCPU(UserCPU, sim.Microsecond) // build the chain
	allocs := testing.AllocsPerRun(200, func() {
		leaf.ChargeCPU(UserCPU, sim.Microsecond)
		leaf.ChargeCPU(KernelCPU, sim.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("ChargeCPU allocates %.1f objects/op, want 0", allocs)
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
	leaf.ChargeCPU(UserCPU, sim.Millisecond) // chain through a
	if err := leaf.SetParent(b); err != nil {
		t.Fatal(err)
	}
	leaf.ChargeCPU(UserCPU, sim.Millisecond)
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
