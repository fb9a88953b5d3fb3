package rc

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rescon/internal/sim"
)

func mustTop(t *testing.T, name string, attrs Attributes) *Container {
	t.Helper()
	c, err := New(nil, FixedShare, name, attrs)
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	return c
}

func TestNewBasics(t *testing.T) {
	c, err := New(nil, TimeShare, "conn-1", Attributes{Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "conn-1" || c.Class() != TimeShare || c.Parent() != nil {
		t.Fatalf("unexpected container state: %+v", c)
	}
	if !c.IsLeaf() {
		t.Fatal("new container should be a leaf")
	}
	if c.Refs() != 1 {
		t.Fatalf("Refs %d, want 1", c.Refs())
	}
	if c.EffectivePriority() != 5 {
		t.Fatalf("priority %d, want 5", c.EffectivePriority())
	}
}

func TestIDsUnique(t *testing.T) {
	a := MustNew(nil, TimeShare, "a", Attributes{})
	b := MustNew(nil, TimeShare, "b", Attributes{})
	if a.ID() == b.ID() {
		t.Fatal("container IDs collide")
	}
}

func TestClassString(t *testing.T) {
	if TimeShare.String() != "time-share" || FixedShare.String() != "fixed-share" {
		t.Fatal("class names wrong")
	}
	if !strings.Contains(Class(42).String(), "42") {
		t.Fatal("unknown class should include number")
	}
}

func TestAttributeValidation(t *testing.T) {
	cases := []Attributes{
		{Priority: -1},
		{Share: -0.1},
		{Share: 1.1},
		{Limit: -0.1},
		{Limit: 2},
		{Share: 0.5, Limit: 0.3}, // share > limit
		{MemLimit: -1},
		{QoSWeight: -1},
		// NaN fails every comparison, so it must not slip past the
		// range checks.
		{Share: math.NaN()},
		{Limit: math.NaN()},
		{QoSWeight: math.NaN()},
		{QoSWeight: math.Inf(1)},
	}
	for i, a := range cases {
		if _, err := New(nil, FixedShare, "bad", a); !errors.Is(err, ErrBadAttributes) {
			t.Errorf("case %d: want ErrBadAttributes, got %v", i, err)
		}
	}
}

func TestHierarchy(t *testing.T) {
	root := mustTop(t, "server", Attributes{Share: 0.7})
	child, err := New(root, TimeShare, "conn", Attributes{Priority: 1})
	if err != nil {
		t.Fatal(err)
	}
	if child.Parent() != root {
		t.Fatal("child parent wrong")
	}
	if root.IsLeaf() {
		t.Fatal("root should not be leaf")
	}
	if len(root.Children()) != 1 || root.Children()[0] != child {
		t.Fatal("children list wrong")
	}
	if child.Root() != root || root.Root() != root {
		t.Fatal("Root wrong")
	}
	if child.Depth() != 1 || root.Depth() != 0 {
		t.Fatal("Depth wrong")
	}
}

func TestTimeShareCannotHaveChildren(t *testing.T) {
	ts := MustNew(nil, TimeShare, "ts", Attributes{})
	if _, err := New(ts, TimeShare, "kid", Attributes{}); !errors.Is(err, ErrTimeShareParent) {
		t.Fatalf("want ErrTimeShareParent, got %v", err)
	}
}

func TestSetParentCycle(t *testing.T) {
	a := mustTop(t, "a", Attributes{})
	b, _ := New(a, FixedShare, "b", Attributes{})
	c, _ := New(b, FixedShare, "c", Attributes{})
	if err := a.SetParent(c); !errors.Is(err, ErrCycle) {
		t.Fatalf("want ErrCycle, got %v", err)
	}
	if err := a.SetParent(a); !errors.Is(err, ErrCycle) {
		t.Fatalf("self-parent: want ErrCycle, got %v", err)
	}
}

func TestSetParentNil(t *testing.T) {
	a := mustTop(t, "a", Attributes{})
	b, _ := New(a, TimeShare, "b", Attributes{})
	if err := b.SetParent(nil); err != nil {
		t.Fatal(err)
	}
	if b.Parent() != nil || len(a.Children()) != 0 {
		t.Fatal("detach failed")
	}
}

func TestSetParentIdempotent(t *testing.T) {
	a := mustTop(t, "a", Attributes{})
	b, _ := New(a, TimeShare, "b", Attributes{})
	if err := b.SetParent(a); err != nil {
		t.Fatal(err)
	}
	if len(a.Children()) != 1 {
		t.Fatalf("children duplicated: %d", len(a.Children()))
	}
}

func TestShareOverflow(t *testing.T) {
	root := mustTop(t, "root", Attributes{})
	if _, err := New(root, FixedShare, "a", Attributes{Share: 0.7}); err != nil {
		t.Fatal(err)
	}
	if _, err := New(root, FixedShare, "b", Attributes{Share: 0.4}); !errors.Is(err, ErrShareOverflow) {
		t.Fatalf("want ErrShareOverflow, got %v", err)
	}
	// Exactly 1.0 total is allowed.
	if _, err := New(root, FixedShare, "c", Attributes{Share: 0.3}); err != nil {
		t.Fatalf("exact fit rejected: %v", err)
	}
}

func TestSetAttributesShareOverflow(t *testing.T) {
	root := mustTop(t, "root", Attributes{})
	a, _ := New(root, FixedShare, "a", Attributes{Share: 0.5})
	_, _ = New(root, FixedShare, "b", Attributes{Share: 0.5})
	if err := a.SetAttributes(Attributes{Share: 0.6}); !errors.Is(err, ErrShareOverflow) {
		t.Fatalf("want ErrShareOverflow, got %v", err)
	}
	// Lowering own share is fine.
	if err := a.SetAttributes(Attributes{Share: 0.2}); err != nil {
		t.Fatal(err)
	}
	if a.Attributes().Share != 0.2 {
		t.Fatal("attributes not updated")
	}
}

func TestReleaseDestroys(t *testing.T) {
	c := MustNew(nil, TimeShare, "c", Attributes{})
	if err := c.Release(); err != nil {
		t.Fatal(err)
	}
	if !c.Destroyed() {
		t.Fatal("container should be destroyed")
	}
	if err := c.Release(); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("double release: want ErrDestroyed, got %v", err)
	}
	if err := c.Retain(); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("retain destroyed: want ErrDestroyed, got %v", err)
	}
	if err := c.SetParent(nil); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("SetParent on destroyed: want ErrDestroyed, got %v", err)
	}
	if err := c.SetAttributes(Attributes{}); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("SetAttributes on destroyed: want ErrDestroyed, got %v", err)
	}
}

func TestRetainPreventsDestroy(t *testing.T) {
	c := MustNew(nil, TimeShare, "c", Attributes{})
	if err := c.Retain(); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(); err != nil {
		t.Fatal(err)
	}
	if c.Destroyed() {
		t.Fatal("container destroyed while references remain")
	}
	if err := c.Release(); err != nil {
		t.Fatal(err)
	}
	if !c.Destroyed() {
		t.Fatal("container should be destroyed at zero refs")
	}
}

func TestDestroyParentOrphansChildren(t *testing.T) {
	p := mustTop(t, "p", Attributes{})
	kid, _ := New(p, TimeShare, "kid", Attributes{})
	if err := p.Release(); err != nil {
		t.Fatal(err)
	}
	// §4.6: if the parent P of a container C is destroyed, C's parent is
	// set to "no parent."
	if kid.Parent() != nil {
		t.Fatal("child should be orphaned")
	}
	if kid.Destroyed() {
		t.Fatal("child must survive parent destruction")
	}
}

func TestDestroyDetachesFromParent(t *testing.T) {
	p := mustTop(t, "p", Attributes{})
	kid, _ := New(p, TimeShare, "kid", Attributes{})
	if err := kid.Release(); err != nil {
		t.Fatal(err)
	}
	if len(p.Children()) != 0 {
		t.Fatal("destroyed child still attached to parent")
	}
}

func TestNewWithDestroyedParent(t *testing.T) {
	p := mustTop(t, "p", Attributes{})
	_ = p.Release()
	if _, err := New(p, TimeShare, "kid", Attributes{}); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("want ErrDestroyed, got %v", err)
	}
}

func TestChargeCPUPropagates(t *testing.T) {
	root := mustTop(t, "root", Attributes{})
	mid, _ := New(root, FixedShare, "mid", Attributes{})
	leaf, _ := New(mid, TimeShare, "leaf", Attributes{})
	leaf.ChargeCPU(UserCPU, 3*sim.Millisecond, nil)
	leaf.ChargeCPU(KernelCPU, 2*sim.Millisecond, nil)
	for _, c := range []*Container{leaf, mid, root} {
		u := c.Usage()
		if u.CPUUser != 3*sim.Millisecond || u.CPUKernel != 2*sim.Millisecond {
			t.Fatalf("%s usage %+v", c, u)
		}
		if u.CPU() != 5*sim.Millisecond {
			t.Fatalf("%s total CPU %v", c, u.CPU())
		}
	}
}

func TestChargeCPUNegativePanics(t *testing.T) {
	c := MustNew(nil, TimeShare, "c", Attributes{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.ChargeCPU(UserCPU, -1, nil)
}

func TestChargePackets(t *testing.T) {
	root := mustTop(t, "root", Attributes{})
	leaf, _ := New(root, TimeShare, "leaf", Attributes{})
	leaf.ChargePacketIn(1500)
	leaf.ChargePacketOut(512)
	leaf.ChargeDrop()
	u := root.Usage()
	if u.PacketsIn != 1 || u.BytesIn != 1500 || u.PacketsOut != 1 || u.BytesOut != 512 || u.PacketsDropped != 1 {
		t.Fatalf("root usage %+v", u)
	}
}

func TestChargeMemoryLimit(t *testing.T) {
	root := mustTop(t, "root", Attributes{MemLimit: 1000})
	leaf, _ := New(root, TimeShare, "leaf", Attributes{})
	if err := leaf.ChargeMemory(800); err != nil {
		t.Fatal(err)
	}
	if err := leaf.ChargeMemory(300); !errors.Is(err, ErrMemLimit) {
		t.Fatalf("want ErrMemLimit, got %v", err)
	}
	// Failed charge must have no effect.
	if leaf.Usage().Memory != 800 || root.Usage().Memory != 800 {
		t.Fatalf("partial charge applied: leaf=%d root=%d", leaf.Usage().Memory, root.Usage().Memory)
	}
	if err := leaf.ChargeMemory(-800); err != nil {
		t.Fatal(err)
	}
	if leaf.Usage().Memory != 0 {
		t.Fatal("release not applied")
	}
}

func TestChargeMemoryClampsAtZero(t *testing.T) {
	c := MustNew(nil, TimeShare, "c", Attributes{})
	if err := c.ChargeMemory(-100); err != nil {
		t.Fatal(err)
	}
	if c.Usage().Memory != 0 {
		t.Fatalf("memory went negative: %d", c.Usage().Memory)
	}
}

func TestWalk(t *testing.T) {
	root := mustTop(t, "root", Attributes{})
	a, _ := New(root, FixedShare, "a", Attributes{})
	_, _ = New(a, TimeShare, "a1", Attributes{})
	_, _ = New(root, TimeShare, "b", Attributes{})
	var names []string
	root.Walk(func(c *Container) { names = append(names, c.Name()) })
	want := "root a a1 b"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("Walk order %q, want %q", got, want)
	}
}

func TestQoSWeightDefault(t *testing.T) {
	c := MustNew(nil, TimeShare, "c", Attributes{})
	if c.QoSWeight() != 1.0 {
		t.Fatalf("default QoS weight %v, want 1", c.QoSWeight())
	}
	c2 := MustNew(nil, TimeShare, "c2", Attributes{QoSWeight: 2.5})
	if c2.QoSWeight() != 2.5 {
		t.Fatalf("QoS weight %v, want 2.5", c2.QoSWeight())
	}
}

func TestLimitFrac(t *testing.T) {
	flat := MustNew(nil, FixedShare, "flat", Attributes{Limit: 0.3})
	if f := flat.LimitFrac(); f != 0.3 {
		t.Fatalf("flat LimitFrac %v, want 0.3", f)
	}
	root := MustNew(nil, FixedShare, "root", Attributes{})
	group := MustNew(root, FixedShare, "group", Attributes{Limit: 0.5})
	mid := MustNew(group, FixedShare, "mid", Attributes{})
	leaf := MustNew(mid, FixedShare, "leaf", Attributes{Limit: 0.2})
	if f := leaf.LimitFrac(); f != 0.1 {
		t.Fatalf("nested LimitFrac %v, want 0.2×0.5 = 0.1 past unlimited ancestors", f)
	}
	if f := mid.LimitFrac(); f != 0 {
		t.Fatalf("LimitFrac %v without an own limit, want 0", f)
	}
}

// Property: charging a leaf always leaves every ancestor's total CPU equal
// to the sum of the charges made beneath it.
func TestChargeConservationProperty(t *testing.T) {
	f := func(charges []uint16) bool {
		root := MustNew(nil, FixedShare, "root", Attributes{})
		mid := MustNew(root, FixedShare, "mid", Attributes{})
		leafA := MustNew(mid, TimeShare, "a", Attributes{})
		leafB := MustNew(mid, TimeShare, "b", Attributes{})
		var total sim.Duration
		for i, ch := range charges {
			d := sim.Duration(ch) * sim.Microsecond
			if i%2 == 0 {
				leafA.ChargeCPU(UserCPU, d, nil)
			} else {
				leafB.ChargeCPU(KernelCPU, d, nil)
			}
			total += d
		}
		return root.Usage().CPU() == total &&
			mid.Usage().CPU() == total &&
			leafA.Usage().CPU()+leafB.Usage().CPU() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: any sequence of Retain/Release keeps refs consistent and only
// destroys at zero.
func TestRefcountProperty(t *testing.T) {
	f := func(ops []bool) bool {
		c := MustNew(nil, TimeShare, "c", Attributes{})
		refs := 1
		for _, retain := range ops {
			if retain {
				if err := c.Retain(); err != nil {
					return c.Destroyed() && refs == 0
				}
				refs++
			} else {
				err := c.Release()
				if refs == 0 {
					if !errors.Is(err, ErrDestroyed) {
						return false
					}
					continue
				}
				if err != nil {
					return false
				}
				refs--
			}
			if (refs == 0) != c.Destroyed() {
				return false
			}
			if !c.Destroyed() && c.Refs() != refs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
