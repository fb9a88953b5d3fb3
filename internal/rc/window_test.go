package rc

import (
	"testing"

	"rescon/internal/sim"
)

func TestWindow(t *testing.T) {
	t.Run("join mid-window excludes earlier charges", func(t *testing.T) {
		var w Window
		root := MustNew(nil, FixedShare, "root", Attributes{})
		leaf := MustNew(root, TimeShare, "leaf", Attributes{Priority: 1})
		leaf.ChargeCPU(UserCPU, 3*sim.Millisecond, &w)
		w.Join(root)
		leaf.ChargeCPU(KernelCPU, 2*sim.Millisecond, &w)
		if got := w.Usage(root); got != 2*sim.Millisecond {
			t.Fatalf("window usage %v, want the 2ms charged after the join", got)
		}
		w.Join(root) // a second join keeps the snapshot
		if got := w.Usage(root); got != 2*sim.Millisecond {
			t.Fatalf("window usage %v after a second join, want 2ms", got)
		}
		if got := w.Usage(leaf); got != 0 {
			t.Fatalf("unjoined container reads %v, want 0", got)
		}
	})
	t.Run("roll with no charge reads 0", func(t *testing.T) {
		var w Window
		c := MustNew(nil, FixedShare, "c", Attributes{})
		w.Join(c)
		c.ChargeCPU(UserCPU, 4*sim.Millisecond, &w)
		w.Roll()
		if got := w.Usage(c); got != 0 {
			t.Fatalf("window usage %v after a roll, want 0", got)
		}
	})
	t.Run("late first charge after a roll is exact", func(t *testing.T) {
		var w Window
		root := MustNew(nil, FixedShare, "root", Attributes{})
		leaf := MustNew(root, TimeShare, "leaf", Attributes{Priority: 1})
		w.Join(root)
		w.Join(leaf)
		leaf.ChargeCPU(UserCPU, 5*sim.Millisecond, &w)
		w.Roll()
		w.Roll()
		leaf.ChargeCPU(UserCPU, sim.Millisecond, &w)
		leaf.ChargeCPU(KernelCPU, sim.Millisecond, &w)
		for _, c := range []*Container{root, leaf} {
			if got := w.Usage(c); got != 2*sim.Millisecond {
				t.Fatalf("%s: window usage %v, want 2ms", c.Name(), got)
			}
		}
	})
}
