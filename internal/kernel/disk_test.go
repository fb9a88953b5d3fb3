package kernel

import (
	"testing"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

func TestDiskSingleRead(t *testing.T) {
	eng, k := newKernel(ModeRC)
	c := rc.MustNew(nil, rc.TimeShare, "c", rc.Attributes{Priority: 5})
	var doneAt sim.Time
	if !k.Disk().Read(c, 64*1024, func() { doneAt = eng.Now() }) {
		t.Fatal("read rejected")
	}
	eng.Run()
	want := DiskSeek + 64*DiskPerKiB
	if doneAt != sim.Time(want) {
		t.Fatalf("read finished at %v, want %v", doneAt, want)
	}
	u := c.Usage()
	if u.DiskReads != 1 || u.DiskBytes != 64*1024 || u.DiskTime != want {
		t.Fatalf("disk accounting %+v", u)
	}
}

func TestDiskAccountingPropagates(t *testing.T) {
	eng, k := newKernel(ModeRC)
	parent := rc.MustNew(nil, rc.FixedShare, "p", rc.Attributes{})
	leaf := rc.MustNew(parent, rc.TimeShare, "l", rc.Attributes{Priority: 1})
	k.Disk().Read(leaf, 1024, nil)
	eng.Run()
	if parent.Usage().DiskReads != 1 || parent.Usage().DiskBytes != 1024 {
		t.Fatalf("parent disk usage %+v", parent.Usage())
	}
}

func TestDiskPriorityOrder(t *testing.T) {
	eng, k := newKernel(ModeRC)
	hi := rc.MustNew(nil, rc.TimeShare, "hi", rc.Attributes{Priority: 20})
	lo := rc.MustNew(nil, rc.TimeShare, "lo", rc.Attributes{Priority: 1})
	var order []string
	// First read occupies the head; the next two queue and are reordered
	// by priority even though the low one arrived first.
	k.Disk().Read(lo, 1024, func() { order = append(order, "first") })
	k.Disk().Read(lo, 1024, func() { order = append(order, "lo") })
	k.Disk().Read(hi, 1024, func() { order = append(order, "hi") })
	eng.Run()
	if len(order) != 3 || order[1] != "hi" || order[2] != "lo" {
		t.Fatalf("service order %v, want [first hi lo]", order)
	}
}

func TestDiskFIFOWithoutContainers(t *testing.T) {
	eng, k := newKernel(ModeUnmodified)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.Disk().Read(nil, 1024, func() { order = append(order, i) })
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("unmodified disk should be FIFO: %v", order)
		}
	}
}

func TestDiskQoSWeightedSharing(t *testing.T) {
	// Two equal-priority activities with QoS weights 1 and 3 keeping the
	// disk saturated: served bytes split ~1:3 (§4.4 disk bandwidth
	// allocation).
	eng, k := newKernel(ModeRC)
	light := rc.MustNew(nil, rc.TimeShare, "light", rc.Attributes{Priority: 5, QoSWeight: 1})
	heavy := rc.MustNew(nil, rc.TimeShare, "heavy", rc.Attributes{Priority: 5, QoSWeight: 3})
	d := k.Disk()
	var submit func(c *rc.Container)
	submit = func(c *rc.Container) {
		d.Read(c, 8*1024, func() { submit(c) }) // always one pending per flow
	}
	// Two outstanding per flow keeps the queue contested.
	submit(light)
	submit(light)
	submit(heavy)
	submit(heavy)
	eng.RunUntil(sim.Time(20 * sim.Second))
	lt, ht := light.Usage().DiskTime, heavy.Usage().DiskTime
	ratio := float64(ht) / float64(lt)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("disk service ratio %.2f, want ~3", ratio)
	}
}

func TestDiskQueueLimit(t *testing.T) {
	_, k := newKernel(ModeRC)
	c := rc.MustNew(nil, rc.TimeShare, "c", rc.Attributes{Priority: 1})
	accepted := 0
	for i := 0; i < DiskQueueLimit+10; i++ {
		if k.Disk().Read(c, 1024, nil) {
			accepted++
		}
	}
	// One request is in service plus a full queue.
	if accepted != DiskQueueLimit+1 {
		t.Fatalf("accepted %d, want %d", accepted, DiskQueueLimit+1)
	}
	if c.Usage().PacketsDropped != 9 {
		t.Fatalf("drops %d, want 9", c.Usage().PacketsDropped)
	}
}

func TestDiskOverlapsCPU(t *testing.T) {
	// DMA: the CPU does other work while the disk seeks.
	eng, k := newKernel(ModeRC)
	c := rc.MustNew(nil, rc.TimeShare, "c", rc.Attributes{Priority: 1})
	p := k.NewProcess("app")
	th := p.NewThread("t")
	var cpuDone, diskDone sim.Time
	k.Disk().Read(c, 1024, func() { diskDone = eng.Now() })
	th.PostFunc("compute", 5*sim.Millisecond, rc.UserCPU, c, func() { cpuDone = eng.Now() })
	eng.Run()
	if cpuDone != sim.Time(5*sim.Millisecond) {
		t.Fatalf("CPU work delayed by disk: done at %v", cpuDone)
	}
	if diskDone >= sim.Time(9*sim.Millisecond) {
		t.Fatalf("disk did not overlap: done at %v", diskDone)
	}
}
