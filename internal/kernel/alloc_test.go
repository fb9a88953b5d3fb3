package kernel

import (
	"fmt"
	"testing"

	"rescon/internal/netsim"
	"rescon/internal/rc"
	"rescon/internal/sim"
	"rescon/internal/telemetry"
	"rescon/internal/trace"
)

// floodRig is an RC-mode kernel at the worst point of a SYN flood (§5.7):
// the flood's priority-0 listen container has a full protocol backlog and
// a busy server thread holds the CPU, so every further bogus SYN takes the
// whole interrupt → early demux → backlog-full drop path. Telemetry is
// attached, so every packet is also traced and profiled.
type floodRig struct {
	eng *sim.Engine
	k   *Kernel
	ls  *ListenSocket
	src netsim.Addr
	syn *netsim.Packet
}

func newFloodRig(tb testing.TB) *floodRig {
	tb.Helper()
	eng, k := newKernel(ModeRC)
	k.AttachTelemetry(telemetry.New())
	p := k.NewProcess("httpd")
	server := rc.MustNew(nil, rc.TimeShare, "server", rc.Attributes{Priority: DefaultPriority})
	p.NewThread("busy").PostFunc("spin", 1000*sim.Second, rc.UserCPU, server, nil)
	flood := rc.MustNew(nil, rc.TimeShare, "flood", rc.Attributes{Priority: 0})
	ls, err := k.Listen(p, ListenConfig{Local: srvAddr, Container: flood})
	if err != nil {
		tb.Fatal(err)
	}
	r := &floodRig{eng: eng, k: k, ls: ls, src: client(7)}
	r.syn = SYNPacket(r.src, srvAddr, true)
	for i := 0; i < DefaultNetBacklog+64; i++ {
		r.arrive()
	}
	if got := p.NetBacklog(); got != DefaultNetBacklog {
		tb.Fatalf("flood backlog %d, want it full at %d", got, DefaultNetBacklog)
	}
	return r
}

// arrive delivers the pre-built flood SYN and runs the engine until its
// interrupt work has completed.
func (r *floodRig) arrive() {
	r.k.Arrive(r.syn)
	r.drain()
}

// arriveBuilt is arrive with the SYN built for the call, as a flood
// generator does: Arrive copies the packet, so it stays on the stack.
func (r *floodRig) arriveBuilt() {
	r.k.Arrive(SYNPacket(r.src, srvAddr, true))
	r.drain()
}

// drain runs the engine until the interrupt work in progress completes.
func (r *floodRig) drain() {
	for r.k.cpu.inIntr {
		r.eng.Step()
	}
}

// The per-packet path of a flood must not allocate: the trace ring keeps
// packet events unformatted, interrupt work and its packet are queued by
// value with the completion bound once per CPU, and protocol work is
// queued by value.
func TestBogusSYNDropNoAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		arrive func(*floodRig)
	}{
		{"prebuilt", (*floodRig).arrive},
		{"built-per-call", (*floodRig).arriveBuilt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newFloodRig(t)
			before := r.ls.SynDrops()
			const runs = 2000
			allocs := testing.AllocsPerRun(runs, func() { tc.arrive(r) })
			// AllocsPerRun makes one warm-up call before the measured runs.
			if got := r.ls.SynDrops() - before; got != runs+1 {
				t.Fatalf("%d SYNs dropped at demux, want every one of %d", got, runs+1)
			}
			if allocs != 0 {
				t.Fatalf("bogus SYN arrive→demux→drop allocates %.2f objects/op, want 0", allocs)
			}
			if r.k.Tracer.Total() == 0 {
				t.Fatal("the flood was not traced")
			}
		})
	}
}

// BenchmarkBogusSYNDrop measures one flood SYN through the RC kernel's
// interrupt, early demultiplexing and backlog-full drop, with telemetry
// and tracing attached. Guarded by benchjson as a pinned hot path.
func BenchmarkBogusSYNDrop(b *testing.B) {
	r := newFloodRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.arrive()
	}
}

// profileRig is an RC-mode kernel with telemetry attached whose profile
// already holds profiledConns per-connection containers, each charged
// one CPU slice: the steady state of a long run that gives every
// connection its own container (§4.8).
type profileRig struct {
	k     *Kernel
	th    *Thread
	conns []*rc.Container
	item  WorkItem
}

const profiledConns = 10_000

func newProfileRig(tb testing.TB) *profileRig {
	tb.Helper()
	_, k := newKernel(ModeRC)
	k.AttachTelemetry(telemetry.New())
	r := &profileRig{k: k, th: k.NewProcess("httpd").NewThread("worker")}
	r.item = WorkItem{Label: "serve", Kind: rc.UserCPU, Stage: trace.StageUser}
	for i := 0; i < profiledConns; i++ {
		c := rc.MustNew(nil, rc.TimeShare, fmt.Sprintf("conn-%d", i), rc.Attributes{Priority: DefaultPriority})
		r.conns = append(r.conns, c)
		r.charge(c)
	}
	return r
}

// charge accounts one 10µs slice of the rig's thread running on behalf
// of c.
func (r *profileRig) charge(c *rc.Container) {
	r.item.Container = c
	r.k.cpu.chargeSlice(r.th, &r.item, 10*sim.Microsecond, r.k.Now())
}

// Charging a CPU slice to a container the profile has already seen must
// not allocate or touch a string-keyed map, however many per-connection
// containers the profile holds: the row is reached through the slot the
// container caches.
func TestChargeSliceProfiledConnNoAllocs(t *testing.T) {
	r := newProfileRig(t)
	c := r.conns[profiledConns/2]
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, func() { r.charge(c) })
	if allocs != 0 {
		t.Fatalf("charging a slice to a profiled container allocates %.2f objects/op, want 0", allocs)
	}
	// One slice from setup, the warm-up call and the measured runs.
	if got, want := r.k.Telemetry().StageCPU(c.Name(), trace.StageUser), (runs+2)*10*sim.Microsecond; got != want {
		t.Fatalf("profile cell %s/user = %v, want %v", c.Name(), got, want)
	}
}

// BenchmarkChargeSlice10kConns measures one CPU slice's accounting —
// container, scheduler and virtual-CPU profile — charged to one of 10k
// already-profiled per-connection containers. Guarded by benchjson as a
// pinned hot path.
func BenchmarkChargeSlice10kConns(b *testing.B) {
	r := newProfileRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.charge(r.conns[i%profiledConns])
	}
}
