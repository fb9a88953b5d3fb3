package kernel

import (
	"testing"

	"rescon/internal/netsim"
	"rescon/internal/rc"
	"rescon/internal/sim"
	"rescon/internal/telemetry"
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
	syn *netsim.Packet
}

func newFloodRig(tb testing.TB) *floodRig {
	tb.Helper()
	eng, k := newKernel(ModeRC)
	k.AttachTelemetry(telemetry.New(telemetry.Config{}))
	p := k.NewProcess("httpd")
	server := rc.MustNew(nil, rc.TimeShare, "server", rc.Attributes{Priority: DefaultPriority})
	p.NewThread("busy").PostFunc("spin", 1000*sim.Second, rc.UserCPU, server, nil)
	flood := rc.MustNew(nil, rc.TimeShare, "flood", rc.Attributes{Priority: 0})
	ls, err := k.Listen(p, ListenConfig{Local: srvAddr, Container: flood})
	if err != nil {
		tb.Fatal(err)
	}
	r := &floodRig{eng: eng, k: k, ls: ls, syn: SYNPacket(client(7), srvAddr, true)}
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
	for r.k.cpu.inIntr {
		r.eng.Step()
	}
}

// The per-packet path of a flood must not allocate: the trace ring keeps
// packet events unformatted, interrupt work is queued by value with its
// completion bound once per CPU, and protocol work is queued by value.
func TestBogusSYNDropNoAllocs(t *testing.T) {
	r := newFloodRig(t)
	before := r.ls.SynDrops()
	const runs = 2000
	allocs := testing.AllocsPerRun(runs, r.arrive)
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
