package httpsim_test

import (
	"testing"

	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/sim"
)

// keepAliveRig is an RC-mode kernel running an event-API server that
// gives every connection its own container (§4.8), with one established
// keep-alive connection and one reusable request whose response callback
// is bound once.
type keepAliveRig struct {
	eng       *sim.Engine
	k         *kernel.Kernel
	src       kernel.Address
	conn      *kernel.Conn
	req       *httpsim.Request
	delivered uint64
}

func newKeepAliveRig(tb testing.TB) *keepAliveRig {
	tb.Helper()
	eng, k := newSim(kernel.ModeRC)
	srv, err := httpsim.NewServer(httpsim.Config{
		Kernel: k, Name: "httpd", Addr: srvAddr, API: httpsim.EventAPI,
		PerConnContainers: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	r := &keepAliveRig{eng: eng, k: k, src: kernel.Addr("10.1.0.1", 1025)}
	r.req = httpsim.StaticRequest(false, func(sim.Time) { r.delivered++ })
	k.ClientSend(kernel.ConnectPacket(r.src, srvAddr, func(c *kernel.Conn) { r.conn = c }))
	eng.RunUntil(eng.Now().Add(10 * sim.Millisecond))
	if r.conn == nil || srv.ListenSocket().Accepted() != 1 {
		tb.Fatal("the keep-alive connection was not established and accepted")
	}
	if r.conn.Container() == nil || r.conn.Container().Name() != "conn-1" {
		tb.Fatal("the connection has no per-connection container")
	}
	// Warm the free lists and queues the steady state reuses.
	for i := 0; i < 16; i++ {
		r.serve()
	}
	return r
}

// serve sends one request on the connection and runs the simulation
// until its response has been delivered.
func (r *keepAliveRig) serve() {
	want := r.delivered + 1
	r.k.ClientSend(kernel.DataPacket(r.src, srvAddr, r.conn.ID(), 512, r.req))
	for r.delivered < want {
		if !r.eng.Step() {
			panic("simulation ran dry before the response was delivered")
		}
	}
}

// The steady-state keep-alive request path — wire, interrupt, early
// demux, protocol queue, getevent, static handler, send, delivery — must
// not allocate: every per-request record is recycled by its owner.
func TestServeKeepAliveRequestNoAllocs(t *testing.T) {
	r := newKeepAliveRig(t)
	before := r.delivered
	const runs = 500
	allocs := testing.AllocsPerRun(runs, r.serve)
	// AllocsPerRun makes one warm-up call before the measured runs.
	if got := r.delivered - before; got != runs+1 {
		t.Fatalf("%d responses delivered, want %d", got, runs+1)
	}
	if allocs != 0 {
		t.Fatalf("keep-alive request path allocates %.2f objects/op, want 0", allocs)
	}
}

// BenchmarkServeKeepAliveRequest measures one request on an established
// keep-alive connection through the RC kernel and the event-API server,
// from the client's packet to the delivered response. Guarded by
// benchjson as a pinned hot path.
func BenchmarkServeKeepAliveRequest(b *testing.B) {
	r := newKeepAliveRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.serve()
	}
}
