package kernel

import (
	"errors"
	"fmt"

	"rescon/internal/netsim"
	"rescon/internal/rc"
	"rescon/internal/sched"
	"rescon/internal/sim"
	"rescon/internal/trace"
)

// DefaultSynBacklog is the listen-socket embryonic (SYN) queue length.
const DefaultSynBacklog = 1024

// DefaultAcceptBacklog is the listen-socket accept queue length.
const DefaultAcceptBacklog = 128

// DefaultNetBacklog bounds the per-container (RC) or per-process (LRP)
// pending protocol queue; packets beyond it are dropped at demux time.
const DefaultNetBacklog = 1024

// BogusSynTimeout is how long a bogus embryonic connection occupies a
// SYN-queue slot before the retransmit timer gives up on it.
const BogusSynTimeout = 100 * sim.Millisecond

// SocketBufferBytes is the kernel memory charged to a connection's
// container for its socket buffers (§4.4: resources other than CPU —
// here protocol buffer memory — are charged to the correct activity).
// Connections whose container subtree is at its memory limit are
// refused at SYN time.
const SocketBufferBytes = 16 * 1024

// ErrProcessExited is returned for operations on an exited process.
var ErrProcessExited = errors.New("kernel: process has exited")

// network is the kernel's TCP/IP subsystem state.
type network struct {
	demux  netsim.Demux
	conns  *connTable
	socks  []*ListenSocket // creation order, for telemetry sampling
	nextID uint64
	// established and closed count connection lifecycle transitions for
	// the conservation invariant: every connection ever established is
	// either still open or has been closed exactly once, so
	// established == closed + open at all times.
	established uint64
	closed      uint64
}

func newNetwork() *network {
	return &network{conns: newConnTable()}
}

// ListenConfig configures a listening socket.
type ListenConfig struct {
	Local  netsim.Addr
	Filter netsim.Filter
	// Container is the resource container bound to the socket (§4.6);
	// connection-request processing for this socket is charged to it.
	// Required in ModeRC, ignored otherwise.
	Container *rc.Container
	// SynBacklog and AcceptBacklog default to the kernel constants.
	SynBacklog    int
	AcceptBacklog int
	// OnAcceptable fires when a new connection enters the accept queue.
	OnAcceptable func(*ListenSocket)
	// OnSynDrop fires when a SYN is dropped because of queue overflow —
	// the kernel modification of §5.7 that lets the application detect a
	// SYN flood and install a filter.
	OnSynDrop func(src netsim.Addr)
}

// ListenSocket is a listening socket, possibly filtered (§4.8).
type ListenSocket struct {
	k       *Kernel
	proc    *Process
	cfg     ListenConfig
	lis     *netsim.Listener
	synQ    *netsim.Queue[sim.Time] // bogus embryonic slots (expiry times)
	acceptQ *netsim.Queue[*Conn]
	// container is the socket's resource binding.
	container *rc.Container
	synDrops  uint64
	accepted  uint64
	// pendingSYN counts legitimate connection requests admitted at demux
	// but not yet through protocol processing; together with the accept
	// queue it bounds the per-socket channel, so early drops happen
	// before protocol effort is invested (LRP's bounded channels).
	pendingSYN int
	closed     bool
	// name is the socket's principal name, built once at Listen.
	name string
}

// Listen binds a listening socket for the process.
func (k *Kernel) Listen(p *Process, cfg ListenConfig) (*ListenSocket, error) {
	if p.exited {
		return nil, ErrProcessExited
	}
	if cfg.SynBacklog <= 0 {
		cfg.SynBacklog = DefaultSynBacklog
	}
	if cfg.AcceptBacklog <= 0 {
		cfg.AcceptBacklog = DefaultAcceptBacklog
	}
	if k.mode == ModeRC && cfg.Container == nil {
		cfg.Container = p.DefaultContainer
	}
	ls := &ListenSocket{
		k:         k,
		proc:      p,
		cfg:       cfg,
		synQ:      netsim.NewQueue[sim.Time](cfg.SynBacklog),
		acceptQ:   netsim.NewQueue[*Conn](cfg.AcceptBacklog),
		container: cfg.Container,
		name:      "listen:" + cfg.Local.String(),
	}
	ls.lis = &netsim.Listener{Local: cfg.Local, Filter: cfg.Filter, Owner: ls}
	if err := k.net.demux.Add(ls.lis); err != nil {
		return nil, err
	}
	k.net.socks = append(k.net.socks, ls)
	p.ensureNetThread()
	return ls, nil
}

// ensureNetThread creates the per-process kernel network thread used by
// the LRP and RC execution models (§4.7).
func (p *Process) ensureNetThread() {
	if p.k.mode == ModeUnmodified || p.netThread != nil {
		return
	}
	p.netQ = newPktQueue(p.k)
	p.netThread = p.NewThread("knet")
	p.netThread.source = p.netQ
	if p.k.mode == ModeRC && !p.k.ImplicitNetBinding {
		// The network thread's scheduling class tracks exactly the
		// containers with pending protocol work (§4.7): pending traffic
		// for only a priority-0 container leaves the thread in the idle
		// class, with no staleness window.
		p.netQ.set = sched.NewPendingSet(p.netThread.ent)
	}
}

// ListenSockets returns every listening socket ever bound on the
// kernel, in creation order (the same order telemetry samples them).
// Closed sockets remain in the list so cumulative counters (SynDrops)
// stay observable; filter with Closed as needed.
func (k *Kernel) ListenSockets() []*ListenSocket { return k.net.socks }

// Addr returns the socket's local endpoint.
func (ls *ListenSocket) Addr() netsim.Addr { return ls.cfg.Local }

// Name returns the socket's principal name, "listen:" and its local
// endpoint: the telemetry timeline principal and alert target for the
// socket.
func (ls *ListenSocket) Name() string { return ls.name }

// AcceptCap returns the accept-queue capacity.
func (ls *ListenSocket) AcceptCap() int { return ls.acceptQ.Cap() }

// Closed reports whether the socket has been closed.
func (ls *ListenSocket) Closed() bool { return ls.closed }

// Container returns the socket's resource binding.
func (ls *ListenSocket) Container() *rc.Container { return ls.container }

// SetContainer rebinds the socket to a container (§4.6 "binding a socket
// or file to a container").
func (ls *ListenSocket) SetContainer(c *rc.Container) { ls.container = c }

// SynDrops returns how many SYNs the socket has dropped.
func (ls *ListenSocket) SynDrops() uint64 { return ls.synDrops }

// dropSYN counts a connection request from src as dropped and notifies
// the application (§5.7's SYN-flood signal).
func (ls *ListenSocket) dropSYN(src netsim.Addr) {
	ls.synDrops++
	if ls.cfg.OnSynDrop != nil {
		ls.cfg.OnSynDrop(src)
	}
}

// expireSyns releases embryonic slots whose retransmit timer has expired.
func (ls *ListenSocket) expireSyns(now sim.Time) {
	for {
		head := ls.synQ.Peek()
		if head == nil || head.After(now) {
			return
		}
		ls.synQ.Pop()
	}
}

// EmbryonicCount returns the occupied SYN-queue slots (after expiry).
func (ls *ListenSocket) EmbryonicCount() int {
	ls.expireSyns(ls.k.Now())
	return ls.synQ.Len()
}

// Accepted returns how many connections have been accepted.
func (ls *ListenSocket) Accepted() uint64 { return ls.accepted }

// Pending returns the number of connections waiting in the accept queue.
func (ls *ListenSocket) Pending() int { return ls.acceptQ.Len() }

// Accept pops an established connection from the accept queue. The
// syscall's CPU cost (ConnSetupCost) is the caller's to account —
// servers post it as a work item in whose completion they call Accept.
func (ls *ListenSocket) Accept() (*Conn, bool) {
	c, ok := ls.acceptQ.Pop()
	if ok {
		ls.accepted++
	}
	return c, ok
}

// AcceptBatch pops up to len(dst) established connections from the
// accept queue into dst and returns how many it delivered — batched
// event delivery for servers draining a deep accept backlog in one
// syscall's worth of bookkeeping.
func (ls *ListenSocket) AcceptBatch(dst []*Conn) int {
	n := ls.acceptQ.PopInto(dst)
	ls.accepted += uint64(n)
	return n
}

// Close unbinds the socket.
func (ls *ListenSocket) Close() {
	if ls.closed {
		return
	}
	ls.closed = true
	ls.k.net.demux.Remove(ls.lis)
	for {
		if _, ok := ls.acceptQ.Pop(); !ok {
			break
		}
	}
}

// Conn is one established connection.
type Conn struct {
	k      *Kernel
	id     uint64
	fd     int
	client netsim.Addr
	ls     *ListenSocket
	proc   *Process
	// container is the connection's resource binding: protocol processing
	// for the connection is charged to it (ModeRC).
	container *rc.Container
	// OnRequest is the application's upcall when a request arrives on the
	// connection; the application schedules its own work in response.
	// Requests arriving before the handler is installed are buffered and
	// delivered by SetOnRequest (the kernel socket buffer).
	OnRequest func(*Conn, any)
	pending   []any
	// onPeerClose is the application's upcall when the client closes the
	// connection; see SetOnPeerClose.
	onPeerClose func(*Conn)
	closed      bool
	// memHolder is the container charged for the connection's socket
	// buffers at admission time; the charge is released on Close.
	memHolder *rc.Container
}

// SetOnRequest installs the request upcall and drains any buffered
// requests that arrived before the server finished accepting.
func (c *Conn) SetOnRequest(fn func(*Conn, any)) {
	c.OnRequest = fn
	for len(c.pending) > 0 && c.OnRequest != nil && !c.closed {
		payload := c.pending[0]
		c.pending = c.pending[1:]
		c.OnRequest(c, payload)
	}
}

// SetOnPeerClose installs the upcall that tells the application the
// client has closed the connection (its FIN has been processed), so the
// application can release what it holds for the connection. A close the
// application makes itself, with Close, does not fire it.
func (c *Conn) SetOnPeerClose(fn func(*Conn)) { c.onPeerClose = fn }

// ID returns the kernel connection identifier.
func (c *Conn) ID() uint64 { return c.id }

// FD returns the application-visible descriptor number; select()-style
// servers handle ready events in ascending FD order.
func (c *Conn) FD() int { return c.fd }

// Client returns the peer address.
func (c *Conn) Client() netsim.Addr { return c.client }

// Process returns the owning process.
func (c *Conn) Process() *Process { return c.proc }

// Container returns the connection's resource binding.
func (c *Conn) Container() *rc.Container { return c.container }

// SetContainer rebinds the connection's descriptor to a container
// (§4.6); subsequent kernel processing for the connection is charged to
// it.
func (c *Conn) SetContainer(rcc *rc.Container) { c.container = rcc }

// Closed reports whether the connection has been torn down.
func (c *Conn) Closed() bool { return c.closed }

// Close tears the connection down. The teardown CPU cost is part of
// ConnSetupCost, accounted by the server's accept/close work items.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.k.Tracer.Enabled(trace.KindConn) {
		var name string
		if c.container != nil {
			name = c.container.Name()
		}
		c.k.Tracer.Emit(trace.Event{
			At: c.k.Now(), Kind: trace.KindConn, CPU: -1,
			Principal: name, Conn: c.id, Detail: "closed",
		})
	}
	if c.memHolder != nil && !c.memHolder.Destroyed() {
		_ = c.memHolder.ChargeMemory(-SocketBufferBytes)
	}
	c.k.net.conns.remove(c.id, c.k.net.nextID)
	c.k.net.closed++
}

// Send transmits a response of the given size on the connection: the
// send-side protocol cost runs in syscall context on the calling thread
// (charged to chargeTo), then the response reaches the client one wire
// delay later.
func (c *Conn) Send(t *Thread, size int, chargeTo *rc.Container, onDelivered func()) {
	if c.closed {
		return
	}
	if chargeTo != nil {
		chargeTo.ChargePacketOut(size)
	}
	item := c.k.newItem()
	item.Label, item.Cost, item.Kind = "send", SendProtocolCost, rc.KernelCPU
	item.Stage, item.Container, item.onDelivered = trace.StageSocket, chargeTo, onDelivered
	t.post(item)
}

// ClientSend injects a packet from the client network: it reaches the
// server NIC one wire delay from now, unless an attached Faults injector
// drops, duplicates, delays or reorders it (§3.2's "degraded network"
// conditions made reproducible). The packet is copied, so the caller may
// reuse it.
func (k *Kernel) ClientSend(pkt *netsim.Packet) {
	if k.Faults != nil {
		// Fault-injected deliveries keep their own events, since a delay
		// takes them out of wire order, and share one copy of the packet.
		p := *pkt
		deliveries := k.Faults.WireFate(&p)
		if len(deliveries) == 0 {
			k.Tracer.Emitf(k.Now(), trace.KindFault, "wire fault: lost %s", p.Header())
			return
		}
		for i, extra := range deliveries {
			if i > 0 {
				k.Tracer.Emitf(k.Now(), trace.KindFault, "wire fault: duplicated %s (+%v)", p.Header(), extra)
			} else if extra > 0 {
				k.Tracer.Emitf(k.Now(), trace.KindFault, "wire fault: delayed %s (+%v)", p.Header(), extra)
			}
			k.eng.After(WireDelay+extra, func() { k.Arrive(&p) })
		}
		return
	}
	k.wire.Push(*pkt)
	k.eng.After(WireDelay, k.wireArrive)
}

// arriveFromWire delivers the oldest packet on the wire.
func (k *Kernel) arriveFromWire() {
	pkt, _ := k.wire.Pop()
	k.Arrive(&pkt)
}

// Arrive is the NIC receive path: every packet raises an interrupt. What
// happens inside the interrupt depends on the kernel mode (§4.7). The
// packet is copied, so the caller may reuse it.
func (k *Kernel) Arrive(pkt *netsim.Packet) {
	k.Tracer.EmitPacket(trace.Event{At: k.Now(), Kind: trace.KindPacket, CPU: -1}, "%s", pkt.Header())
	switch k.mode {
	case ModeUnmodified:
		if k.Police.Enabled && pkt.Kind == netsim.SYN {
			// Emergency interrupt-level SYN throttle (see Policing): decide
			// the SYN's fate for the cost of the interrupt alone; only
			// admitted SYNs pay protocol processing.
			k.cpu.RaiseInterrupt(intrWork{
				label:           "intr+throttle",
				cost:            InterruptCost,
				chargePreempted: true,
				handler:         intrThrottle,
				pkt:             *pkt,
			})
			return
		}
		// All protocol processing at interrupt level, FIFO, charged to
		// the unlucky running principal.
		k.cpu.RaiseInterrupt(intrWork{
			label:           "intr+proto",
			cost:            InterruptCost + k.protoCost(pkt),
			chargePreempted: true,
			handler:         intrProto,
			pkt:             *pkt,
		})
	case ModeLRP, ModeRC:
		k.cpu.RaiseInterrupt(intrWork{
			label:           "intr+demux",
			cost:            InterruptCost + DemuxCost,
			chargePreempted: true,
			// Early demultiplexing identifies who the packet is for, so
			// the profile can attribute this interrupt-level work to its
			// destination instead of the preempted victim.
			deferTel: true,
			handler:  intrDemux,
			pkt:      *pkt,
		})
	}
}

// pktEvent is the structured part of a packet-fate event, attributed by
// name to the responsible container when known.
func (k *Kernel) pktEvent(kind trace.Kind, cont *rc.Container, pkt *netsim.Packet) trace.Event {
	var name string
	if cont != nil {
		name = cont.Name()
	}
	return trace.Event{At: k.Now(), Kind: kind, CPU: -1, Principal: name, Conn: pkt.ConnID}
}

// emitPkt records a packet-fate event (drop, police) whose Detail reads
// fmt.Sprintf(format, pkt); the text is rendered only if the trace is
// read.
func (k *Kernel) emitPkt(kind trace.Kind, cont *rc.Container, pkt *netsim.Packet, format string) {
	if k.Tracer.Enabled(kind) {
		k.Tracer.EmitPacket(k.pktEvent(kind, cont, pkt), format, pkt.Header())
	}
}

// emitPktOver is emitPkt for a policing decision, whose Detail also names
// the limit the backlog exceeded: fmt.Sprintf(format, limit, pkt).
func (k *Kernel) emitPktOver(kind trace.Kind, cont *rc.Container, pkt *netsim.Packet, format string, limit int) {
	if k.Tracer.Enabled(kind) {
		k.Tracer.EmitPacketInt(k.pktEvent(kind, cont, pkt), format, limit, pkt.Header())
	}
}

// protoCost returns the protocol-processing CPU cost for a packet.
func (k *Kernel) protoCost(pkt *netsim.Packet) sim.Duration {
	switch pkt.Kind {
	case netsim.SYN:
		return SYNProtocolCost
	case netsim.FIN:
		return FINProtocolCost
	default:
		return RecvProtocolCost
	}
}

// earlyDemux classifies the packet at interrupt level (LRP/RC) and queues
// it for the destination's kernel network thread, charging the
// destination container for the demux work and dropping on backlog
// overflow.
func (k *Kernel) earlyDemux(pkt *netsim.Packet) {
	proc, cont, ls := k.route(pkt)
	if k.tel != nil {
		// Deferred attribution of the interrupt+demux work (Fig 14's
		// accounting story): once the packet is classified, its interrupt
		// cost lands on the destination principal at the interrupt stage
		// and its demux cost at the IP stage — in ModeRC the destination
		// container (a flood pays for its own SYN processing), in ModeLRP
		// the destination process, and "(unmatched)" for packets no
		// socket claims.
		r := k.telUnmatched
		if k.mode == ModeRC && cont != nil {
			r = k.containerRow(cont)
		} else if proc != nil {
			r = k.tel.Resolve(&proc.profile, proc.name)
		}
		k.tel.Charge(r, trace.StageInterrupt, InterruptCost)
		k.tel.Charge(r, trace.StageIP, DemuxCost)
	}
	if proc == nil {
		return // no matching socket: packet dropped silently
	}
	if k.mode == ModeRC && cont != nil {
		cont.ChargeCPU(rc.KernelCPU, DemuxCost, k.cs.Window())
		cont.ChargePacketIn(pkt.Size)
	}
	if k.policeDemux(pkt, proc, cont, ls) {
		return
	}
	if pkt.Kind == netsim.SYN && ls != nil && !pkt.Bogus && ls.pendingSYN+ls.acceptQ.Len() >= ls.acceptQ.Cap() {
		// Excess connection requests are discarded at demultiplexing,
		// before any protocol processing is invested — LRP's "excess
		// traffic is discarded early" (§3.2), which is what keeps the
		// LRP and RC systems stable under overload.
		k.emitPkt(trace.KindDrop, cont, pkt, "early drop, accept queue full: %s")
		if cont != nil {
			cont.ChargeDrop()
		}
		ls.dropSYN(pkt.Src)
		return
	}
	if pkt.Kind == netsim.SYN && ls != nil && !pkt.Bogus {
		ls.pendingSYN++
	}
	if !proc.netQ.enqueue(&pktWork{pkt: *pkt, ls: ls, container: cont, cost: k.protoCost(pkt)}) {
		k.emitPkt(trace.KindDrop, cont, pkt, "backlog full: %s")
		if cont != nil {
			cont.ChargeDrop()
		}
		if pkt.Kind == netsim.SYN && ls != nil {
			ls.dropSYN(pkt.Src)
		}
		return
	}
	proc.netThread.Wake()
}

// throttleSYN is the unmodified kernel's emergency admission control
// (Policing with no per-process backlog to key on): the SYN has paid
// only the interrupt cost so far. When the listener's embryonic queue
// already holds more than SYNFrac× its capacity the SYN is refused here
// — shedding the flood for ~2µs/SYN instead of the ~107µs of protocol
// work that causes receive livelock. Admitted SYNs pay the normal
// protocol cost in a follow-on interrupt, so the admitted path costs
// what the fast path does.
func (k *Kernel) throttleSYN(pkt *netsim.Packet) {
	_, cont, ls := k.route(pkt)
	if ls == nil {
		return // no matching socket: packet dropped silently, as always
	}
	if limit, on := k.policeLimit(ls.synQ.Cap()); on && ls.EmbryonicCount() >= limit {
		k.policeDrop(pkt, cont, ls, "SYN throttled at interrupt level, embryonic over %d: %s", limit)
		return
	}
	k.cpu.RaiseInterrupt(intrWork{
		label:           "intr+proto",
		cost:            k.protoCost(pkt),
		chargePreempted: true,
		handler:         intrProto,
		pkt:             *pkt,
		ls:              ls,
	})
}

// policeDemux applies the admission-control policy at demultiplexing
// time: when the destination container's pending-protocol backlog is
// already long, NEW work (connection requests) is refused for the cost of
// the packet filter alone, while in-progress work (data, FIN) keeps
// flowing until the hard bound. This extends the bounded-queue drop
// accounting into an explicit policing decision keyed on per-container
// backlog — early discard of excess load (§3.2) before any protocol
// effort is invested. It reports whether the packet was discarded.
func (k *Kernel) policeDemux(pkt *netsim.Packet, proc *Process, cont *rc.Container, ls *ListenSocket) bool {
	if !k.Police.Enabled || proc.netQ == nil || pkt.Kind != netsim.SYN {
		return false
	}
	limit, on := k.policeLimit(DefaultNetBacklog)
	if !on || proc.netQ.backlogFor(cont) < limit {
		return false
	}
	k.policeDrop(pkt, cont, ls, "policed, backlog over %d: %s", limit)
	return true
}

// policeLimit returns the policing threshold for a queue of the given
// capacity: SYNFrac of it (DefaultSYNPoliceFrac when unset), at least 1.
// on is false when the fraction is 1 or more, which disables policing.
func (k *Kernel) policeLimit(capacity int) (limit int, on bool) {
	frac := k.Police.SYNFrac
	if frac <= 0 {
		frac = DefaultSYNPoliceFrac
	}
	if frac >= 1 {
		return 0, false
	}
	return max(int(frac*float64(capacity)), 1), true
}

// policeDrop refuses a connection request the policer found over limit:
// it traces the drop with format, counts it, and charges it to cont.
func (k *Kernel) policeDrop(pkt *netsim.Packet, cont *rc.Container, ls *ListenSocket, format string, limit int) {
	k.emitPktOver(trace.KindPolice, cont, pkt, format, limit)
	k.policedDrops++
	if cont != nil {
		cont.ChargeDrop()
	}
	if ls != nil {
		ls.dropSYN(pkt.Src)
	}
}

// route finds the destination process, charge container and (for SYNs)
// listening socket of a packet.
func (k *Kernel) route(pkt *netsim.Packet) (*Process, *rc.Container, *ListenSocket) {
	if pkt.Kind == netsim.SYN {
		l := k.net.demux.Match(pkt.Dst, pkt.Src.IP)
		if l == nil {
			return nil, nil, nil
		}
		ls := l.Owner.(*ListenSocket)
		return ls.proc, ls.container, ls
	}
	c := k.net.conns.lookup(pkt.ConnID)
	if c == nil || c.closed {
		return nil, nil, nil
	}
	return c.proc, c.container, c.ls
}

// protoProcess performs the protocol processing effects of a packet once
// its cost has been paid (at interrupt level in ModeUnmodified, on the
// kernel network thread otherwise). ls is pre-routed for LRP/RC; in
// unmodified mode routing happens here, "inside" the protocol work.
func (k *Kernel) protoProcess(pkt *netsim.Packet, ls *ListenSocket) {
	switch pkt.Kind {
	case netsim.SYN:
		if ls == nil {
			l := k.net.demux.Match(pkt.Dst, pkt.Src.IP)
			if l == nil {
				return
			}
			ls = l.Owner.(*ListenSocket)
		}
		k.handleSYN(pkt, ls)
	case netsim.Data:
		c := k.net.conns.lookup(pkt.ConnID)
		if c == nil || c.closed {
			return
		}
		if c.OnRequest != nil {
			c.OnRequest(c, pkt.Payload)
		} else {
			c.pending = append(c.pending, pkt.Payload)
		}
	case netsim.FIN:
		c := k.net.conns.lookup(pkt.ConnID)
		if c == nil || c.closed {
			return
		}
		c.Close()
		if c.onPeerClose != nil {
			c.onPeerClose(c)
		}
	}
}

// handleSYN establishes a connection (legit SYN) or parks a bogus SYN in
// the embryonic queue until its timeout.
func (k *Kernel) handleSYN(pkt *netsim.Packet, ls *ListenSocket) {
	if k.mode != ModeUnmodified && !pkt.Bogus && ls.pendingSYN > 0 {
		ls.pendingSYN--
	}
	if ls.closed {
		return
	}
	if pkt.Bogus {
		// A flood SYN occupies an embryonic slot until the retransmit
		// timer abandons it. Slots expire lazily: all bogus entries share
		// one timeout, so expiries leave the queue in FIFO order.
		ls.expireSyns(k.Now())
		if ls.synQ.Full() {
			k.emitPkt(trace.KindDrop, ls.container, pkt, "SYN queue full: %s")
			ls.dropSYN(pkt.Src)
			return
		}
		ls.synQ.Push(k.Now().Add(BogusSynTimeout))
		return
	}
	if ls.acceptQ.Full() {
		k.emitPkt(trace.KindDrop, ls.container, pkt, "accept queue full: %s")
		ls.dropSYN(pkt.Src)
		return
	}
	// Admission control on kernel memory (§4.4): socket buffers are
	// charged to the socket's container; a subtree at its memory limit
	// cannot accept more connections.
	var memHolder *rc.Container
	if k.mode == ModeRC && ls.container != nil {
		if err := ls.container.ChargeMemory(SocketBufferBytes); err != nil {
			if k.Tracer.Enabled(trace.KindDrop) {
				e := k.pktEvent(trace.KindDrop, ls.container, pkt)
				e.Detail = fmt.Sprintf("memory limit: %s (%v)", pkt.Header(), err)
				k.Tracer.Emit(e)
			}
			ls.container.ChargeDrop()
			ls.dropSYN(pkt.Src)
			return
		}
		memHolder = ls.container
	}
	k.net.nextID++
	conn, h := k.net.conns.alloc()
	*conn = Conn{
		k:         k,
		id:        k.net.nextID,
		fd:        int(k.net.nextID),
		client:    pkt.Src,
		ls:        ls,
		proc:      ls.proc,
		container: ls.container,
		memHolder: memHolder,
	}
	if k.Tracer.Enabled(trace.KindConn) {
		var name string
		if conn.container != nil {
			name = conn.container.Name()
		}
		k.Tracer.EmitSource(trace.Event{
			At: k.Now(), Kind: trace.KindConn, CPU: -1, Principal: name,
			Conn: conn.id,
		}, "established from %s", pkt.Src)
	}
	k.net.conns.insert(conn.id, h)
	k.net.established++
	ls.acceptQ.Push(conn)
	if ls.cfg.OnAcceptable != nil {
		ls.cfg.OnAcceptable(ls)
	}
	// The client learns about the established connection one wire delay
	// later (the SYN-ACK): a SYN may carry a client callback as payload.
	if cb, ok := pkt.Payload.(func(*Conn)); ok {
		k.eng.After(WireDelay, func() { cb(conn) })
	}
}

// ConnsEstablished returns how many connections the kernel has ever
// established.
func (k *Kernel) ConnsEstablished() uint64 { return k.net.established }

// ConnsClosed returns how many established connections have been torn
// down.
func (k *Kernel) ConnsClosed() uint64 { return k.net.closed }

// OpenConns returns the number of currently established connections.
func (k *Kernel) OpenConns() int { return k.net.conns.live }

// LookupConn returns the connection with the given id, if established.
func (k *Kernel) LookupConn(id uint64) (*Conn, bool) {
	c := k.net.conns.lookup(id)
	return c, c != nil
}

// CloseConnsOf tears down every established connection owned by the
// process — what the kernel does when a server worker crashes. The conn
// table iterates in ascending connection-id order, so crash recovery is
// deterministic.
func (k *Kernel) CloseConnsOf(p *Process) {
	var victims []*Conn
	k.net.conns.each(func(c *Conn) {
		if c.proc == p {
			victims = append(victims, c)
		}
	})
	for _, c := range victims {
		c.Close()
	}
}

// pktWork is protocol processing pending on a kernel network thread. The
// queues hold it, packet included, by value, so admitting a packet
// allocates nothing.
type pktWork struct {
	pkt netsim.Packet
	ls  *ListenSocket
	// label is empty for fresh packets (nextWork derives it from the
	// packet kind) and set for work requeued by requeueFront.
	label     string
	container *rc.Container
	cost      sim.Duration
	seq       uint64
}

// pktQueue is the per-process pending-protocol queue. In ModeRC it is
// ordered by container priority (§4.7: "the priority of these containers
// determines the order in which they are serviced"); in ModeLRP it is a
// single FIFO. Each container's backlog is bounded by DefaultNetBacklog.
type pktQueue struct {
	k *Kernel
	// queues lists a queue per container with pending work (one for the
	// whole process outside ModeRC). None is empty: a queue leaves the
	// list as it drains, and one new to the list cannot be full.
	queues []*contQueue
	// spare holds drained per-container queues for reuse, so per-
	// connection containers do not allocate a queue per burst.
	spare   []*contQueue
	nextSeq uint64
	// set, when the network thread is classed by its pending work, is
	// its scheduler binding: the non-nil containers of queues, in order.
	set *sched.PendingSet
	// cur and item are the work nextWork last handed to the network
	// thread: the thread runs one item at a time, so one slot serves
	// them all. finish is item's completion callback, bound once.
	cur    pktWork
	item   WorkItem
	finish func()
}

type contQueue struct {
	c *rc.Container
	q *netsim.Queue[pktWork]
	// servedWeighted is the QoS-normalized protocol work already done
	// for this container; among equal-priority containers the one with
	// the least weighted service goes first (§4.1 network QoS values).
	servedWeighted float64
}

func newPktQueue(k *Kernel) *pktQueue {
	pq := &pktQueue{k: k}
	pq.finish = pq.finishWork
	return pq
}

func (pq *pktQueue) queueFor(c *rc.Container) *contQueue {
	for _, cq := range pq.queues {
		if cq.c == c {
			return cq
		}
	}
	var cq *contQueue
	if n := len(pq.spare); n > 0 {
		cq = pq.spare[n-1]
		pq.spare = pq.spare[:n-1]
		*cq = contQueue{c: c, q: cq.q}
	} else {
		cq = &contQueue{c: c, q: netsim.NewQueue[pktWork](DefaultNetBacklog)}
	}
	// A new flow joins the weighted-fair service at the current virtual
	// time (the minimum of the active flows), so it neither inherits
	// past credit nor starves standing backlogs.
	for i, other := range pq.queues {
		if i == 0 || other.servedWeighted < cq.servedWeighted {
			cq.servedWeighted = other.servedWeighted
		}
	}
	pq.queues = append(pq.queues, cq)
	if pq.set != nil && c != nil {
		pq.set.Add(c)
	}
	return cq
}

// backlogFor returns the pending-protocol backlog of the container's
// queue (the whole process's queue outside ModeRC, mirroring enqueue's
// keying).
func (pq *pktQueue) backlogFor(c *rc.Container) int {
	if pq.k.mode != ModeRC {
		c = nil
	}
	for _, cq := range pq.queues {
		if cq.c == c {
			return cq.q.Len()
		}
	}
	return 0
}

// enqueue adds (a copy of) pending protocol work; it reports false when
// the backlog is full and the packet must be dropped.
func (pq *pktQueue) enqueue(w *pktWork) bool {
	w.seq = pq.nextSeq
	pq.nextSeq++
	var cq *contQueue
	if pq.k.mode == ModeRC {
		cq = pq.queueFor(w.container)
	} else {
		cq = pq.queueFor(nil) // LRP: one FIFO for the whole process
	}
	return cq.q.Push(*w)
}

// hasWork reports whether any packet is pending: no listed queue is
// empty.
func (pq *pktQueue) hasWork() bool { return len(pq.queues) > 0 }

// nextWork hands out the next pending packet: the one whose container
// has the highest priority runs first; among equal priorities the
// container with the least QoS-weighted service goes first, then arrival
// order.
// The returned item is the queue's single in-flight slot, valid until its
// OnDone runs or requeueFront takes it back.
func (pq *pktQueue) nextWork() *WorkItem {
	var best *contQueue
	bestPrio := -1
	bestWeighted := 0.0
	var bestSeq uint64
	for _, cq := range pq.queues {
		head := cq.q.Peek() // never nil: drained queues leave the list
		prio := 0
		if cq.c != nil {
			prio = cq.c.EffectivePriority()
		}
		better := best == nil || prio > bestPrio
		if !better && prio == bestPrio {
			if cq.servedWeighted != bestWeighted {
				better = cq.servedWeighted < bestWeighted
			} else {
				better = head.seq < bestSeq
			}
		}
		if better {
			best, bestPrio, bestWeighted, bestSeq = cq, prio, cq.servedWeighted, head.seq
		}
	}
	if best == nil {
		return nil
	}
	w, _ := best.q.Pop()
	weight := 1.0
	if best.c != nil {
		weight = best.c.QoSWeight()
	}
	best.servedWeighted += float64(w.cost) / weight
	if best.q.Len() == 0 {
		// Drop the drained per-container queue so that short-lived
		// per-connection containers do not accumulate.
		for i, cq := range pq.queues {
			if cq == best {
				pq.queues = append(pq.queues[:i], pq.queues[i+1:]...)
				break
			}
		}
		if pq.set != nil && best.c != nil {
			pq.set.Remove(best.c)
		}
		best.c = nil
		pq.spare = append(pq.spare, best)
	}
	cont := w.container
	if pq.k.mode != ModeRC {
		cont = nil
	}
	label := w.label
	if label == "" {
		label = protoLabel(w.pkt.Kind)
	}
	pq.cur = w
	pq.item = WorkItem{
		Label:     label,
		Cost:      w.cost,
		Kind:      rc.KernelCPU,
		Stage:     trace.StageSocket,
		Container: cont,
		OnDone:    pq.finish,
	}
	return &pq.item
}

// protoLabel names the protocol work for a packet kind.
func protoLabel(k netsim.PacketKind) string {
	switch k {
	case netsim.SYN:
		return "proto:SYN"
	case netsim.Data:
		return "proto:DATA"
	case netsim.FIN:
		return "proto:FIN"
	default:
		return "proto:" + k.String()
	}
}

// finishWork is the in-flight item's completion: the packet's protocol
// processing. The slot is released first, because the processing may
// dispatch the network thread again and refill it.
func (pq *pktQueue) finishWork() {
	pkt, ls := pq.cur.pkt, pq.cur.ls
	pq.cur = pktWork{}
	pq.k.protoProcess(&pkt, ls)
}

// topPriority returns the highest container priority among pending
// packets, or -1 when nothing is pending.
func (pq *pktQueue) topPriority() int {
	best := -1
	for _, cq := range pq.queues {
		prio := 0
		if cq.c != nil {
			prio = cq.c.EffectivePriority()
		}
		if prio > best {
			best = prio
		}
	}
	return best
}

// requeueFront parks the partially processed in-flight item back at the
// head of its container's queue, so higher-priority pending packets can
// be served first (§4.7: service strictly in container-priority order).
// The network thread gets work only from its queue, so item is always the
// one nextWork handed out.
func (pq *pktQueue) requeueFront(item *WorkItem) {
	if item != &pq.item {
		panic("kernel: requeueFront of a work item the protocol queue did not hand out")
	}
	w := pq.cur
	pq.cur = pktWork{}
	w.label, w.container, w.cost, w.seq = item.Label, item.Container, item.Cost, 0
	pq.queueFor(item.Container).q.PushFront(w)
}

// Len returns total pending packets.
func (pq *pktQueue) Len() int {
	n := 0
	for _, cq := range pq.queues {
		n += cq.q.Len()
	}
	return n
}

var _ fmt.Stringer = Mode(0)
