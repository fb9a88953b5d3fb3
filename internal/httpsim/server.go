package httpsim

import (
	"errors"
	"fmt"
	"strconv"

	"rescon/internal/kernel"
	"rescon/internal/netsim"
	"rescon/internal/rc"
	"rescon/internal/sim"
	"rescon/internal/trace"
)

// connContainerName names the per-connection container of connection
// id, "conn-<id>", formatting into a stack buffer so the string itself is
// the only allocation.
func connContainerName(id uint64) string {
	var buf [32]byte
	return string(strconv.AppendUint(append(buf[:0], "conn-"...), id, 10))
}

// API selects the event-notification interface the server uses (§5.5).
type API int

const (
	// SelectAPI models select(): each call scans the full interest set
	// (cost linear in open descriptors) and the application handles the
	// returned batch in descriptor order, not priority order.
	SelectAPI API = iota
	// EventAPI models the scalable event API of [5]: constant-cost event
	// retrieval, and with resource containers the kernel returns events
	// in container-priority order.
	EventAPI
)

// String names the API.
func (a API) String() string {
	if a == SelectAPI {
		return "select()"
	}
	return "event API"
}

// Config configures an event-driven server.
type Config struct {
	Kernel *kernel.Kernel
	Name   string
	Addr   netsim.Addr
	API    API

	// PerConnContainers creates one resource container per connection
	// (§4.8), priority from ConnPriority. ModeRC only.
	PerConnContainers bool
	// ConnPriority maps a client address to the numeric priority of its
	// connection container; nil means kernel.DefaultPriority.
	ConnPriority func(netsim.Addr) int
	// ContainerOpsPerRequest additionally pays the Table-1 syscall costs
	// for the per-request container churn (create + rebind + destroy),
	// the §5.4 overhead experiment.
	ContainerOpsPerRequest bool
	// CGIParent, when set, parents every CGI request container (the
	// "resource sandbox" of §5.6). ModeRC only.
	CGIParent *rc.Container
	// Parent, when set, parents every per-connection container (virtual
	// server / guest configurations, §5.8). ModeRC only.
	Parent *rc.Container
	// CacheContainer, when set, is charged for the memory of documents
	// this server faults into the filesystem cache; its MemLimit is the
	// server's cache quota (§4.4). Defaults to Parent, then the process
	// default container.
	CacheContainer *rc.Container
	// OnSynDrop is the application's notification when the kernel drops
	// a connection request because of queue overflow — the modified
	// kernel's SYN-flood signal (§5.7).
	OnSynDrop func(src netsim.Addr)
}

// Validate reports whether the configuration can produce a working
// server: a kernel to live in and a usable listen endpoint. NewServer,
// NewMTServer and NewForkServer call it, so a broken config surfaces as
// an error at construction instead of a panic deep in the kernel.
func (cfg Config) Validate() error {
	if cfg.Kernel == nil {
		return errors.New("httpsim: Config.Kernel is nil")
	}
	if cfg.Addr.IP == 0 || cfg.Addr.Port == 0 {
		return fmt.Errorf("httpsim: Config.Addr %v is not a usable endpoint", cfg.Addr)
	}
	return nil
}

// event is one pending notification in the application. Records come
// from the server's free list (newEvent) and go back to it once the last
// reference is dropped: an accept event when it is handled, a request
// event when its response is delivered or handed to a CGI or module
// handler. Records on abnormal paths (a closed connection, a disk error,
// Shutdown) are left to the garbage collector.
type event struct {
	s *Server
	// accept event when ls != nil, request event otherwise.
	ls   *kernel.ListenSocket
	conn *kernel.Conn
	req  *Request
	seq  uint64
	fd   int
	// next resumes the event loop once a static request's synchronous
	// work is done.
	next func()
	// staticDone and delivered are the record's static-request
	// callbacks, bound once when the record is allocated.
	staticDone, delivered func()
}

// Server is the single-process event-driven server (Fig. 2/10).
type Server struct {
	cfg    Config
	k      *kernel.Kernel
	proc   *kernel.Process
	thread *kernel.Thread
	ls     *kernel.ListenSocket

	pending   []*event
	free      []*event
	nextSeq   uint64
	openConns int
	busy      bool
	down      bool
	listeners []*kernel.ListenSocket
	fcgi      *FastCGIPool

	// The event loop's callbacks, bound once: the getevent completion,
	// the end of a cycle, and the connection upcalls.
	pollDone, cycleDone func()
	onRequest           func(*kernel.Conn, any)
	onPeerClose         func(*kernel.Conn)

	// Stats
	StaticServed uint64
	CGIServed    uint64
	CGIActive    int
	// DiskErrors counts requests shed because an injected disk media
	// error made the response impossible.
	DiskErrors uint64
	cgiLive    map[*kernel.Process]bool
	cgiCPUDone sim.Duration
}

// CGICPU returns the total CPU consumed by the server's CGI processes so
// far, including processes still running (Fig. 13's y axis).
func (s *Server) CGICPU() sim.Duration {
	total := s.cgiCPUDone
	for p := range s.cgiLive {
		total += p.CPUTime()
	}
	return total
}

// NewServer creates and binds the server. The returned server is running:
// it reacts to kernel upcalls as soon as the simulation delivers them.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Name == "" {
		cfg.Name = "httpd"
	}
	s := &Server{cfg: cfg, k: cfg.Kernel}
	s.pollDone, s.cycleDone = s.polled, s.endCycle
	s.onRequest, s.onPeerClose = s.request, s.connClosed
	s.proc = s.k.NewProcess(cfg.Name)
	s.thread = s.proc.NewThread("main")
	var err error
	s.ls, err = s.listen(netsim.Wildcard, nil)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Process returns the server's process.
func (s *Server) Process() *kernel.Process { return s.proc }

// ListenSocket returns the server's default listening socket.
func (s *Server) ListenSocket() *kernel.ListenSocket { return s.ls }

// AddListener binds an additional (typically filtered) listening socket
// with its own container — the §4.8/§5.7 mechanism.
func (s *Server) AddListener(filter netsim.Filter, cont *rc.Container) (*kernel.ListenSocket, error) {
	return s.listen(filter, cont)
}

func (s *Server) listen(filter netsim.Filter, cont *rc.Container) (*kernel.ListenSocket, error) {
	ls, err := s.k.Listen(s.proc, kernel.ListenConfig{
		Local:        s.cfg.Addr,
		Filter:       filter,
		Container:    cont,
		OnAcceptable: s.acceptable,
		OnSynDrop:    s.cfg.OnSynDrop,
	})
	if err != nil {
		return nil, err
	}
	s.listeners = append(s.listeners, ls)
	return ls, nil
}

// Shutdown crash-stops the server worker: every listening socket is
// unbound (subsequent SYNs go unanswered), every open connection is torn
// down (in-flight requests die and their clients time out), and the
// process exits. It models the abrupt death of a worker for the
// resilience experiments — pair it with fault.StartCrasher and recover
// by constructing a fresh server. Down servers ignore further events.
func (s *Server) Shutdown() {
	if s.down {
		return
	}
	s.down = true
	s.k.Tracer.Emitf(s.k.Now(), trace.KindCrash, "server %s crash-stopped", s.cfg.Name)
	for _, ls := range s.listeners {
		ls.Close()
	}
	s.k.CloseConnsOf(s.proc)
	s.pending = nil
	s.proc.Exit()
}

// Down reports whether the server has been crash-stopped.
func (s *Server) Down() bool { return s.down }

// newEvent takes an event record from the free list, or allocates one.
func (s *Server) newEvent() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	ev := &event{s: s}
	ev.staticDone, ev.delivered = ev.static, ev.onDelivered
	return ev
}

// releaseEvent clears an event record and returns it to the free list.
// The caller must hold the last reference to it.
func (s *Server) releaseEvent(ev *event) {
	*ev = event{s: s, staticDone: ev.staticDone, delivered: ev.delivered}
	s.free = append(s.free, ev)
}

// acceptable is the listen-socket upcall for a connection entering the
// accept queue.
func (s *Server) acceptable(ls *kernel.ListenSocket) {
	ev := s.newEvent()
	ev.ls = ls
	s.post(ev)
}

// request is the connection upcall for an arriving request.
func (s *Server) request(c *kernel.Conn, payload any) {
	req, ok := payload.(*Request)
	if !ok {
		return
	}
	ev := s.newEvent()
	ev.conn, ev.req, ev.fd = c, req, c.FD()
	s.post(ev)
}

// post records a pending application event and starts the main loop if it
// is idle.
func (s *Server) post(ev *event) {
	if s.down {
		return
	}
	ev.seq = s.nextSeq
	s.nextSeq++
	s.pending = append(s.pending, ev)
	s.loop()
}

// defaultContainer is the charge target for work not yet attributable to
// a connection.
func (s *Server) defaultContainer() *rc.Container { return s.proc.DefaultContainer }

func (s *Server) rcMode() bool { return s.k.Mode() == kernel.ModeRC }

// loop drives the event-handling cycle when the server has work and is
// not already in one.
func (s *Server) loop() {
	if s.busy || len(s.pending) == 0 {
		return
	}
	s.busy = true
	switch s.cfg.API {
	case SelectAPI:
		s.selectCycle()
	default:
		s.pollCycle()
	}
}

// selectCycle: one select() call, then handle the returned batch in fd
// order.
func (s *Server) selectCycle() {
	costs := s.k.Costs()
	cost := costs.SelectBase + sim.Duration(s.openConns+1)*costs.SelectPerFD
	s.thread.PostFunc("select", cost, rc.KernelCPU, s.defaultContainer(), func() {
		batch := s.pending
		s.pending = nil
		// select() reports readiness as a bitmap, so the application
		// scans and handles the batch in descriptor order — this loss of
		// priority information is the inefficiency "inherent in the
		// semantics of the select() API" that §5.5 measures and the new
		// event API removes.
		sortEvents(batch)
		s.runBatch(batch, 0)
	})
}

func sortEvents(evs []*event) {
	// Insertion sort by (fd, arrival): batches are small and this keeps
	// ordering stable and allocation-free.
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0; j-- {
			a, b := evs[j-1], evs[j]
			if a.fd > b.fd || (a.fd == b.fd && a.seq > b.seq) {
				evs[j-1], evs[j] = b, a
			} else {
				break
			}
		}
	}
}

func (s *Server) runBatch(batch []*event, i int) {
	if i >= len(batch) {
		s.busy = false
		s.loop()
		return
	}
	s.handle(batch[i], func() { s.runBatch(batch, i+1) })
}

// pollCycle: one event-API call returning the single best event. With
// resource containers the kernel orders events by container priority;
// without them it is FIFO.
func (s *Server) pollCycle() {
	s.thread.PostFunc("getevent", s.k.Costs().EventPoll, rc.KernelCPU, s.defaultContainer(), s.pollDone)
}

// polled handles the event a getevent call returned.
func (s *Server) polled() {
	ev := s.takeBest()
	if ev == nil {
		s.busy = false
		return
	}
	s.handle(ev, s.cycleDone)
}

// endCycle ends an event-API cycle and starts the next if work is
// pending.
func (s *Server) endCycle() {
	s.busy = false
	s.loop()
}

// takeBest removes and returns the pending event to handle next. It
// zeroes the slot it vacates, so s.pending never aliases a recycled
// record.
func (s *Server) takeBest() *event {
	if len(s.pending) == 0 {
		return nil
	}
	best := 0
	if s.rcMode() {
		for i := 1; i < len(s.pending); i++ {
			if s.eventPriority(s.pending[i]) > s.eventPriority(s.pending[best]) {
				best = i
			}
		}
	}
	ev := s.pending[best]
	n := len(s.pending)
	copy(s.pending[best:], s.pending[best+1:])
	s.pending[n-1] = nil
	s.pending = s.pending[:n-1]
	return ev
}

func (s *Server) eventPriority(ev *event) int {
	var c *rc.Container
	if ev.ls != nil {
		c = ev.ls.Container()
	} else if ev.conn != nil {
		c = ev.conn.Container()
	}
	if c == nil {
		return 0
	}
	return c.EffectivePriority()
}

// handle dispatches one event and calls next when its synchronous work
// completes (response transmission continues asynchronously).
func (s *Server) handle(ev *event, next func()) {
	if ev.ls != nil {
		ls := ev.ls
		s.releaseEvent(ev)
		s.handleAccept(ls, next)
		return
	}
	s.handleRequest(ev, next)
}

func (s *Server) handleAccept(ls *kernel.ListenSocket, next func()) {
	costs := s.k.Costs()
	cost := costs.ConnSetup
	if s.rcMode() && s.cfg.PerConnContainers && s.cfg.ContainerOpsPerRequest {
		// create container + bind socket + (later) destroy: Table 1 costs.
		cost += costs.ContainerCreate + costs.ContainerRebind + costs.ContainerDestroy
	}
	s.thread.PostFunc("accept", cost, rc.KernelCPU, ls.Container(), func() {
		conn, ok := ls.Accept()
		if !ok || conn.Closed() {
			// Nothing to accept, or the client closed the connection
			// while it waited in the accept queue.
			next()
			return
		}
		s.openConns++
		if s.rcMode() && s.cfg.PerConnContainers {
			prio := kernel.DefaultPriority
			if s.cfg.ConnPriority != nil {
				prio = s.cfg.ConnPriority(conn.Client())
			} else if ls.Container() != nil {
				// Inherit the listening socket's priority class.
				prio = ls.Container().EffectivePriority()
			}
			cc, err := rc.New(s.cfg.Parent, rc.TimeShare,
				connContainerName(conn.ID()), rc.Attributes{Priority: prio})
			if err == nil {
				conn.SetContainer(cc)
			}
		}
		conn.SetOnPeerClose(s.onPeerClose)
		conn.SetOnRequest(s.onRequest)
		next()
	})
}

func (s *Server) handleRequest(ev *event, next func()) {
	conn, req := ev.conn, ev.req
	if conn.Closed() {
		next()
		return
	}
	switch req.Kind {
	case CGI:
		s.releaseEvent(ev)
		s.handleCGI(conn, req, next)
	case Module:
		s.releaseEvent(ev)
		s.handleModule(conn, req, next)
	default:
		ev.next = next
		s.thread.PostFunc("static", s.k.Costs().UserStatic, rc.UserCPU, conn.Container(), ev.staticDone)
	}
}

// handleModule serves a dynamic resource with an in-process library
// module (ISAPI/NSAPI style, §2). No fault isolation, no process switch:
// the server "simply binds its thread to the appropriate container"
// (§4.8), so the dynamic computation is charged to the request's
// activity.
func (s *Server) handleModule(conn *kernel.Conn, req *Request, next func()) {
	s.thread.PostFunc("module", req.CGICPU, rc.UserCPU, conn.Container(), func() {
		conn.Send(s.thread, req.Size, conn.Container(), func() {
			if req.OnResponse != nil {
				req.OnResponse(s.k.Now())
			}
		})
		if req.CloseAfter {
			s.closeConn(conn)
		}
		s.CGIServed++
		next()
	})
}

// static serves a static request once its user-level CPU has been paid.
func (ev *event) static() {
	s, conn, req, next := ev.s, ev.conn, ev.req, ev.next
	ev.next = nil
	if req.Path != "" {
		// Named document: consult the filesystem cache. Cache memory is
		// charged to the guest (or server) container; the disk time of a
		// miss to the connection's activity (§4.4).
		memC := s.cfg.CacheContainer
		if memC == nil {
			memC = s.cfg.Parent
		}
		if memC == nil {
			memC = s.defaultContainer()
		}
		s.k.FileCache().Read(req.Path, req.Size, conn.Container(), memC, func() {
			if !conn.Closed() {
				ev.respond()
			}
		})
		next()
		return
	}
	if !req.Uncached {
		ev.respond()
		next()
		return
	}
	// A cache miss: the document comes off the disk, DMA overlapping with
	// other CPU work; the disk time is charged to the connection's
	// container (§4.4). The event loop moves on and the response is sent
	// when the read completes.
	ok := s.k.Disk().ReadWithError(conn.Container(), req.Size, func() {
		if !conn.Closed() {
			ev.respond()
		}
	}, func() {
		// Injected media error: the response cannot be produced, so shed
		// the request now instead of leaving the client to time out
		// against a silent server.
		s.DiskErrors++
		s.closeConn(conn)
	})
	if !ok {
		// Disk queue overflow: the request is dropped (the client will
		// time out), as an overloaded server would shed it.
		s.closeConn(conn)
	}
	next()
}

// respond sends a static request's response.
func (ev *event) respond() {
	s, conn, req := ev.s, ev.conn, ev.req
	conn.Send(s.thread, req.Size, conn.Container(), ev.delivered)
	if req.CloseAfter {
		s.closeConn(conn)
	}
	s.StaticServed++
}

// onDelivered runs when a static response reaches the client: the
// record's last use, so it goes back to the free list first.
func (ev *event) onDelivered() {
	s, req := ev.s, ev.req
	s.releaseEvent(ev)
	if req.OnResponse != nil {
		req.OnResponse(s.k.Now())
	}
}

// closeConn tears down the connection and releases its server state
// (the teardown CPU cost is part of ConnSetup).
func (s *Server) closeConn(conn *kernel.Conn) {
	if conn.Closed() {
		return
	}
	conn.Close()
	s.connClosed(conn)
}

// connClosed releases the server state of a closed connection: its
// descriptor in the open count and any per-connection container. It is
// also the upcall for a connection the client closes.
func (s *Server) connClosed(conn *kernel.Conn) {
	s.openConns--
	if cc := conn.Container(); s.rcMode() && s.cfg.PerConnContainers && cc != nil && cc != s.defaultContainer() {
		_ = cc.Release()
	}
}

func (s *Server) handleCGI(conn *kernel.Conn, req *Request, next func()) {
	if s.fcgi != nil {
		// Persistent CGI servers: a cheap IPC dispatch instead of a fork.
		s.thread.PostFunc("fcgi-dispatch", DispatchCost, rc.UserCPU, conn.Container(), func() {
			s.fcgi.dispatch(conn, req)
			next()
		})
		return
	}
	costs := s.k.Costs()
	s.thread.PostFunc("cgi-dispatch", costs.UserCGIDispatch, rc.UserCPU, conn.Container(), func() {
		s.spawnCGI(conn, req)
		next()
	})
}

// spawnCGI runs the dynamic request in an auxiliary process, with its
// container parented under CGIParent when sandboxing is configured
// (§4.8: "pass the connection's container to the CGI process").
func (s *Server) spawnCGI(conn *kernel.Conn, req *Request) {
	proc, err := s.proc.Fork(s.cfg.Name + "-cgi")
	if err != nil {
		return
	}
	if s.cgiLive == nil {
		s.cgiLive = make(map[*kernel.Process]bool)
	}
	s.cgiLive[proc] = true
	var cont *rc.Container
	if s.rcMode() {
		cont, err = rc.New(s.cfg.CGIParent, rc.TimeShare, "cgi-req",
			rc.Attributes{Priority: kernel.DefaultPriority})
		if err != nil {
			cont = conn.Container()
		}
	}
	s.CGIActive++
	th := proc.NewThread("cgi")
	th.PostFunc("cgi-compute", req.CGICPU, rc.UserCPU, cont, func() {
		conn.Send(th, req.Size, cont, func() {
			if req.OnResponse != nil {
				req.OnResponse(s.k.Now())
			}
		})
		// Allow the send work to complete before the process exits.
		th.PostFunc("cgi-exit", 1, rc.KernelCPU, cont, func() {
			s.closeConn(conn)
			s.CGIServed++
			s.CGIActive--
			if cont != nil && cont != conn.Container() {
				_ = cont.Release()
			}
			s.cgiCPUDone += proc.CPUTime()
			delete(s.cgiLive, proc)
			proc.Exit()
		})
	})
}
