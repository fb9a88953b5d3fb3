package httpsim

import (
	"fmt"

	"rescon/internal/kernel"
	"rescon/internal/rc"
)

// MTServer is the single-process multi-threaded server of Fig. 3/9: a
// pool of kernel threads, each connection assigned to one thread for its
// lifetime. With resource containers, the application sets each thread's
// resource binding to the connection's container, so "if a particular
// connection consumes a lot of system resources, this consumption is
// charged to the resource container" (§4.8).
type MTServer struct {
	cfg     Config
	k       *kernel.Kernel
	proc    *kernel.Process
	workers []*kernel.Thread
	nextRR  int

	// Stats
	StaticServed uint64
	openConns    int
	// onPeerClose is connClosed, bound once.
	onPeerClose func(*kernel.Conn)
}

// NewMTServer creates a multi-threaded server with the given pool size.
func NewMTServer(cfg Config, threads int) (*MTServer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Name == "" {
		cfg.Name = "httpd"
	}
	if threads <= 0 {
		return nil, fmt.Errorf("httpsim: pool size %d", threads)
	}
	s := &MTServer{cfg: cfg, k: cfg.Kernel}
	s.onPeerClose = s.connClosed
	s.proc = s.k.NewProcess(cfg.Name)
	for i := 0; i < threads; i++ {
		s.workers = append(s.workers, s.proc.NewThread(fmt.Sprintf("worker-%d", i)))
	}
	if _, err := s.k.Listen(s.proc, kernel.ListenConfig{
		Local:        cfg.Addr,
		OnAcceptable: func(ls *kernel.ListenSocket) { s.accept(ls) },
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// Process returns the server's process.
func (s *MTServer) Process() *kernel.Process { return s.proc }

// OpenConns returns the number of live connections.
func (s *MTServer) OpenConns() int { return s.openConns }

// accept assigns the new connection to a pool thread ("idle threads
// accept new connections from the listening socket").
func (s *MTServer) accept(ls *kernel.ListenSocket) {
	th := s.workers[s.nextRR%len(s.workers)]
	s.nextRR++
	th.PostFunc("accept", kernel.ConnSetupCost, rc.KernelCPU, ls.Container(), func() {
		conn, ok := ls.Accept()
		if !ok || conn.Closed() {
			return
		}
		s.openConns++
		s.cfg.newConnContainer(conn, ls.Container())
		conn.SetOnPeerClose(s.onPeerClose)
		conn.SetOnRequest(func(c *kernel.Conn, payload any) {
			req, ok := payload.(*Request)
			if !ok {
				return
			}
			s.serve(th, c, req)
		})
	})
}

// serve runs the request on the connection's dedicated thread, charged to
// the connection's container. Static documents cost UserStatic; dynamic
// resources (Module/CGI kinds) run in-process on the connection's thread
// — the natural fit for the thread-per-connection architecture, where
// the thread is already bound to the activity (§4.8, Fig. 9).
func (s *MTServer) serve(th *kernel.Thread, conn *kernel.Conn, req *Request) {
	if conn.Closed() {
		return
	}
	cost := kernel.UserStaticCost
	label := "static"
	if req.Kind != Static {
		cost = req.CGICPU
		label = "dynamic"
	}
	th.PostFunc(label, cost, rc.UserCPU, conn.Container(), func() {
		conn.Send(th, req.Size, conn.Container(), func() {
			if req.OnResponse != nil {
				req.OnResponse(s.k.Now())
			}
		})
		if req.CloseAfter {
			s.close(conn)
		}
		s.StaticServed++
	})
}

func (s *MTServer) close(conn *kernel.Conn) {
	if conn.Closed() {
		return
	}
	conn.Close()
	s.connClosed(conn)
}

// connClosed releases the server state of a closed connection; it is
// also the upcall for a connection the client closes.
func (s *MTServer) connClosed(conn *kernel.Conn) {
	s.openConns--
	s.cfg.releaseConnContainer(conn.Container(), s.proc.DefaultContainer)
}
