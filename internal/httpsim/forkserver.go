package httpsim

import (
	"fmt"

	"rescon/internal/kernel"
	"rescon/internal/rc"
)

// ForkServer is the process-per-connection server of paper §2 Fig. 1: a
// master process accepts connections and passes them to pre-forked
// worker processes (the NCSA httpd architecture), each handling one
// connection at a time.
//
// Because every connection gets a whole process, this is the one
// architecture where traditional process-granular mechanisms can express
// per-client policy at all: NicePriority maps client classes to process
// nice values, reproducing the Almeida et al. approach the paper
// discusses in §6 — and its limitation, since nice only affects
// user-level scheduling, not kernel-mode protocol processing.
type ForkServer struct {
	cfg     Config
	k       *kernel.Kernel
	master  *kernel.Process
	masterT *kernel.Thread
	workers []*forkWorker
	backlog []*kernel.Conn

	// NicePriority maps a client address to the worker process's nice
	// value for that connection (positive = yield CPU). Nil means 0.
	NicePriority func(a kernel.Address) int

	// Stats
	StaticServed uint64
}

type forkWorker struct {
	proc   *kernel.Process
	thread *kernel.Thread
	busy   bool
}

// NewForkServer creates a master with n pre-forked workers.
func NewForkServer(cfg Config, n int) (*ForkServer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("httpsim: worker count %d", n)
	}
	s := &ForkServer{cfg: cfg, k: cfg.Kernel}
	s.master = s.k.NewProcess(cfg.Name + "-master")
	for i := 0; i < n; i++ {
		proc, err := s.master.Fork(fmt.Sprintf("%s-w%d", cfg.Name, i))
		if err != nil {
			return nil, err
		}
		s.workers = append(s.workers, &forkWorker{
			proc:   proc,
			thread: proc.NewThread("main"),
		})
	}
	_, err := s.k.Listen(s.master, kernel.ListenConfig{
		Local:        cfg.Addr,
		OnAcceptable: func(ls *kernel.ListenSocket) { s.accept(ls) },
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Master returns the master process.
func (s *ForkServer) Master() *kernel.Process { return s.master }

// WorkerCPU sums the workers' CPU consumption.
func (s *ForkServer) WorkerCPU() (total map[string]float64) {
	total = make(map[string]float64)
	for _, w := range s.workers {
		total[w.proc.Name()] = w.proc.CPUTime().Seconds()
	}
	return total
}

func (s *ForkServer) rcMode() bool { return s.k.Mode() == kernel.ModeRC }

// accept pops the connection in the master and hands it to an idle
// worker (Fig. 1: "a master process accepts new connections and passes
// them to the pre-forked worker processes").
func (s *ForkServer) accept(ls *kernel.ListenSocket) {
	// The master's accept work runs in its own (tiny) process.
	mThread := s.masterThread()
	var cont *rc.Container
	if s.rcMode() {
		cont = s.master.DefaultContainer
	}
	mThread.PostFunc("accept", kernel.ConnSetupCost, rc.KernelCPU, cont, func() {
		conn, ok := ls.Accept()
		if !ok {
			return
		}
		s.dispatch(conn)
	})
}

func (s *ForkServer) masterThread() *kernel.Thread {
	if s.masterT == nil {
		s.masterT = s.master.NewThread("acceptor")
	}
	return s.masterT
}

// dispatch assigns the connection to an idle worker or queues it.
func (s *ForkServer) dispatch(conn *kernel.Conn) {
	for _, w := range s.workers {
		if !w.busy {
			s.serveOn(w, conn)
			return
		}
	}
	s.backlog = append(s.backlog, conn)
}

// serveOn attaches the connection to the worker for its lifetime.
func (s *ForkServer) serveOn(w *forkWorker, conn *kernel.Conn) {
	w.busy = true
	// Per-client nice: the process-priority QoS mapping of [1].
	if s.NicePriority != nil {
		w.proc.Principal.Nice = s.NicePriority(conn.Client())
	} else {
		w.proc.Principal.Nice = 0
	}
	// With containers, the connection's container simply travels to the
	// worker: inheritance across protection domains (§4.8). Per-connection
	// containers replace it with a fresh one first.
	s.cfg.newConnContainer(conn, nil)
	conn.SetOnRequest(func(c *kernel.Conn, payload any) {
		req, ok := payload.(*Request)
		if !ok {
			return
		}
		s.serveRequest(w, c, req)
	})
}

func (s *ForkServer) serveRequest(w *forkWorker, conn *kernel.Conn, req *Request) {
	if conn.Closed() {
		s.release(w, conn)
		return
	}
	var cont *rc.Container
	if s.rcMode() {
		cont = conn.Container()
	}
	cost := kernel.UserStaticCost
	if req.Kind != Static {
		cost = req.CGICPU
	}
	w.thread.PostFunc("serve", cost, rc.UserCPU, cont, func() {
		conn.Send(w.thread, req.Size, cont, func() {
			if req.OnResponse != nil {
				req.OnResponse(s.k.Now())
			}
		})
		s.StaticServed++
		if req.CloseAfter {
			s.release(w, conn)
		}
	})
}

// release tears the connection down and gives the worker its next one.
func (s *ForkServer) release(w *forkWorker, conn *kernel.Conn) {
	if !conn.Closed() {
		cc := conn.Container()
		conn.Close()
		s.cfg.releaseConnContainer(cc, s.master.DefaultContainer)
	}
	w.busy = false
	for len(s.backlog) > 0 {
		next := s.backlog[0]
		s.backlog[0] = nil
		s.backlog = s.backlog[1:]
		if !next.Closed() {
			s.serveOn(w, next)
			return
		}
	}
}
