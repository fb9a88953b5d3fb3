package httpsim

import (
	"fmt"

	"rescon/internal/kernel"
	"rescon/internal/rc"
	"rescon/internal/sim"
)

// FastCGIPool is a set of persistent CGI server processes (§2: "the newer
// FastCGI allows persistent CGI processes"). Instead of forking per
// request, the Web server dispatches dynamic requests to pool workers.
// With resource containers, the connection's container is passed to the
// worker process explicitly (§4.8: "...or explicitly, when persistent
// CGI server processes are used"), so the worker's processing for that
// request is charged to the request's activity even though the worker is
// a long-lived separate protection domain.
type FastCGIPool struct {
	k       *kernel.Kernel
	srv     *Server
	workers []*fcgiWorker
	queue   []*fcgiJob

	// Served counts completed dynamic requests.
	Served uint64
}

type fcgiWorker struct {
	proc   *kernel.Process
	thread *kernel.Thread
	busy   bool
}

type fcgiJob struct {
	conn *kernel.Conn
	req  *Request
	// cont is the request's container, passed explicitly to the worker.
	cont *rc.Container
}

// DispatchCost is the IPC cost of handing a request to a pool worker,
// substantially cheaper than a fork (UserCGIDispatchCost).
const DispatchCost = 50 * sim.Microsecond

// NewFastCGIPool creates n persistent worker processes for the server.
func NewFastCGIPool(srv *Server, n int) (*FastCGIPool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("httpsim: pool size %d", n)
	}
	p := &FastCGIPool{k: srv.k, srv: srv}
	for i := 0; i < n; i++ {
		proc, err := srv.proc.Fork(fmt.Sprintf("%s-fcgi-%d", srv.cfg.Name, i))
		if err != nil {
			return nil, err
		}
		p.workers = append(p.workers, &fcgiWorker{
			proc:   proc,
			thread: proc.NewThread("worker"),
		})
	}
	srv.fcgi = p
	return p, nil
}

// dispatch hands a dynamic request to an idle worker or queues it.
func (p *FastCGIPool) dispatch(conn *kernel.Conn, req *Request) {
	var cont *rc.Container
	if p.srv.rcMode() {
		// The request's activity container: a child of the CGI sandbox
		// when one is configured, else the connection's own container.
		if p.srv.cfg.CGIParent != nil {
			c, err := rc.New(p.srv.cfg.CGIParent, rc.TimeShare, "fcgi-req",
				rc.Attributes{Priority: kernel.DefaultPriority})
			if err == nil {
				cont = c
			}
		}
		if cont == nil {
			cont = conn.Container()
		}
	}
	job := &fcgiJob{conn: conn, req: req, cont: cont}
	for _, w := range p.workers {
		if !w.busy {
			p.run(w, job)
			return
		}
	}
	p.queue = append(p.queue, job)
}

// run executes a job on a worker. The container travels with the job:
// the worker's thread assumes the request's resource binding for the
// duration of the computation.
func (p *FastCGIPool) run(w *fcgiWorker, job *fcgiJob) {
	w.busy = true
	desc := rc.Desc(-1)
	if p.srv.rcMode() && job.cont != nil {
		// Explicit container passing between protection domains (§4.6):
		// the server opens the container in the worker's descriptor
		// table; the worker binds its thread to it for the duration of
		// the job and closes the descriptor when done.
		if d, err := w.proc.ContainerHandle(job.cont); err == nil {
			desc = d
			_ = w.proc.BindThread(w.thread, d)
		}
	}
	w.thread.PostFunc("fcgi-compute", job.req.CGICPU, rc.UserCPU, job.cont, func() {
		job.conn.Send(w.thread, job.req.Size, job.cont, func() {
			if job.req.OnResponse != nil {
				job.req.OnResponse(p.k.Now())
			}
		})
		w.thread.PostFunc("fcgi-finish", 1, rc.KernelCPU, job.cont, func() {
			p.srv.closeConn(job.conn)
			if desc >= 0 {
				_ = w.proc.ReleaseContainer(desc)
			}
			if p.srv.rcMode() && job.cont != nil && job.cont != job.conn.Container() {
				_ = job.cont.Release()
			}
			p.Served++
			w.busy = false
			p.next(w)
		})
	})
}

func (p *FastCGIPool) next(w *fcgiWorker) {
	if len(p.queue) == 0 {
		return
	}
	job := p.queue[0]
	p.queue[0] = nil
	p.queue = p.queue[1:]
	p.run(w, job)
}

// QueueLen returns the number of requests waiting for a worker.
func (p *FastCGIPool) QueueLen() int { return len(p.queue) }

// Idle returns the number of idle workers.
func (p *FastCGIPool) Idle() int {
	n := 0
	for _, w := range p.workers {
		if !w.busy {
			n++
		}
	}
	return n
}

// CPUTime sums the pool processes' CPU consumption.
func (p *FastCGIPool) CPUTime() sim.Duration {
	var total sim.Duration
	for _, w := range p.workers {
		total += w.proc.CPUTime()
	}
	return total
}
