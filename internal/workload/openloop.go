package workload

import (
	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/metrics"
	"rescon/internal/netsim"
	"rescon/internal/sim"
)

// OpenLoopConfig configures an open-loop request generator: requests
// arrive at a fixed mean rate regardless of server progress — the load
// model that exposes receive livelock and overload collapse (§3.2,
// Mogul & Ramakrishnan [30]).
type OpenLoopConfig struct {
	Kernel *kernel.Kernel
	Src    netsim.Addr
	Dst    netsim.Addr
	// Rate is the mean request arrival rate (Poisson).
	Rate sim.Rate
	// MaxOutstanding bounds in-flight requests; arrivals beyond it are
	// refused and counted (the client gives up immediately, as S-Clients
	// do under overload). Default 64.
	MaxOutstanding int
	// Timeout abandons a request that got no response. Default 3 s.
	Timeout sim.Duration
}

// OpenLoopClient generates fixed-rate traffic.
type OpenLoopClient struct {
	cfg         OpenLoopConfig
	k           *kernel.Kernel
	eng         *sim.Engine
	rng         *sim.RNG
	nextPort    uint16
	outstanding int
	stopped     bool

	// Completions meters successful responses; Latency records their
	// response times; Refused counts arrivals dropped at the client for
	// exceeding MaxOutstanding; Abandoned counts request timeouts.
	Completions *metrics.RateMeter
	Latency     metrics.Summary
	Refused     metrics.Counter
	Abandoned   metrics.Counter
}

// StartOpenLoop launches an open-loop generator.
func StartOpenLoop(cfg OpenLoopConfig) *OpenLoopClient {
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 64
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 3 * sim.Second
	}
	c := &OpenLoopClient{
		cfg:         cfg,
		k:           cfg.Kernel,
		eng:         cfg.Kernel.Engine(),
		nextPort:    cfg.Src.Port,
		Completions: metrics.NewRateMeter(cfg.Kernel.Now()),
	}
	c.rng = c.eng.Rand().Fork(uint64(cfg.Src.IP)<<16 | uint64(cfg.Src.Port) | 0xA5A5)
	c.scheduleNext()
	return c
}

// Stop halts new arrivals; in-flight requests finish or time out.
func (c *OpenLoopClient) Stop() { c.stopped = true }

// ResetStats starts a fresh measurement window.
func (c *OpenLoopClient) ResetStats() {
	c.Completions.Restart(c.k.Now())
	c.Latency.Reset()
	c.Refused.Reset()
	c.Abandoned.Reset()
}

func (c *OpenLoopClient) scheduleNext() {
	if c.stopped {
		return
	}
	gap := c.rng.Exp(c.cfg.Rate.Interval())
	c.eng.After(gap, func() {
		c.fire()
		c.scheduleNext()
	})
}

func (c *OpenLoopClient) fire() {
	if c.stopped {
		return
	}
	if c.outstanding >= c.cfg.MaxOutstanding {
		c.Refused.Inc()
		return
	}
	c.outstanding++
	start := c.k.Now()
	c.nextPort++
	if c.nextPort == 0 {
		c.nextPort = 1024
	}
	src := netsim.Addr{IP: c.cfg.Src.IP, Port: c.nextPort}
	settled := false
	settle := func() bool {
		if settled {
			return false
		}
		settled = true
		c.outstanding--
		return true
	}
	c.k.ClientSend(kernel.ConnectPacket(src, c.cfg.Dst, func(conn *kernel.Conn) {
		if settled || c.stopped {
			return
		}
		req := &httpsim.Request{
			Kind:       httpsim.Static,
			Size:       1024,
			CloseAfter: true,
			OnResponse: func(at sim.Time) {
				if settle() {
					c.Completions.Observe()
					c.Latency.ObserveDuration(at.Sub(start))
				}
			},
		}
		c.k.ClientSend(kernel.DataPacket(src, c.cfg.Dst, conn.ID(), 512, req))
	}))
	c.eng.After(c.cfg.Timeout, func() {
		if settle() {
			c.Abandoned.Inc()
		}
	})
}
