// Package workload implements the client side of the paper's experiments
// (§5.2): closed-loop HTTP clients modeled on the S-Client [4], with
// connection timeouts and retries; persistent-connection clients; CGI
// request generators; and SYN flooders for the §5.7 attack.
//
// Clients run on the same virtual-time engine as the server kernel but
// consume no server CPU: only their packets do, via the kernel's receive
// path.
package workload

import (
	"errors"
	"fmt"

	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/metrics"
	"rescon/internal/netsim"
	"rescon/internal/sim"
)

// ClientConfig configures one closed-loop client.
type ClientConfig struct {
	Kernel *kernel.Kernel
	// Src is the client's address (its port is remapped per connection).
	Src netsim.Addr
	// Dst is the server endpoint.
	Dst netsim.Addr
	// Persistent reuses one connection for all requests (HTTP/1.1);
	// otherwise each request opens a fresh connection (1 conn/request).
	Persistent bool
	// Think is the pause between receiving a response and issuing the
	// next request. Zero means back-to-back (a saturating client).
	Think sim.Duration
	// Kind and CGICPU select the requested resource.
	Kind   httpsim.RequestKind
	CGICPU sim.Duration
	// Uncached requests miss the filesystem cache and hit the disk.
	Uncached bool
	// PathFor, when set, names the document for each request (consulting
	// the server's filesystem cache); the argument is the request number.
	PathFor func(i uint64) string
	// ConnectTimeout triggers a SYN retransmission; RequestTimeout
	// abandons a connection whose response never arrives. Both default
	// to 3 s, the BSD SYN retransmission interval.
	ConnectTimeout sim.Duration
	RequestTimeout sim.Duration

	// BackoffBase enables exponential backoff between timeout retries:
	// the i-th consecutive retry waits ~min(BackoffBase<<(i-1),
	// 16×BackoffBase), with uniform jitter in [d/2, d] so a retrying
	// population desynchronizes instead of retransmitting in lockstep.
	// Zero keeps the S-Client's immediate-retransmit behavior.
	BackoffBase sim.Duration
	// MaxRetries abandons a request after this many consecutive timeouts
	// (counted in GiveUps) and moves on to the next; zero retries
	// forever.
	MaxRetries int
	// AbortRate is the per-request probability that the client abandons
	// the request mid-flight — closing the connection before the
	// response arrives, like an impatient browser user. The server may
	// still be computing the response when the FIN lands.
	AbortRate float64
}

// Validate reports whether the configuration can produce a working
// client: a kernel to inject packets into and usable endpoints. It is
// called by StartClient, so a broken config surfaces as an error at
// start rather than a panic deep in the engine.
func (cfg ClientConfig) Validate() error {
	if cfg.Kernel == nil {
		return errors.New("workload: ClientConfig.Kernel is nil")
	}
	if cfg.Src.IP == 0 {
		return errors.New("workload: ClientConfig.Src has no IP address")
	}
	if cfg.Dst.IP == 0 || cfg.Dst.Port == 0 {
		return fmt.Errorf("workload: ClientConfig.Dst %v is not a usable endpoint", cfg.Dst)
	}
	if cfg.AbortRate < 0 || cfg.AbortRate > 1 {
		return fmt.Errorf("workload: ClientConfig.AbortRate %v outside [0,1]", cfg.AbortRate)
	}
	return nil
}

// Client is a closed-loop request generator: at most one outstanding
// request, like one S-Client slot.
type Client struct {
	cfg      ClientConfig
	k        *kernel.Kernel
	eng      *sim.Engine
	nextPort uint16
	conn     *kernel.Conn
	gen      uint64 // increments on every restart; stale callbacks no-op

	// Latency records response times (ms) for completed requests.
	Latency metrics.Summary
	// Meter counts completed requests for throughput.
	Meter *metrics.RateMeter
	// Timeouts counts connect/request timeouts.
	Timeouts metrics.Counter
	// Retries counts backoff-delayed retransmissions; Aborts counts
	// mid-request abandonments; GiveUps counts requests dropped after
	// MaxRetries consecutive timeouts.
	Retries metrics.Counter
	Aborts  metrics.Counter
	GiveUps metrics.Counter

	rng      *sim.RNG
	reqSeq   uint64
	attempts int // consecutive timeouts for the current request
	stopped  bool
	// start is startRequest, bound once.
	start func()
}

// StartClient validates the configuration and launches the client's
// request loop immediately.
func StartClient(cfg ClientConfig) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ConnectTimeout <= 0 {
		cfg.ConnectTimeout = 3 * sim.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 3 * sim.Second
	}
	c := &Client{
		cfg:      cfg,
		k:        cfg.Kernel,
		eng:      cfg.Kernel.Engine(),
		nextPort: cfg.Src.Port,
		Meter:    metrics.NewRateMeter(cfg.Kernel.Now()),
	}
	c.start = c.startRequest
	// Per-client deterministic randomness: think-time jitter
	// desynchronizes the population, as natural variance would on a real
	// testbed. The stream depends only on the client's address, so adding
	// a client does not perturb the others.
	c.rng = c.eng.Rand().Fork(uint64(cfg.Src.IP)<<16 | uint64(cfg.Src.Port))
	if cfg.Think > 0 {
		// Staggered start: spread initial requests over one think time.
		c.eng.After(c.rng.Uniform(0, cfg.Think), c.start)
	} else {
		c.startRequest()
	}
	return c, nil
}

// MustStartClient is StartClient for callers whose configuration is
// known good (tests and experiment drivers); it panics on a validation
// error.
func MustStartClient(cfg ClientConfig) *Client {
	c, err := StartClient(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Stop halts the loop after the current request completes or times out.
func (c *Client) Stop() { c.stopped = true }

// ResetStats discards warm-up measurements and starts a fresh window.
func (c *Client) ResetStats() {
	c.Latency.Reset()
	c.Meter.Restart(c.k.Now())
	c.Timeouts.Reset()
	c.Retries.Reset()
	c.Aborts.Reset()
	c.GiveUps.Reset()
}

func (c *Client) srcAddr() netsim.Addr {
	c.nextPort++
	if c.nextPort == 0 {
		c.nextPort = 1024
	}
	return netsim.Addr{IP: c.cfg.Src.IP, Port: c.nextPort}
}

// startRequest begins one request cycle: connect if needed, then send.
func (c *Client) startRequest() {
	if c.stopped {
		return
	}
	start := c.k.Now()
	if c.conn != nil && !c.conn.Closed() {
		c.sendRequest(c.conn, start)
		return
	}
	c.connect(start)
}

func (c *Client) connect(start sim.Time) {
	gen := c.gen
	established := false
	src := c.srcAddr()
	c.k.ClientSend(kernel.ConnectPacket(src, c.cfg.Dst, func(conn *kernel.Conn) {
		if c.gen != gen || established || c.stopped {
			return
		}
		established = true
		c.conn = conn
		c.sendRequest(conn, start)
	}))
	c.eng.After(c.cfg.ConnectTimeout, func() {
		if c.gen != gen || established || c.stopped {
			return
		}
		// SYN lost (queue overflow or wire fault): retransmit, as the
		// S-Client does — immediately, or after backoff when configured.
		c.retryAfterTimeout(func() { c.connect(start) })
	})
}

// retryAfterTimeout decides the fate of a timed-out attempt: give up
// after MaxRetries consecutive timeouts, otherwise retry — immediately
// (the S-Client default) or after a jittered exponential-backoff delay.
func (c *Client) retryAfterTimeout(retry func()) {
	c.Timeouts.Inc()
	c.gen++
	c.attempts++
	if c.cfg.MaxRetries > 0 && c.attempts > c.cfg.MaxRetries {
		c.GiveUps.Inc()
		c.attempts = 0
		c.conn = nil
		c.think()
		return
	}
	d := c.backoff()
	if d <= 0 {
		retry()
		return
	}
	c.Retries.Inc()
	c.eng.After(d, func() {
		if c.stopped {
			return
		}
		retry()
	})
}

// backoff returns the jittered exponential delay for the current retry
// attempt, or zero when backoff is disabled.
func (c *Client) backoff() sim.Duration {
	base := c.cfg.BackoffBase
	if base <= 0 {
		return 0
	}
	cap := 16 * base
	d := base
	for i := 1; i < c.attempts && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return c.rng.Uniform(d/2, d)
}

func (c *Client) sendRequest(conn *kernel.Conn, start sim.Time) {
	gen := c.gen
	answered := false
	var path string
	if c.cfg.PathFor != nil {
		path = c.cfg.PathFor(c.reqSeq)
		c.reqSeq++
	}
	req := &httpsim.Request{
		Kind:       c.cfg.Kind,
		Size:       1024,
		CGICPU:     c.cfg.CGICPU,
		Uncached:   c.cfg.Uncached,
		Path:       path,
		CloseAfter: !c.cfg.Persistent,
		OnResponse: func(at sim.Time) {
			if c.gen != gen || answered || c.stopped {
				return
			}
			answered = true
			c.attempts = 0
			c.Latency.ObserveDuration(at.Sub(start))
			c.Meter.Observe()
			if !c.cfg.Persistent {
				c.conn = nil
			}
			c.think()
		},
	}
	c.k.ClientSend(kernel.DataPacket(conn.Client(), c.cfg.Dst, conn.ID(), 512, req))
	timeout := c.cfg.RequestTimeout
	if c.cfg.Kind == httpsim.CGI {
		// CGI responses legitimately take many seconds of CPU; give them
		// a far larger allowance scaled by the job size.
		timeout += 100 * c.cfg.CGICPU
	}
	c.eng.After(timeout, func() {
		if c.gen != gen || answered || c.stopped {
			return
		}
		c.conn = nil
		c.retryAfterTimeout(func() { c.startRequest() })
	})
	if c.cfg.AbortRate > 0 && c.rng.Float64() < c.cfg.AbortRate {
		// Impatient user: abandon the request partway through its
		// allowance, closing the connection under the server's feet. The
		// server may still spend CPU or disk on the doomed response.
		c.eng.After(c.rng.Uniform(0, timeout/4), func() {
			if c.gen != gen || answered || c.stopped {
				return
			}
			answered = true
			c.attempts = 0
			c.Aborts.Inc()
			c.k.ClientSend(kernel.FINPacket(conn.Client(), c.cfg.Dst, conn.ID()))
			c.conn = nil
			c.think()
		})
	}
}

func (c *Client) think() {
	if c.stopped {
		return
	}
	if c.cfg.Think <= 0 {
		c.startRequest()
		return
	}
	// Uniform ±50% jitter around the configured think time.
	pause := c.rng.Uniform(c.cfg.Think/2, c.cfg.Think*3/2)
	c.eng.After(pause, c.start)
}

// Population is a set of identically configured clients with pooled
// statistics.
type Population struct {
	Clients []*Client
}

// StartPopulation validates the base configuration and launches n
// clients. Each gets a distinct source IP derived from base (base+1,
// base+2, ...), so filters can address them.
func StartPopulation(n int, base ClientConfig) (*Population, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	p := &Population{}
	for i := 0; i < n; i++ {
		cfg := base
		cfg.Src.IP = base.Src.IP + netsim.IP(i)
		c, err := StartClient(cfg)
		if err != nil {
			return nil, err
		}
		p.Clients = append(p.Clients, c)
	}
	return p, nil
}

// MustStartPopulation is StartPopulation for callers whose configuration
// is known good; it panics on a validation error.
func MustStartPopulation(n int, base ClientConfig) *Population {
	p, err := StartPopulation(n, base)
	if err != nil {
		panic(err)
	}
	return p
}

// ResetStats restarts every client's measurement window.
func (p *Population) ResetStats() {
	for _, c := range p.Clients {
		c.ResetStats()
	}
}

// Stop halts every client.
func (p *Population) Stop() {
	for _, c := range p.Clients {
		c.Stop()
	}
}

// Completed sums completed requests across the population.
func (p *Population) Completed() uint64 {
	var total uint64
	for _, c := range p.Clients {
		total += c.Meter.Count()
	}
	return total
}

// Rate returns the population's aggregate completion rate.
func (p *Population) Rate(now sim.Time) float64 {
	var total float64
	for _, c := range p.Clients {
		total += c.Meter.Rate(now)
	}
	return total
}

// MeanLatencyMs returns the mean response time across all clients' samples
// in milliseconds.
func (p *Population) MeanLatencyMs() float64 {
	var sum float64
	var n int
	for _, c := range p.Clients {
		sum += c.Latency.Mean() * float64(c.Latency.N())
		n += c.Latency.N()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// String summarizes the population.
func (p *Population) String() string {
	return fmt.Sprintf("population(%d clients)", len(p.Clients))
}
