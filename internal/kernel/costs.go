package kernel

import "rescon/internal/sim"

// CostModel holds the CPU cost of every kernel and application processing
// stage. The defaults are calibrated against the paper's measurements on
// a 500 MHz Alpha 21164 running Digital UNIX 4.0D (§5.2–§5.3), so the
// simulated server reproduces the paper's absolute operating points:
//
//   - 1 connection/request HTTP, cached 1 KB file: 338 µs/request
//     => 2954 requests/second at CPU saturation.
//   - persistent-connection HTTP: 105 µs/request => 9487 requests/second.
//   - unmodified-kernel SYN processing ≈ 109 µs at interrupt level
//     => throughput reaches zero near 10,000 SYNs/s (Fig. 14).
//   - early-demux packet filter ≈ 3.8 µs at interrupt level
//     => ≈73% of peak throughput remains at 70,000 SYNs/s (Fig. 14).
//
// Budget for one non-persistent request (sums to 338 µs):
//
//	SYN packet:      Interrupt (2) + SYNProtocol (107)      = 109 µs
//	accept+teardown: ConnSetup (124)                        = 124 µs
//	request packet:  Interrupt (2) + RecvProtocol (45)      =  47 µs
//	user handling:   UserStatic (28)                        =  28 µs
//	response:        SendProtocol (30)                      =  30 µs
//
// A persistent-connection request repeats only the last three lines
// (47 + 28 + 30 = 105 µs). The split between Interrupt and Demux is
// pinned by Fig. 14: the RC system keeps ~73% of peak throughput at
// 70,000 SYNs/s, so interrupt + packet filter ≈ 0.27/70,000 ≈ 3.8 µs.
type CostModel struct {
	// Interrupt is the fixed per-inbound-packet interrupt overhead, always
	// executed at interrupt level and never attributable to a principal.
	Interrupt sim.Duration
	// Demux is the early-demultiplexing (packet filter) cost paid at
	// interrupt level in the LRP and RC systems (§4.7).
	Demux sim.Duration
	// SYNProtocol is the TCP work for a connection request: PCB lookup,
	// PCB+socket allocation, SYN/ACK generation.
	SYNProtocol sim.Duration
	// RecvProtocol is the TCP/IP receive work for one data packet.
	RecvProtocol sim.Duration
	// SendProtocol is the send-side work for a 1 KB response, executed in
	// syscall context (charged correctly in every system).
	SendProtocol sim.Duration
	// ConnSetup is the per-connection accept/PCB/teardown kernel work
	// executed in syscall context.
	ConnSetup sim.Duration
	// FINProtocol is the receive work for a FIN segment.
	FINProtocol sim.Duration
	// UserStatic is the user-mode work to parse a request and prepare a
	// cached 1 KB static response.
	UserStatic sim.Duration
	// UserCGIDispatch is the user+kernel work for the server to hand a
	// dynamic request to a CGI process (fork/exec or FastCGI dispatch).
	UserCGIDispatch sim.Duration

	// SelectBase and SelectPerFD model the select() system call: the
	// kernel scans the whole interest set, so the cost is linear in the
	// number of descriptors (§5.5, [5,6]).
	SelectBase  sim.Duration
	SelectPerFD sim.Duration
	// EventPoll is the cost to dequeue one event with the scalable event
	// API of [5], independent of the number of descriptors.
	EventPoll sim.Duration

	// WireDelay is the one-way client<->server latency on the private
	// 100 Mb/s switched Ethernet of §5.2.
	WireDelay sim.Duration

	// Container primitive costs (Table 1), charged when the application
	// invokes the corresponding syscall in simulation. The defaults are
	// the paper's measured values, so the §5.4 overhead experiment
	// reproduces "throughput effectively unchanged". (bench_test.go
	// additionally measures the real cost of this implementation's
	// primitives, the honest analogue of Table 1.)
	ContainerCreate  sim.Duration
	ContainerDestroy sim.Duration
	ContainerRebind  sim.Duration
	ContainerUsage   sim.Duration
	ContainerAttr    sim.Duration
	ContainerMove    sim.Duration
	ContainerHandle  sim.Duration
}

// DefaultCosts returns the cost model calibrated to the paper's server
// (see the CostModel documentation for the derivation).
func DefaultCosts() CostModel {
	return CostModel{
		Interrupt:       2 * sim.Microsecond,
		Demux:           1800 * sim.Nanosecond,
		SYNProtocol:     107 * sim.Microsecond,
		RecvProtocol:    45 * sim.Microsecond,
		SendProtocol:    30 * sim.Microsecond,
		ConnSetup:       124 * sim.Microsecond,
		FINProtocol:     10 * sim.Microsecond,
		UserStatic:      28 * sim.Microsecond,
		UserCGIDispatch: 300 * sim.Microsecond,

		SelectBase:  10 * sim.Microsecond,
		SelectPerFD: 3 * sim.Microsecond,
		EventPoll:   2 * sim.Microsecond,

		WireDelay: 50 * sim.Microsecond,

		ContainerCreate:  2360 * sim.Nanosecond,
		ContainerDestroy: 2100 * sim.Nanosecond,
		ContainerRebind:  1040 * sim.Nanosecond,
		ContainerUsage:   2040 * sim.Nanosecond,
		ContainerAttr:    2100 * sim.Nanosecond,
		ContainerMove:    3150 * sim.Nanosecond,
		ContainerHandle:  1900 * sim.Nanosecond,
	}
}

// PerRequestConnCost is the per-connection overhead of 1-connection-per-
// request HTTP beyond the per-request cost: SYN handling plus connection
// setup/teardown.
func (c CostModel) PerRequestConnCost() sim.Duration {
	return c.Interrupt + c.SYNProtocol + c.ConnSetup
}

// PerRequestCost is the cost of one request on an established connection.
func (c CostModel) PerRequestCost() sim.Duration {
	return c.Interrupt + c.RecvProtocol + c.UserStatic + c.SendProtocol
}
