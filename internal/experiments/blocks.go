package experiments

import (
	"rescon/internal/kernel"
	"rescon/internal/netsim"
	"rescon/internal/sim"
	"rescon/internal/workload"
)

// This file exports the building blocks shared between the experiment
// drivers and external harnesses (the chaos harness in internal/chaos):
// the canonical resilient client configuration and the addressing
// helpers used to lay out multi-tenant client populations.

// ResilientClientConfig is the canonical overload-tolerant client
// configuration of the resilience experiments: short connect/request
// timeouts (so a shed packet costs a fraction of a second, not the BSD
// 3 s) and jittered exponential backoff (so a retrying population does
// not synchronize into bursts). Callers fill in request-mix fields
// (Kind, CGICPU, Uncached, Think) as needed.
func ResilientClientConfig(k *kernel.Kernel, src netsim.Addr) workload.ClientConfig {
	return workload.ClientConfig{
		Kernel:         k,
		Src:            src,
		Dst:            ServerAddr,
		ConnectTimeout: 250 * sim.Millisecond,
		RequestTimeout: 500 * sim.Millisecond,
		BackoffBase:    50 * sim.Millisecond,
	}
}

// ClientAddr returns the source endpoint for the i-th client network:
// each population gets a disjoint /16-ish slice of ClientNet so filtered
// listeners and per-source accounting can tell them apart.
func ClientAddr(i int) netsim.Addr {
	return netsim.Addr{IP: ClientNet + netsim.IP(i)<<8 + 1, Port: 1024}
}
