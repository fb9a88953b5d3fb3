// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5), each regenerating the corresponding rows or
// curves on the simulated kernel, plus the ablations called out in
// DESIGN.md. Every driver builds a fresh deterministic simulation per
// data point, so output is reproducible bit-for-bit.
package experiments

import (
	"runtime"

	"rescon/internal/fault"
	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/netsim"
	"rescon/internal/sim"
	"rescon/internal/workload"
)

// ServerAddr is the server endpoint used by all experiments.
var ServerAddr = kernel.Addr("10.0.0.1", 80)

// ClientNet is the base address of well-behaved clients.
var ClientNet = netsim.MustParseIP("10.1.0.0")

// HighPriorityIP is the high-priority (premium) client of Fig. 11.
var HighPriorityIP = netsim.MustParseIP("10.9.9.9")

// AttackNet is the SYN-flood source prefix of Fig. 14 (a /8).
var AttackNet = netsim.MustParseIP("66.0.0.0")

// Options tunes experiment length. Quick settings keep `go test` fast;
// the rcbench binary uses full-length windows.
type Options struct {
	Seed   int64
	Warmup sim.Duration
	Window sim.Duration
	// Invariants attaches a runtime invariant checker (CPU-charge
	// conservation, clock monotonicity, queue bounds) to every
	// simulation the experiment builds; a violation panics with a
	// diagnostic. On by default in -short test runs; rcbench enables it
	// with -check.
	Invariants bool
	// Parallel is the number of worker goroutines sweep drivers fan
	// independent data points across (0 = GOMAXPROCS, 1 = serial). Each
	// point builds its own engine and kernel from its own seed, so the
	// rendered output is byte-identical at any parallelism.
	Parallel int
}

// Defaults fills in zero fields.
func (o Options) withDefaults(warmup, window sim.Duration) Options {
	if o.Seed == 0 {
		o.Seed = 1999
	}
	if o.Warmup == 0 {
		o.Warmup = warmup
	}
	if o.Window == 0 {
		o.Window = window
	}
	if o.Parallel == 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	return o
}

// env is one simulated machine plus bookkeeping for a measurement run.
type env struct {
	eng   *sim.Engine
	k     *kernel.Kernel
	check *fault.Checker
}

func newEnv(mode kernel.Mode, opt Options) *env { return newSMPEnv(mode, 1, opt) }

// newSMPEnv builds a machine with ncpus processors, attaching the
// invariant checker when opt.Invariants is set.
func newSMPEnv(mode kernel.Mode, ncpus int, opt Options) *env {
	eng := sim.NewEngine(opt.Seed)
	e := &env{eng: eng, k: kernel.NewSMP(eng, mode, ncpus)}
	if opt.Invariants {
		e.check = fault.NewChecker(eng)
		e.k.WatchInvariants(e.check)
		e.check.Start(0)
	}
	return e
}

// measureRate runs warmup, clears stats, runs the window, and returns the
// population's aggregate completion rate.
func (e *env) measureRate(pop *workload.Population, warmup, window sim.Duration) float64 {
	start := e.eng.Now()
	e.eng.RunUntil(start.Add(warmup))
	pop.ResetStats()
	e.eng.RunUntil(start.Add(warmup + window))
	return pop.Rate(e.eng.Now())
}

// staticClients starts n saturating 1-connection-per-request clients.
func (e *env) staticClients(n int, think sim.Duration) *workload.Population {
	return workload.MustStartPopulation(n, workload.ClientConfig{
		Kernel: e.k,
		Src:    netsim.Addr{IP: ClientNet + 1, Port: 1024},
		Dst:    ServerAddr,
		Think:  think,
	})
}

// cgiClients starts n closed-loop dynamic-resource clients, each keeping
// one CGI request (cpu seconds of work) outstanding (§5.6).
func (e *env) cgiClients(n int, cpu sim.Duration) *workload.Population {
	return workload.MustStartPopulation(n, workload.ClientConfig{
		Kernel: e.k,
		Src:    netsim.Addr{IP: ClientNet + 0x100, Port: 1024},
		Dst:    ServerAddr,
		Kind:   httpsim.CGI,
		CGICPU: cpu,
	})
}
