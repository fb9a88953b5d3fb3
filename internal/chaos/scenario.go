package chaos

import (
	"fmt"

	"rescon/internal/fault"
	"rescon/internal/kernel"
	"rescon/internal/sim"
)

// Mode names accepted by Scenario.Mode, in kernel.Mode order.
var ModeNames = []string{"unmodified", "lrp", "rc"}

// ModeOf maps a scenario mode name to the kernel execution model.
func ModeOf(name string) (kernel.Mode, error) {
	for i, n := range ModeNames {
		if n == name {
			return kernel.Mode(i), nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown mode %q (want one of %v)", name, ModeNames)
}

// ContainerSpec describes one resource container of a scenario's
// hierarchy. Parent is the index of an earlier spec in the slice, or -1
// for a root. The generator deliberately produces degenerate shapes —
// zero-share fixed leaves, deep fixed-share chains, limits that exceed
// the parent's own share — because those are the corners where
// scheduler and accounting bugs hide.
type ContainerSpec struct {
	Name     string  `json:"name"`
	Parent   int     `json:"parent"`
	Fixed    bool    `json:"fixed"`
	Priority int     `json:"priority"`
	Share    float64 `json:"share,omitempty"`
	Limit    float64 `json:"limit,omitempty"`
	MemLimit int64   `json:"mem_limit,omitempty"`
	QoS      float64 `json:"qos,omitempty"`
}

// Workload kinds. Each maps to one traffic source the runner starts.
const (
	// WorkClients is a closed-loop population of well-behaved static
	// clients with the resilient timeout/backoff configuration.
	WorkClients = "clients"
	// WorkCGI is a population of CGI aggressors, each keeping one
	// CPU-burning dynamic request outstanding (the §5.6 cache war).
	WorkCGI = "cgi"
	// WorkFlood is a SYN flood at Rate SYNs/s from the attack prefix.
	WorkFlood = "flood"
	// WorkLoris is a slow-loris attacker holding Count connections open
	// with bytes that never form a request.
	WorkLoris = "loris"
	// WorkDisk is a population of uncached clients whose every request
	// misses the filesystem cache and hits the disk.
	WorkDisk = "disk"
	// WorkParked is a mass of established-and-idle connections ramped
	// onto a dedicated listen socket — the datacenter topology of
	// DESIGN.md §11, where the connection table carries 100k+ live
	// entries while the scenario's other traffic fights over the CPU.
	WorkParked = "parked"
)

// WorkloadSpec describes one traffic source. Fields beyond Kind apply
// only where meaningful (Rate to floods, CGICPU to CGI, and so on);
// zero values take the runner's defaults.
type WorkloadSpec struct {
	Kind      string       `json:"kind"`
	Count     int          `json:"count,omitempty"`
	Rate      float64      `json:"rate,omitempty"`
	CGICPU    sim.Duration `json:"cgi_cpu_ns,omitempty"`
	Think     sim.Duration `json:"think_ns,omitempty"`
	AbortRate float64      `json:"abort_rate,omitempty"`
}

// CrashSpec schedules crash-stop/restart cycles for the server worker.
type CrashSpec struct {
	MTBF     sim.Duration `json:"mtbf_ns"`
	Downtime sim.Duration `json:"downtime_ns"`
}

// Scenario is one fully determined chaos run: every axis of the
// configuration space — container hierarchy, workload mix, fault
// schedule, kernel mode, machine size, horizon — pinned down by values
// derived from a single seed (or loaded from a repro file). Running the
// same Scenario twice must produce byte-identical results; that is
// itself one of the checked invariants.
type Scenario struct {
	Seed     uint64       `json:"seed"`
	Mode     string       `json:"mode"`
	CPUs     int          `json:"cpus"`
	Horizon  sim.Duration `json:"horizon_ns"`
	Policing bool         `json:"policing,omitempty"`

	Containers []ContainerSpec `json:"containers,omitempty"`
	Workloads  []WorkloadSpec  `json:"workloads,omitempty"`
	Faults     fault.Config    `json:"faults,omitempty"`
	Crash      *CrashSpec      `json:"crash,omitempty"`
	Rebalance  *RebalanceSpec  `json:"rebalance,omitempty"`

	// Mutation enables a deliberately planted bug in the runner — the
	// harness's self-test seam. The generator never sets it; tests use
	// it to prove the invariant battery catches real accounting bugs and
	// that failures shrink. See MutationPhantomCPU.
	Mutation string `json:"mutation,omitempty"`
}

// MutationPhantomCPU makes the runner periodically charge CPU time to a
// ghost principal that no CPU ever executed — the classic accounting
// bug class resource containers exist to prevent. The CPU-conservation
// invariant must catch it, and because the mutation is independent of
// the generated scenario, shrinking a phantom-cpu failure must converge
// to a near-empty scenario.
const MutationPhantomCPU = "phantom-cpu"

// Rebalancer mutations: planted bugs in the adaptive controller, the
// harness self-test seam for the rebalance-* invariant classes. Each
// requires Scenario.Rebalance to be set; each replaces the controller's
// organic demand signals with hard alternating synthetic demand and
// strips the damping (full-pool steps, no cooldown, no deadband), the
// worst-case thrash input.
const (
	// MutationRebalanceOscillate is the *negative control*: thrash with
	// the disarm protocol intact. The oscillation detector must trip
	// and restore the static shares, so the run stays CLEAN — proving
	// graceful degradation, not just detection.
	MutationRebalanceOscillate = "rebalance-oscillate"
	// MutationRebalanceNoDisarm is the same thrash with the disarm
	// suppressed; the rebalance-oscillation invariant must fire.
	MutationRebalanceNoDisarm = "rebalance-no-disarm"
	// MutationRebalanceLeak mints allocation units out of thin air (one
	// per tick); the rebalance-conservation invariant must fire.
	MutationRebalanceLeak = "rebalance-leak"
	// MutationRebalanceNoFloor lets steps cross the starvation floor;
	// the rebalance-starvation invariant must fire.
	MutationRebalanceNoFloor = "rebalance-no-floor"
)

// RebalanceSpec arms the adaptive rebalancer for the run: the runner
// attaches an alert.Watchdog (the arbitration partner) plus a
// rebalance.Controller governing the generated hierarchy — a CPU-share
// pool over the top-level fixed containers and a memory-quota pool over
// the MemLimit-carrying containers, where at least two qualify. Zero
// fields take the rebalance package defaults.
type RebalanceSpec struct {
	StepFrac       float64 `json:"step_frac,omitempty"`
	FloorFrac      float64 `json:"floor_frac,omitempty"`
	CooldownTicks  int     `json:"cooldown_ticks,omitempty"`
	DeadbandFrac   float64 `json:"deadband_frac,omitempty"`
	OscWindowTicks int     `json:"osc_window_ticks,omitempty"`
	OscMaxFlips    int     `json:"osc_max_flips,omitempty"`
	CalmTicks      int     `json:"calm_ticks,omitempty"`
}

// Validate reports whether the scenario is structurally runnable:
// recognized mode and mutation, a positive machine and horizon, parent
// indices that refer to earlier fixed-share specs, and known workload
// kinds. Attribute ranges (shares, limits) are validated by the
// container layer when the runner builds the hierarchy.
func (sc Scenario) Validate() error {
	if _, err := ModeOf(sc.Mode); err != nil {
		return err
	}
	if sc.CPUs < 1 {
		return fmt.Errorf("chaos: CPUs %d < 1", sc.CPUs)
	}
	if sc.Horizon <= 0 {
		return fmt.Errorf("chaos: non-positive horizon %v", sc.Horizon)
	}
	for i, cs := range sc.Containers {
		if cs.Parent >= i {
			return fmt.Errorf("chaos: container %d parent %d is not an earlier spec", i, cs.Parent)
		}
		if cs.Parent >= 0 && !sc.Containers[cs.Parent].Fixed {
			return fmt.Errorf("chaos: container %d parent %d is not fixed-share", i, cs.Parent)
		}
	}
	for i, w := range sc.Workloads {
		switch w.Kind {
		case WorkClients, WorkCGI, WorkFlood, WorkLoris, WorkDisk, WorkParked:
		default:
			return fmt.Errorf("chaos: workload %d has unknown kind %q", i, w.Kind)
		}
	}
	if sc.Crash != nil && sc.Crash.MTBF <= 0 {
		return fmt.Errorf("chaos: crash plan without positive MTBF")
	}
	switch sc.Mutation {
	case "", MutationPhantomCPU:
	case MutationRebalanceOscillate, MutationRebalanceNoDisarm,
		MutationRebalanceLeak, MutationRebalanceNoFloor:
		if sc.Rebalance == nil {
			return fmt.Errorf("chaos: mutation %q requires a rebalance spec", sc.Mutation)
		}
	default:
		return fmt.Errorf("chaos: unknown mutation %q", sc.Mutation)
	}
	return nil
}

// RNG fork labels, one per independent generation axis, so changing the
// draw count on one axis never perturbs another.
const (
	labelMachine   = 1
	labelTopo      = 2
	labelLoad      = 3
	labelFault     = 4
	labelRebalance = 8 // 5-7 are the live-scenario labels (live.go)
)

// Generate derives a complete Scenario from a single seed. The same
// seed always yields the same scenario; nearby seeds yield unrelated
// ones. Generated scenarios always pass Validate and always build (the
// generator respects the container layer's structural rules while still
// reaching its degenerate corners).
func Generate(seed uint64) Scenario {
	top := sim.NewRNG(int64(seed))
	rm := top.Fork(labelMachine)
	sc := Scenario{
		Seed:     seed,
		Mode:     ModeNames[rm.Intn(len(ModeNames))],
		CPUs:     1 + rm.Intn(4),
		Horizon:  500*sim.Millisecond + rm.Uniform(0, 1500*sim.Millisecond),
		Policing: rm.Float64() < 0.5,
	}
	sc.Containers = genContainers(top.Fork(labelTopo))
	sc.Workloads = genWorkloads(top.Fork(labelLoad))
	// A parked-connection ramp is rate-bound by SYN protocol processing
	// (~107 µs per handshake on one kernel thread), so a seed that drew a
	// 100k+ topology gets the virtual time for the ramp to actually
	// reach its count when the machine cooperates. The stretch is a pure
	// function of the drawn workloads, so determinism is unaffected.
	for _, w := range sc.Workloads {
		if w.Kind == WorkParked {
			if need := sim.Duration(w.Count) * parkedRampBudget; sc.Horizon < need {
				sc.Horizon = need
			}
		}
	}
	rf := top.Fork(labelFault)
	if rf.Float64() < 0.5 {
		sc.Faults = genFaults(rf)
	}
	if rf.Float64() < 0.2 {
		sc.Crash = &CrashSpec{
			MTBF:     300*sim.Millisecond + rf.Uniform(0, 700*sim.Millisecond),
			Downtime: 50*sim.Millisecond + rf.Uniform(0, 200*sim.Millisecond),
		}
	}
	// A fresh fork for the rebalance axis, so arming the controller on
	// half the seeds never perturbs the machine/topology/load draws of
	// scenarios that predate it.
	rr := top.Fork(labelRebalance)
	if rr.Float64() < 0.5 {
		sc.Rebalance = &RebalanceSpec{
			CooldownTicks: 1 + rr.Intn(8),
			OscMaxFlips:   4 + rr.Intn(5),
		}
	}
	return sc
}

// genContainers draws a random hierarchy. Fixed-share containers may
// parent later specs (the container layer only allows children under
// fixed-share nodes); the 0.6 attach bias makes deep chains common.
// Root shares are capped at 0.5 of the machine so time-share work
// elsewhere (the runner's premium probe) keeps CPU entitlement.
func genContainers(r *sim.RNG) []ContainerSpec {
	n := r.Intn(6)
	specs := make([]ContainerSpec, 0, n)
	shareLeft := map[int]float64{-1: 0.5}
	var fixed []int
	for i := 0; i < n; i++ {
		cs := ContainerSpec{
			Name:     fmt.Sprintf("c%d", i),
			Parent:   -1,
			Priority: r.Intn(21),
		}
		if len(fixed) > 0 && r.Float64() < 0.6 {
			cs.Parent = fixed[r.Intn(len(fixed))]
		}
		if r.Float64() < 0.6 {
			cs.Fixed = true
			if left := shareLeft[cs.Parent]; left > 0.01 && r.Float64() < 0.7 {
				cs.Share = left * (0.1 + 0.7*r.Float64())
				shareLeft[cs.Parent] = left - cs.Share
			}
			// Else: a zero-share fixed leaf — entitled to nothing it was
			// not explicitly given, a degenerate shape worth exercising.
			shareLeft[i] = 0.9
			fixed = append(fixed, i)
		}
		if r.Float64() < 0.3 {
			// A limit at least the container's own share but possibly far
			// above the parent's — legal, degenerate, and a classic source
			// of throttling bugs.
			cs.Limit = cs.Share + (1-cs.Share)*r.Float64()
		}
		if r.Float64() < 0.2 {
			cs.MemLimit = int64(64<<10 + r.Intn(1<<20))
		}
		if r.Float64() < 0.2 {
			cs.QoS = 0.25 + 4*r.Float64()
		}
		specs = append(specs, cs)
	}
	return specs
}

// parkedRampBudget is the virtual time granted per parked connection:
// comfortably above the ~107 µs SYN handshake cost, so an uncontended
// ramp finishes inside the stretched horizon with slack for the
// scenario's other load.
const parkedRampBudget = 130 * sim.Microsecond

// genWorkloads draws 1..4 traffic sources with a mix biased toward
// well-behaved clients but regularly including every attacker class and,
// occasionally, a datacenter-scale parked-connection topology (20k–150k
// established connections riding on the flyweight conn table).
func genWorkloads(r *sim.RNG) []WorkloadSpec {
	n := 1 + r.Intn(4)
	out := make([]WorkloadSpec, 0, n)
	for i := 0; i < n; i++ {
		var w WorkloadSpec
		switch p := r.Float64(); {
		case p < 0.33:
			w = WorkloadSpec{Kind: WorkClients, Count: 4 + r.Intn(29), Think: r.Uniform(0, 5*sim.Millisecond)}
			if r.Float64() < 0.3 {
				w.AbortRate = 0.02 + 0.18*r.Float64()
			}
		case p < 0.47:
			w = WorkloadSpec{Kind: WorkCGI, Count: 2 + r.Intn(7), CGICPU: sim.Millisecond + r.Uniform(0, 19*sim.Millisecond)}
		case p < 0.61:
			w = WorkloadSpec{Kind: WorkFlood, Rate: 500 + 19500*r.Float64()}
		case p < 0.75:
			w = WorkloadSpec{Kind: WorkLoris, Count: 16 + r.Intn(113)}
		case p < 0.82:
			w = WorkloadSpec{Kind: WorkParked, Count: 20_000 + r.Intn(130_001)}
		default:
			w = WorkloadSpec{Kind: WorkDisk, Count: 2 + r.Intn(15)}
		}
		out = append(out, w)
	}
	return out
}

// genFaults draws a fault schedule with each class enabled
// independently at modest rates — heavy enough to exercise recovery
// paths, light enough that legitimate work still flows.
func genFaults(r *sim.RNG) fault.Config {
	var cfg fault.Config
	if r.Float64() < 0.5 {
		cfg.DropRate = 0.15 * r.Float64()
	}
	if r.Float64() < 0.3 {
		cfg.DupRate = 0.05 * r.Float64()
	}
	if r.Float64() < 0.3 {
		cfg.ReorderRate = 0.05 * r.Float64()
	}
	if r.Float64() < 0.3 {
		cfg.DelayRate = 0.10 * r.Float64()
	}
	if r.Float64() < 0.3 {
		cfg.DiskErrorRate = 0.05 * r.Float64()
	}
	if r.Float64() < 0.3 {
		cfg.DiskSlowRate = 0.20 * r.Float64()
	}
	return cfg
}

// WriteFile writes the scenario as an indented JSON repro file.
func (sc Scenario) WriteFile(path string) error { return writeRepro(path, sc) }

// LoadScenario reads and validates a repro file written by WriteFile
// (or by hand).
func LoadScenario(path string) (Scenario, error) {
	return loadRepro[Scenario](path, "repro")
}
