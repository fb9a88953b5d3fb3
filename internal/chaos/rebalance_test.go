package chaos

import (
	"testing"

	"rescon/internal/sim"
)

// rebalanceScenario is a minimal hand-built scenario that arms the
// adaptive rebalancer: two top-level fixed-share containers (they
// double as the conn/CGI parents, so organic load charges them) and a
// client population to generate demand.
func rebalanceScenario(mode string) Scenario {
	return Scenario{
		Seed:    11,
		Mode:    mode,
		CPUs:    1,
		Horizon: 800 * sim.Millisecond,
		Containers: []ContainerSpec{
			{Name: "a", Parent: -1, Fixed: true, Share: 0.25},
			{Name: "b", Parent: -1, Fixed: true, Share: 0.20},
		},
		Workloads: []WorkloadSpec{
			{Kind: WorkClients, Count: 8},
		},
		Rebalance: &RebalanceSpec{},
	}
}

// TestRebalanceArmedRunsCleanAllModes: an armed controller over an
// ordinary workload must not violate anything, in any kernel mode,
// including the determinism double-run (the decision journal is part of
// the digest).
func TestRebalanceArmedRunsCleanAllModes(t *testing.T) {
	for _, mode := range ModeNames {
		r, err := RunChecked(rebalanceScenario(mode))
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if r.Failed() {
			t.Fatalf("%s: %d violation(s), first: %s", mode, len(r.Violations), r.Violations[0])
		}
	}
}

// TestRebalanceOscillateSelfDisarms is the negative control of the
// invariant battery: worst-case thrash input with the disarm protocol
// INTACT must end with the controller disarmed, the static shares
// restored, and a completely clean run — graceful degradation observed
// end to end.
func TestRebalanceOscillateSelfDisarms(t *testing.T) {
	sc := rebalanceScenario("rc")
	sc.Mutation = MutationRebalanceOscillate
	r, err := RunChecked(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed() {
		t.Fatalf("self-disarming thrash violated invariants: %v", r.Violations)
	}
	if r.RebalanceDisarms != 1 {
		t.Fatalf("disarms = %d, want 1 (oscillation detector never tripped?)", r.RebalanceDisarms)
	}
}

// TestRebalanceMutationsCaught: each planted controller bug must be
// caught by exactly its invariant class.
func TestRebalanceMutationsCaught(t *testing.T) {
	cases := []struct {
		mutation, class string
	}{
		{MutationRebalanceNoDisarm, "rebalance-oscillation"},
		{MutationRebalanceLeak, "rebalance-conservation"},
		{MutationRebalanceNoFloor, "rebalance-starvation"},
	}
	for _, tc := range cases {
		t.Run(tc.mutation, func(t *testing.T) {
			sc := rebalanceScenario("rc")
			sc.Mutation = tc.mutation
			r, err := RunChecked(sc)
			if err != nil {
				t.Fatal(err)
			}
			if !r.FailsWith(tc.class) {
				t.Fatalf("mutation %s not caught by %s; violations: %v",
					tc.mutation, tc.class, r.Violations)
			}
		})
	}
}

// TestRebalanceFailureShrinks: a rebalancer failure must shrink to a
// small repro that keeps the mutation, the rebalance spec, and the two
// pool members the bug needs — and still fail identically.
func TestRebalanceFailureShrinks(t *testing.T) {
	sc := rebalanceScenario("rc")
	sc.Mutation = MutationRebalanceNoDisarm
	sc.Workloads = append(sc.Workloads,
		WorkloadSpec{Kind: WorkLoris, Count: 32},
		WorkloadSpec{Kind: WorkDisk, Count: 4})

	shrunk := Shrink(sc, "rebalance-oscillation")
	if shrunk.Mutation != MutationRebalanceNoDisarm {
		t.Fatal("shrink dropped the mutation")
	}
	if shrunk.Rebalance == nil {
		t.Fatal("shrink dropped the rebalance spec the mutation requires")
	}
	if len(shrunk.Containers) < 2 {
		t.Fatalf("shrink dropped the pool members: %+v", shrunk.Containers)
	}
	if len(shrunk.Workloads) > 1 {
		t.Fatalf("shrink kept %d workloads for a workload-independent bug", len(shrunk.Workloads))
	}
	checkReproGolden(t, "shrink_rebalance.json", shrunk)
	r, err := Run(shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if !r.FailsWith("rebalance-oscillation") {
		t.Fatalf("shrunk scenario no longer fails; violations: %v", r.Violations)
	}
}

// TestRebalanceValidate: rebalance mutations require the spec; the
// generator arms the controller on a stable subset of seeds.
func TestRebalanceValidate(t *testing.T) {
	sc := rebalanceScenario("rc")
	sc.Rebalance = nil
	sc.Mutation = MutationRebalanceLeak
	if err := sc.Validate(); err == nil {
		t.Fatal("rebalance mutation without spec passed Validate")
	}
	armed := 0
	for seed := uint64(0); seed < 64; seed++ {
		if Generate(seed).Rebalance != nil {
			armed++
		}
	}
	if armed < 16 || armed > 48 {
		t.Fatalf("generator armed %d/64 scenarios, want roughly half", armed)
	}
}
