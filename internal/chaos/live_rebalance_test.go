package chaos

import (
	"testing"
	"time"

	"rescon/internal/experiments"
	"rescon/internal/sim"
)

// liveRebalanceScenario is a minimal hand-built live scenario that arms
// the rebalancer: a calm unlimited victim plus two limited hogs (the
// CPULimit pool members).
func liveRebalanceScenario() LiveScenario {
	return LiveScenario{
		Seed:          7,
		Window:        100 * sim.Millisecond,
		HostileRounds: 10,
		CalmRounds:    44,
		Think:         sim.Millisecond,
		Grace:         sim.Second,
		Tenants: []experiments.LiveTenant{
			{Name: "good", Requests: 3, Cost: 2 * time.Millisecond, Calm: true},
			{Name: "hog0", Requests: 8, Cost: 8 * time.Millisecond, Limit: 0.35},
			{Name: "hog1", Requests: 6, Cost: 6 * time.Millisecond, Limit: 0.3},
		},
		Rebalance: &LiveRebalanceSpec{},
	}
}

// TestLiveRebalanceArmedRunsClean: an armed controller governing real
// window budgets through the enforcer must not violate anything,
// including the determinism double-run (the decision journal is part of
// the digest).
func TestLiveRebalanceArmedRunsClean(t *testing.T) {
	r, err := RunLiveChecked(liveRebalanceScenario())
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed() {
		t.Fatalf("%d violation(s), first: %s", len(r.Violations), r.Violations[0])
	}
}

// TestLiveRebalanceOscillateSelfDisarms: worst-case thrash input with
// the disarm protocol intact must end disarmed, restored, and clean.
func TestLiveRebalanceOscillateSelfDisarms(t *testing.T) {
	sc := liveRebalanceScenario()
	sc.Rebalance.Mutation = "oscillate"
	r, err := RunLiveChecked(sc)
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

// TestLiveRebalanceMutationsCaught: each planted controller bug must be
// caught by its invariant class, against the real runtime.
func TestLiveRebalanceMutationsCaught(t *testing.T) {
	cases := []struct {
		mutation, class string
	}{
		{"no-disarm", "rebalance-oscillation"},
		{"leak", "rebalance-conservation"},
		{"no-floor", "rebalance-starvation"},
	}
	for _, tc := range cases {
		t.Run(tc.mutation, func(t *testing.T) {
			sc := liveRebalanceScenario()
			sc.Rebalance.Mutation = tc.mutation
			r, err := RunLive(sc)
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

// TestLiveRebalanceFailureShrinks: a live rebalancer failure must
// shrink to a repro that keeps the mutation, the spec, and the two pool
// members Validate requires — and still fail identically.
func TestLiveRebalanceFailureShrinks(t *testing.T) {
	sc := liveRebalanceScenario()
	sc.Rebalance.Mutation = "no-disarm"
	sc.Tenants = append(sc.Tenants,
		experiments.LiveTenant{Name: "hog2", Requests: 10, Cost: 9 * time.Millisecond, Limit: 0.2},
		experiments.LiveTenant{Name: "hog3", Requests: 12, Cost: 5 * time.Millisecond})
	sc.Faults = LiveFaultSpec{StallRate: 0.1, StallFor: 10 * sim.Millisecond, PanicRate: 0.05}

	shrunk := ShrinkLive(sc, "rebalance-oscillation")
	if shrunk.Rebalance == nil || shrunk.Rebalance.Mutation != "no-disarm" {
		t.Fatalf("shrink dropped the rebalance spec or mutation: %+v", shrunk.Rebalance)
	}
	limited := 0
	for _, tn := range shrunk.Tenants {
		if !tn.Calm && tn.Limit > 0 {
			limited++
		}
	}
	if limited < 2 {
		t.Fatalf("shrink dropped the pool members: %+v", shrunk.Tenants)
	}
	if shrunk.Faults != (LiveFaultSpec{}) {
		t.Fatalf("shrink kept the fault schedule for a workload-independent bug: %+v", shrunk.Faults)
	}
	checkReproGolden(t, "shrink_live_rebalance.json", shrunk)
	r, err := RunLive(shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if !r.FailsWith("rebalance-oscillation") {
		t.Fatalf("shrunk scenario no longer fails; violations: %v", r.Violations)
	}
}

// TestLiveRebalanceValidate: mutations and pools need at least two
// limited hostile tenants; the generator arms a stable subset of seeds
// and always leaves them pool-viable.
func TestLiveRebalanceValidate(t *testing.T) {
	sc := liveRebalanceScenario()
	sc.Rebalance.Mutation = "typo"
	if err := sc.Validate(); err == nil {
		t.Fatal("unknown mutation passed Validate")
	}
	sc = liveRebalanceScenario()
	sc.Tenants = sc.Tenants[:2]
	if err := sc.Validate(); err == nil {
		t.Fatal("rebalance spec with a single limited hog passed Validate")
	}
	armed := 0
	for seed := uint64(0); seed < 64; seed++ {
		g := GenerateLive(seed)
		if g.Rebalance == nil {
			continue
		}
		armed++
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: generated rebalance scenario invalid: %v", seed, err)
		}
	}
	if armed < 8 || armed > 48 {
		t.Fatalf("generator armed %d/64 live scenarios, want a healthy fraction", armed)
	}
}
