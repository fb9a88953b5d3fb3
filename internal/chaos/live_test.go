package chaos

import (
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

func TestGenerateLiveDeterministicAndValid(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		a, b := GenerateLive(seed), GenerateLive(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: GenerateLive not deterministic:\n%+v\n%+v", seed, a, b)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: generated scenario invalid: %v", seed, err)
		}
		if !a.Tenants[0].Calm || a.Tenants[0].Limit != 0 {
			t.Fatalf("seed %d: first tenant must be the unlimited calm victim, got %+v", seed, a.Tenants[0])
		}
	}
	if reflect.DeepEqual(GenerateLive(1), GenerateLive(2)) {
		t.Fatal("distinct seeds generated identical scenarios")
	}
}

func TestLiveScenarioValidate(t *testing.T) {
	good := GenerateLive(1)
	bad := []func(sc *LiveScenario){
		func(sc *LiveScenario) { sc.Window = 0 },
		func(sc *LiveScenario) { sc.HostileRounds, sc.CalmRounds = 0, 0 },
		func(sc *LiveScenario) { sc.Grace = -1 },
		func(sc *LiveScenario) { sc.Think = -1 },
		func(sc *LiveScenario) { sc.Faults.StallFor = -1 },
		func(sc *LiveScenario) { sc.Tenants = nil },
		func(sc *LiveScenario) { sc.Tenants[1].Name = sc.Tenants[0].Name },
		func(sc *LiveScenario) { sc.Tenants[0].Limit = 1.5 },
		func(sc *LiveScenario) { sc.Faults.PanicRate = 2 },
		func(sc *LiveScenario) { sc.Breakers = &LiveBreakerSpec{OpenAfter: 0} },
		func(sc *LiveScenario) {
			sc.Watchdog = &LiveWatchdogSpec{ClampLimit: 0, BackoffTicks: 1, MaxBackoffTicks: 1}
		},
		func(sc *LiveScenario) {
			sc.Watchdog = &LiveWatchdogSpec{ClampLimit: 0.5, BackoffTicks: 4, MaxBackoffTicks: 2}
		},
	}
	for i, mutate := range bad {
		sc := GenerateLive(1)
		sc.Tenants = slices.Clone(good.Tenants)
		mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("mutation %d: Validate accepted a broken scenario", i)
		}
	}
}

// TestRunLiveCleanAndConserving runs a handful of generated scenarios
// and checks the structural properties of a clean result: the ledgers
// balance and the double-run digest is stable.
func TestRunLiveCleanAndConserving(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		sc := GenerateLive(seed)
		r, err := RunLiveChecked(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.Failed() {
			t.Fatalf("seed %d: violations: %v", seed, r.Violations)
		}
		var issued, accounted uint64
		for _, led := range r.Tenants {
			issued += led.Issued
			accounted += led.Served + led.Shed + led.Panicked
		}
		if issued == 0 || issued != accounted {
			t.Fatalf("seed %d: ledger issued=%d accounted=%d", seed, issued, accounted)
		}
	}
}

// TestRunLiveClosedLoopEngages pins one seed whose scenario drives the
// watchdog through a full clamp/restore cycle — the harness must
// actually exercise the loop it claims to fuzz.
func TestRunLiveClosedLoopEngages(t *testing.T) {
	// Seed 5 draws a watchdog and a hog mix that engages it (asserted
	// here so a generator change that silently loses the coverage fails).
	sc := GenerateLive(5)
	if sc.Watchdog == nil {
		t.Fatal("seed 5 no longer draws a watchdog; pick a new pinned seed")
	}
	r, err := RunLive(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed() {
		t.Fatalf("violations: %v", r.Violations)
	}
	if r.Engagements == 0 || r.Restores != r.Engagements {
		t.Fatalf("closed loop not exercised: engagements=%d restores=%d", r.Engagements, r.Restores)
	}
}

func TestLiveSmokeClean(t *testing.T) {
	if err := LiveSmoke(10, 1); err != nil {
		t.Fatal(err)
	}
}

func TestLiveScenarioRoundTrip(t *testing.T) {
	sc := GenerateLive(42)
	path := filepath.Join(t.TempDir(), "live-repro-42.json")
	if err := sc.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLiveScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, got) {
		t.Fatalf("round trip changed the scenario:\nwrote %+v\nread  %+v", sc, got)
	}
	if _, err := LoadLiveScenario(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

// TestShrinkLiveKeepsCleanScenario: when no candidate reproduces the
// class, ShrinkLive must return the scenario unchanged — it never
// "shrinks" into a different failure.
func TestShrinkLiveKeepsCleanScenario(t *testing.T) {
	sc := GenerateLive(3)
	got := ShrinkLive(sc, "live-starvation")
	if !reflect.DeepEqual(sc, got) {
		t.Fatalf("shrinking a clean scenario changed it:\n%+v\n%+v", sc, got)
	}
	checkReproGolden(t, "shrink_live_clean.json", got)
}

func TestClassifyLiveClasses(t *testing.T) {
	cases := map[string]string{
		"live-conservation: issued 10 != served 9 + shed 0 + panicked 0":                     "live-conservation",
		"live-leak: drain clean=false leaked=1 inflight=1":                                   "live-leak",
		"live-oscillation: watchdog engaged 2 time(s) during the settled calm phase":         "live-oscillation",
		"live-starvation: unlimited calm tenant \"good\" issued 8 request(s), none admitted": "live-starvation",
		"missed-detection: cpu-busy sustained but never raised":                              "missed-detection",
		"rebalance-conservation: pool cpu allocates 0.9, saved 1":                            "rebalance-conservation",
		"rebalance-starvation: member 0 below its floor":                                     "rebalance-starvation",
		"rebalance-oscillation: 4 sign flips, still armed":                                   "rebalance-oscillation",
		"determinism: run hashes differ: 0000000000000001 vs 0000000000000002":               "determinism",
	}
	for v, want := range cases {
		if got := Classify(v); got != want {
			t.Errorf("Classify(%q) = %q, want %q", v, got, want)
		}
	}
}
