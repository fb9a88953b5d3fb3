package chaos

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rescon/internal/fault"
	"rescon/internal/sim"
)

// checkReproGolden writes sc as its JSON repro file and compares the
// bytes against testdata/name.
func checkReproGolden(t *testing.T, name string, sc interface{ WriteFile(string) error }) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := sc.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the golden:\n--- got\n%s--- want\n%s", name, got, want)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(5), Generate(5)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Generate(5) not deterministic:\n%+v\nvs\n%+v", a, b)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated scenario invalid: %v", err)
	}
	// Nearby seeds must differ somewhere.
	c := Generate(6)
	if reflect.DeepEqual(a, c) {
		t.Fatal("Generate(5) == Generate(6)")
	}
}

func TestGeneratedScenariosBuildAndRun(t *testing.T) {
	// Every generated scenario must build (the generator respects the
	// container layer's structural rules). Truncated horizons keep this
	// a build-path check, not a full chaos run.
	n := 20
	if testing.Short() {
		n = 6
	}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		sc := Generate(seed)
		sc.Horizon = 50 * sim.Millisecond
		if _, err := Run(sc); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestSmokeAllModes(t *testing.T) {
	runs := 2
	if testing.Short() {
		runs = 1
	}
	if err := Smoke(runs, 1); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	good := Generate(3)
	cases := map[string]func(*Scenario){
		"bad mode":         func(sc *Scenario) { sc.Mode = "turbo" },
		"zero cpus":        func(sc *Scenario) { sc.CPUs = 0 },
		"zero horizon":     func(sc *Scenario) { sc.Horizon = 0 },
		"bad mutation":     func(sc *Scenario) { sc.Mutation = "gremlins" },
		"bad kind":         func(sc *Scenario) { sc.Workloads = []WorkloadSpec{{Kind: "ddos"}} },
		"forward parent":   func(sc *Scenario) { sc.Containers = []ContainerSpec{{Name: "x", Parent: 0}} },
		"bad crash":        func(sc *Scenario) { sc.Crash = &CrashSpec{} },
		"flood no rate":    func(sc *Scenario) { sc.Workloads = []WorkloadSpec{{Kind: WorkFlood}} },
		"negative rate":    func(sc *Scenario) { sc.Workloads = []WorkloadSpec{{Kind: WorkFlood, Rate: -1}} },
		"overflowing rate": func(sc *Scenario) { sc.Workloads = []WorkloadSpec{{Kind: WorkFlood, Rate: 1e-300}} },
		"negative count":   func(sc *Scenario) { sc.Workloads = []WorkloadSpec{{Kind: WorkClients, Count: -1}} },
		"negative think":   func(sc *Scenario) { sc.Workloads = []WorkloadSpec{{Kind: WorkClients, Think: -1}} },
		"negative cgi":     func(sc *Scenario) { sc.Workloads = []WorkloadSpec{{Kind: WorkCGI, CGICPU: -1}} },
		"negative downtime": func(sc *Scenario) {
			sc.Crash = &CrashSpec{MTBF: sim.Second, Downtime: -1}
		},
		"timeshare parent": func(sc *Scenario) {
			sc.Containers = []ContainerSpec{{Name: "a", Parent: -1}, {Name: "b", Parent: 0}}
		},
	}
	for name, mutate := range cases {
		sc := good
		mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, sc)
		}
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := Generate(11)
	sc.Mutation = MutationPhantomCPU
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := sc.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, got) {
		t.Fatalf("round trip changed scenario:\n%+v\nvs\n%+v", sc, got)
	}
	_, err = LoadScenario(filepath.Join(t.TempDir(), "missing.json"))
	if err == nil || !strings.HasPrefix(err.Error(), "chaos: reading repro: ") {
		t.Fatalf("loading a missing file: %v, want a chaos: reading repro error", err)
	}
}

// TestLoadReproRejectsUnknownFields: a hand-edited repro with a
// misspelled or retired field must fail to load rather than silently
// run a different scenario, while every committed repro still loads.
func TestLoadReproRejectsUnknownFields(t *testing.T) {
	load := func(path string) error {
		if strings.Contains(path, "live") {
			_, err := LoadLiveScenario(path)
			return err
		}
		_, err := LoadScenario(path)
		return err
	}
	committed, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(committed) == 0 {
		t.Fatalf("no committed repros: %v", err)
	}
	for _, path := range committed {
		if err := load(path); err != nil {
			t.Errorf("committed repro %s: %v", path, err)
		}
	}

	dir := t.TempDir()
	for _, tc := range []struct{ file, old, new, want string }{
		{"shrink_rebalance.json", `"rebalance": {}`, `"rebalance": {"cooldown_tick": 3}`, `unknown field "cooldown_tick"`},
		{"shrink_live_rebalance.json", `"mutation": "no-disarm"`, `"mutation": "no-disarm", "calm_ticks": 2`, `unknown field "calm_ticks"`},
		{"shrink_live_clean.json", `"seed"`, `"sed": 1, "seed"`, `unknown field "sed"`},
		{"shrink_phantom_cpu.json", "}\n", "}\n{}\n", "data after the JSON value"},
	} {
		data, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		edited := strings.Replace(string(data), tc.old, tc.new, 1)
		if edited == string(data) {
			t.Fatalf("%s: %q not found", tc.file, tc.old)
		}
		path := filepath.Join(dir, tc.file)
		if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := load(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s edited (%s): load error %v, want %q", tc.file, tc.new, err, tc.want)
		}
	}
}

// TestMutationCaughtAndShrinks is the harness's self-test: a planted
// accounting bug (CPU charged to a ghost principal) must be caught by
// the CPU-conservation invariant, and because the bug is independent of
// the generated scenario, shrinking must strip the scenario down to
// almost nothing while the repro keeps failing identically.
func TestMutationCaughtAndShrinks(t *testing.T) {
	sc := Generate(7)
	sc.Mode = "rc"
	sc.Mutation = MutationPhantomCPU
	r, err := RunChecked(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !r.FailsWith("cpu-conservation") {
		t.Fatalf("phantom-cpu mutation not caught; violations: %v", r.Violations)
	}

	shrunk := Shrink(sc, "cpu-conservation")
	if len(shrunk.Workloads) > 2 || len(shrunk.Containers) > 3 {
		t.Fatalf("shrink left %d workloads, %d containers: %+v",
			len(shrunk.Workloads), len(shrunk.Containers), shrunk)
	}
	if shrunk.Mutation != MutationPhantomCPU {
		t.Fatal("shrink dropped the mutation")
	}
	checkReproGolden(t, "shrink_phantom_cpu.json", shrunk)
	rr, err := Run(shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.FailsWith("cpu-conservation") {
		t.Fatalf("shrunk scenario no longer fails; violations: %v", rr.Violations)
	}

	// Repro replay: the shrunk scenario written to disk and loaded back
	// must reproduce the identical failure hash.
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := shrunk.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(shrunk)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Hash != r2.Hash {
		t.Fatalf("repro replay hash mismatch: %016x vs %016x", r1.Hash, r2.Hash)
	}
	if !reflect.DeepEqual(r1.Violations, r2.Violations) {
		t.Fatalf("repro replay violations differ:\n%v\nvs\n%v", r1.Violations, r2.Violations)
	}
}

func TestClassify(t *testing.T) {
	const at = "fault: invariant violated at 1.5s: "
	cases := map[string]string{
		// fault.Checker's built-in and kernel.WatchInvariants' checks.
		at + "monotonic-clock: clock moved backwards: 2s -> 1s":                                              "monotonic-clock",
		at + "monotonic-clock: fired-event count decreased: 9 -> 8":                                          "monotonic-clock",
		at + `non-negative: container(3 "c" time-share) has negative memory -1`:                              "non-negative",
		at + `hierarchy-conservation: broken at container(1 "r" fixed-share): parent 1ms < children sum 2ms`: "hierarchy-conservation",
		at + "queue-bound: accept:10.0.0.1:80 over bound: 9 > 8":                                             "queue-bound",
		at + "queue-bound: httpd/netq:<nil> over bound: 1026 > 1025":                                         "queue-bound",
		at + "conn-conservation: established 5 != closed 3 + open 1":                                         "conn-conservation",
		at + "item-recycling: free-list slots 0 and 1 hold the same work item":                               "item-recycling",
		// net-pending's messages name a queue; the class is still the
		// check's, not queue-bound.
		at + `net-pending: httpd: listed protocol queue 0 (container(2 "c" time-share)) is empty`: "net-pending",
		at + "net-pending: httpd: pending set [] holds 1 containers with no listed queue":         "net-pending",
		// chaos.Run's checks.
		at + "cpu-conservation: telemetry attributes 2s but machine ran busy 1s + interrupt 0s": "cpu-conservation",
		at + "alert-flap: alert stream flapped (1 total): hysteresis failed to suppress churn":  "alert-flap",
		at + "missed-detection: cpu-busy sustained but never raised":                            "missed-detection",
		at + "isolation-floor: premium stalled":                                                 "isolation-floor",
		at + "rebalance-conservation: pool cpu allocates 0.9, saved 1":                          "rebalance-conservation",
		at + "rebalance-starvation: member 0 below its floor":                                   "rebalance-starvation",
		at + "rebalance-oscillation: 4 sign flips, still armed":                                 "rebalance-oscillation",
		// The determinism double-run, both families.
		"determinism: run hashes differ: 0000000000000001 vs 0000000000000002": "determinism",
		"something else entirely": "unknown",
		at + "no separator":       "unknown",
	}
	for v, want := range cases {
		if got := Classify(v); got != want {
			t.Errorf("Classify(%q) = %q, want %q", v, got, want)
		}
	}

	// The checker's own rendering, at a time with a fraction.
	eng := sim.NewEngine(1)
	eng.RunUntil(sim.Time(1500 * sim.Microsecond))
	ch := fault.NewChecker(eng)
	ch.FailFast = false
	ch.MustWatchCheck("net-pending", func() string { return "httpd: listed protocol queue 0 (c) is empty" })
	ch.Check()
	if v := ch.Violations(); len(v) != 1 || Classify(v[0]) != "net-pending" {
		t.Errorf("checker violations %q, want one of class net-pending", v)
	}
}
