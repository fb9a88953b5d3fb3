package chaos

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

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
	cases := map[string]string{
		"fault: invariant violated at 1s: cpu-conservation: telemetry attributes 2s": "cpu-conservation",
		"fault: invariant violated at 1s: conn-conservation: established 5 != ...":   "conn-conservation",
		"fault: invariant violated at 1s: isolation-floor: premium stalled":          "isolation-floor",
		"fault: invariant violated at 1s: item-recycling: free-list slot 0 reused":   "item-recycling",
		"determinism: run hashes differ":                                             "determinism",
		`fault: invariant violated at 1s: queue "x" over bound: 9 > 8`:               "queue-bound",
		"fault: invariant violated at 1s: container c has negative memory -1":        "non-negative",
		"fault: invariant violated at 1s: clock moved backwards":                     "monotonic-clock",
		"fault: invariant violated at 1s: CPU conservation broken at c":              "hierarchy-conservation",
		"something else entirely":                                                    "unknown",
	}
	for v, want := range cases {
		if got := Classify(v); got != want {
			t.Errorf("Classify(%q) = %q, want %q", v, got, want)
		}
	}
}
