package chaos

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rescon/internal/sim"
)

// loadBytes writes data to a repro file and loads it with load.
func loadBytes[S any](t *testing.T, data []byte, load func(string) (S, error)) (S, error) {
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return load(path)
}

// FuzzLoadScenario: whatever LoadScenario accepts, Run runs without a
// panic. The horizon, machine and load are clamped so that each run
// stays short; the loader's verdict is taken on the unclamped file.
// The corpus under testdata/fuzz holds the repros that used to load and
// then crash the runner.
func FuzzLoadScenario(f *testing.F) {
	sc := Generate(3)
	sc.Horizon = 50 * sim.Millisecond
	f.Add(marshal(f, sc))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := loadBytes(t, data, LoadScenario)
		if err != nil {
			return
		}
		sc.Horizon = min(sc.Horizon, 50*sim.Millisecond)
		sc.CPUs = min(sc.CPUs, 4)
		for i := range sc.Workloads {
			w := &sc.Workloads[i]
			w.Count = min(w.Count, 64)
			w.Rate = min(w.Rate, 20_000)
		}
		if c := sc.Crash; c != nil {
			c.MTBF = max(c.MTBF, 10*sim.Millisecond)
		}
		if _, err := Run(sc); err != nil {
			t.Logf("accepted scenario failed to build: %v", err)
		}
	})
}

// FuzzLoadLiveScenario: whatever LoadLiveScenario accepts, RunLive runs
// without a panic and without its virtual clock running backwards, with
// the rounds and the per-round load clamped.
func FuzzLoadLiveScenario(f *testing.F) {
	f.Add(marshal(f, GenerateLive(1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := loadBytes(t, data, LoadLiveScenario)
		if err != nil {
			return
		}
		sc.HostileRounds = min(sc.HostileRounds, 4)
		sc.CalmRounds = min(sc.CalmRounds, 8)
		for i := range sc.Tenants {
			sc.Tenants[i].Requests = min(sc.Tenants[i].Requests, 8)
		}
		res, err := RunLive(sc)
		if err != nil {
			t.Logf("accepted scenario failed to build: %v", err)
		} else if res.Elapsed < 0 {
			t.Fatalf("virtual time ran backwards: elapsed %v", res.Elapsed)
		}
	})
}

// marshal renders sc as a seed input.
func marshal(f *testing.F, sc any) []byte {
	data, err := json.Marshal(sc)
	if err != nil {
		f.Fatal(err)
	}
	return data
}
