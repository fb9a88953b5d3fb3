package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// testLive is the live workload shrunk for tests: fewer leaves, one boot,
// a two-rung ladder and short windows. The flood burns 1 ms per request,
// so with its limits removed it offers about twice the group's limit.
func testLive() liveParams {
	p := defaultLive()
	p.leaves = 20
	p.setups = 1
	p.burn = time.Millisecond
	p.shareSlack = 0.05 // one 1 ms burn per 20 ms window
	p.ladder = []rung{{"light", 500, 1}, {"heavy", 1000, 2}}
	p.windowSamples = 250
	p.capacity = 400 * time.Millisecond
	p.capWin = 100 * time.Millisecond
	return p
}

func liveRunFor(t *testing.T, faults plantedFaults) *report {
	t.Helper()
	if testing.Short() {
		t.Skip("runs a live server for seconds")
	}
	rep, err := runLive(testLive(), runConfig{workload: "live-tenants", seed: 7, seconds: 2 * time.Second, faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func wantProblem(t *testing.T, rep *report, substr string) {
	t.Helper()
	for _, p := range rep.problems {
		if strings.Contains(p, substr) {
			return
		}
	}
	t.Fatalf("no check failure mentioning %q; problems: %q", substr, rep.problems)
}

// wantExit1 renders the report as the command would and checks that the
// run is reported incorrect and exits 1.
func wantExit1(t *testing.T, rep *report, cfg runConfig) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := emit(rep, cfg, &out, &errOut); code != 1 {
		t.Fatalf("exit code %d, want 1 (stderr %q)", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if res.Correct {
		t.Fatal(`result says "correct": true`)
	}
}

func TestLiveCleanRunPassesEveryCheck(t *testing.T) {
	rep := liveRunFor(t, plantedFaults{})
	if len(rep.problems) > 0 {
		t.Fatalf("clean run failed checks: %q", rep.problems)
	}
	if rep.attempted < 100 || rep.failed != 0 {
		t.Fatalf("attempted %d failed %d", rep.attempted, rep.failed)
	}
	for _, d := range endToEnd {
		if v, ok := rep.metrics[d.name]; !ok || v <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v)
		}
	}
}

func TestLiveCheckFiresOnOne500(t *testing.T) {
	rep := liveRunFor(t, plantedFaults{good500: true})
	wantProblem(t, rep, "good tenant: 1 of")
	if rep.failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.failed)
	}
	wantExit1(t, rep, runConfig{workload: "live-tenants", seed: 7})
}

func TestLiveCheckFiresWhenFloodExceedsLimit(t *testing.T) {
	rep := liveRunFor(t, plantedFaults{unlimitFlood: true})
	wantProblem(t, rep, "isolation: tenant group charged")
	wantExit1(t, rep, runConfig{workload: "live-tenants", seed: 7})
}

func TestSimCheckFiresOnPerturbedCounter(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator twice")
	}
	cfg := runConfig{workload: "sim-keepalive", seed: 3, seconds: 500 * time.Millisecond, trace: true}
	p := simWorkloads["sim-keepalive"]
	p.roundSlices, p.goodputSlices = 20, 10
	rep, err := runSim(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.problems) > 0 {
		t.Fatalf("clean traced run failed checks: %q", rep.problems)
	}
	cfg.faults.perturbSim = func(c *simCounters) { c.Completed++ }
	rep, err = runSim(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantProblem(t, rep, "disagree: completed requests")
	wantExit1(t, rep, cfg)

	cfg.faults.perturbSim = func(c *simCounters) { c.ContainerCPU[0]++ }
	rep, err = runSim(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantProblem(t, rep, "disagree: container 0 CPU")
}
