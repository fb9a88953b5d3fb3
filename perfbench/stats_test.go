package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPctUsesP99OnlyWithTenBeyond(t *testing.T) {
	// 1000 samples: the nearest-rank p99 is sample 990, and exactly 10 lie
	// beyond it.
	r := pct(seq(1000), 0.99)
	if r.Q != 0.99 || r.Value != 990 || r.N != 1000 {
		t.Fatalf("pct(1..1000, p99) = %+v, want p99 = 990 over 1000", r)
	}
	// 999 samples leave only 9 beyond p99: fall back to p95, with 49
	// beyond, and say so.
	r = pct(seq(999), 0.99)
	if r.Q != 0.95 || r.Value != 950 || r.N != 999 {
		t.Fatalf("pct(1..999, p99) = %+v, want fallback to p95 = 950", r)
	}
	// 15 samples support no tail at all: only the median remains.
	r = pct(seq(15), 0.99)
	if r.Q != 0.5 || r.Value != 8 {
		t.Fatalf("pct(1..15, p99) = %+v, want the median 8", r)
	}
	// The highest tail reported for 100 000 samples is p99.9.
	if r := highestTail(seq(100000)); r.Q != 0.999 || r.Value != 99900 {
		t.Fatalf("highestTail(1..100000) = %+v, want p99.9 = 99900", r)
	}
}

func TestWindowPctIsMedianOfWindows(t *testing.T) {
	win := func(base float64) []float64 {
		w := seq(1000)
		for i := range w {
			w[i] += base
		}
		return w
	}
	// One stalled window (every sample 100 higher) does not move the
	// median of three windows' p99s.
	r := windowPct([][]float64{win(0), win(100), win(0)}, 0.99)
	if r.Value != 990 || r.N != 3000 || r.Q != 0.99 {
		t.Fatalf("windowPct = %+v, want 990 over 3000 samples", r)
	}
	// A short window drags the reported percentile down to what it can
	// support.
	r = windowPct([][]float64{win(0), seq(500)}, 0.99)
	if r.Q != 0.95 {
		t.Fatalf("windowPct with a 500-sample window reports p%v, want p95", 100*r.Q)
	}
}

// TestDueTimeLatency drives the open-loop generator against a server
// whose first request stalls: the requests that fell due during the stall
// are charged the wait from their due time, not from when they were sent.
func TestDueTimeLatency(t *testing.T) {
	p := testLive()
	lr, err := startLive(p, runConfig{seed: 1}, newRand(1), newMemSampler(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lr.shutdown()
	lr.s.stallNext(30 * time.Millisecond)
	rr := lr.good.runRung(rung{name: "t", rate: 200}, 300*time.Millisecond, time.Second, newRand(2))
	if rr.sent < 20 || rr.sent != rr.due {
		t.Fatalf("sent %d of %d due", rr.sent, rr.due)
	}
	lat := pooled(rr.windows)
	stalled := 0
	for _, l := range lat {
		if l >= 10 {
			stalled++
		}
	}
	// The stalled request itself took >= 30 ms from due; at 200 req/s
	// several more fell due behind it and waited too.
	if stalled < 2 {
		t.Fatalf("only %d requests charged >= 10 ms; latencies %v", stalled, lat[:10])
	}
	// The generator itself was never late: the wait is the server's.
	if late := pct(rr.late, 0.5); late.Value > 5 {
		t.Fatalf("median generator lateness %.3f ms", late.Value)
	}
}

func TestLayerOfLeafFrames(t *testing.T) {
	for fn, want := range map[string]string{
		"rescon/internal/sched.(*Scheduler).Pick":      "sched",
		"rescon/internal/sim.(*Engine).RunUntil":       "sim",
		"rescon/internal/rcruntime.(*Enforcer).Charge": "rcruntime",
		"rescon/internal/fault.(*Checker).Check":       "other",
		"rescon.NewSim":                                "other",
		"net/http.(*conn).serve":                       "net_http",
		"net/textproto.(*Reader).ReadLine":             "net_http",
		"internal/runtime/syscall.Syscall6":            "syscall",
		"syscall.RawSyscall6":                          "syscall",
		"runtime.mallocgc":                             "malloc",
		"runtime.scanobject":                           "gc",
		"runtime.gcDrain":                              "gc",
		"runtime.futex":                                "runtime",
		"main.burnCPU":                                 "perfbench",
		"sort.insertionSort":                           "other",
		"fmt.(*pp).doPrintf":                           "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

// TestLeafSharesOfARealProfile profiles a busy loop in this package and
// one under the load-generator label, decodes the profile, and finds each
// in its row.
func TestLeafSharesOfARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler unavailable:", err)
	}
	spinForProfile(300 * time.Millisecond)
	asLoadgen(func() { spinForProfile(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	shares, n, err := leafShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n < 20 {
		t.Skipf("only %d samples", n)
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v", sum)
	}
	// time.Now's own frames land in "other"; the rest is the loop.
	if shares["perfbench"]+shares["other"] < 0.3 || shares["loadgen"] < 0.3 {
		t.Fatalf("shares %v: want the plain loop under perfbench/other and the labelled one under loadgen", shares)
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, names, units []string) {
		if len(got) != len(names) {
			t.Fatalf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(got), len(names))
		}
		for i, d := range got {
			if d.name != names[i] || d.unit != units[i] {
				t.Errorf("%s %d: code %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, names[i], units[i])
			}
		}
	}
	var n, u []string
	for _, m := range b.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range b.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", perLayer, n, u)
	var wl []string
	for _, w := range b.Workloads {
		wl = append(wl, w.Name)
		if _, err := run(runConfig{workload: w.Name + "-nope"}); err == nil {
			t.Fatalf("unknown workload accepted")
		}
	}
	if got := strings.Join(wl, ","); got != "sim-keepalive,sim-synflood,live-tenants" {
		t.Fatalf("workloads %s", got)
	}
}
