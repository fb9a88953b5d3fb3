// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload from a seed, measures for a fixed wall-clock budget,
// checks that the program's outputs are correct, and prints every metric
// by name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is traced (spans around every call into a layer, a CPU profile) and
// the metrics are the per-layer ones. A failed output check prints the
// result with "correct": false and exits 1. See README.md in this
// directory for the workloads and the layer → metric map.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sim-keepalive --seed 1 --seconds 36 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricDef is one metric of the benchmark's contract: its name and unit.
// The lists below must match BENCHMARK.json (a test holds them together).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"req_per_wall_s", "1/s"},
	{"allocs_per_req", "allocs"},
	{"bytes_per_req", "B"},
	{"peak_heap_mb", "MB"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events_per_req", "events"},
		{"sim.ns_per_event", "ns"},
		{"sim.slice_p50_ms", "ms"},
		{"sim.req_per_wall_s_raw", "1/s"},
		{"host.ref_ms", "ms"},
		{"live.req_per_wall_s_raw", "1/s"},
		{"host.echo_rtt_us", "us"},
		{"sim.slice_p99_ms", "ms"},
		{"sim.goodput_vrps", "req/vs"},
		{"sched.runq_mean", "threads"},
		{"kernel.conns_per_vs", "conns/vs"},
		{"kernel.syn_drops_per_vs", "drops/vs"},
		{"kernel.interrupt_frac", "fraction"},
		{"kernel.open_conns_peak", "conns"},
		{"rc.containers_per_req", "containers"},
		{"workload.timeouts", "count"},
		{"workload.retries", "count"},
		{"telemetry.samples", "count"},
		{"alert.events", "count"},
		{"alert.watchdog_engagements", "count"},
		{"rcruntime.mw_self_us.p50", "us"},
		{"rcruntime.mw_self_us.p99", "us"},
		{"rcruntime.bind_ns.p50", "ns"},
		{"rcruntime.admit_delay_ms.p99", "ms"},
		{"rcruntime.shed_frac", "fraction"},
		{"rcruntime.refuse_frac", "fraction"},
		{"rcruntime.tick_us.p99", "us"},
		{"rcruntime.sync_wait_us.p99", "us"},
		{"rcruntime.watchdog_engagements", "count"},
		{"nethttp.outside_us.p50", "us"},
		{"live.light.p50_ms", "ms"},
		{"live.light.p99_ms", "ms"},
		{"live.heavy.p50_ms", "ms"},
		{"live.heavy.p99_ms", "ms"},
		{"live.max_rps", "req/s"},
		{"gc.cycles_per_kreq", "cycles"},
		{"loadgen.late_ms.p99", "ms"},
		{"loadgen.behind", "flag"},
		{"trace_overhead_frac", "fraction"},
		{"error_rate", "fraction"},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu." + l, "fraction"})
	}
	return defs
}()

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// outDir receives the traced run's spans; empty writes none.
	outDir string
	// faults plants deliberate errors so tests can prove that each
	// output check fires. The zero value plants nothing.
	faults plantedFaults
}

// plantedFaults are test-only perturbations of a run.
type plantedFaults struct {
	// perturbSim alters the untraced rounds' simulated counters before
	// the traced rounds' are compared with them.
	perturbSim func(*simCounters)
	// good500 makes the good tenant's handler answer one request with a
	// 500.
	good500 bool
	// unlimitFlood removes the CPU limits of the tenant group and its
	// leaves while the isolation check still holds the group to its limit.
	unlimitFlood bool
}

func (c runConfig) perturb(sc simCounters) simCounters {
	if c.faults.perturbSim != nil {
		sc.ContainerCPU = append([]int64(nil), sc.ContainerCPU...)
		c.faults.perturbSim(&sc)
	}
	return sc
}

// report collects a run's metrics, human-readable notes and failed
// checks.
type report struct {
	attempted, failed int64
	metrics           map[string]float64
	lines             []string
	problems          []string
	spans             []span
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// set records a metric with a note on how it was measured. End-to-end and
// per-layer metrics share one table; the final JSON picks its list.
func (r *report) set(name string, v float64, format string, args ...any) {
	r.metrics[name] = v
	line := fmt.Sprintf("%-32s %14.6g", name, v)
	if format != "" {
		line += "  " + fmt.Sprintf(format, args...)
	}
	r.lines = append(r.lines, line)
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, "  "+fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// cpuShares decodes the traced run's CPU profiles into cpu.<layer> rows.
func (r *report) cpuShares(profs ...[]byte) error {
	shares, n, err := leafShares(profs...)
	if err != nil {
		return err
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += shares[l]
		r.set("cpu."+l, shares[l], "")
	}
	r.note("cpu shares: %d profile samples by leaf-frame package; rows sum to %.4f", n, sum)
	return nil
}

// qLabel renders a quantile as a percentile label: 0.99 → "99".
func qLabel(q float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.1f", 100*q), "0"), ".")
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result assembles the final JSON line. Every metric of the selected list
// is present: a layer that does not run on this workload reports 0.
func (r *report) result(trace bool) (jsonResult, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := jsonResult{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && !trace {
			return out, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		return out, errors.New("nothing was attempted")
	}
	return out, nil
}

func run(cfg runConfig) (*report, error) {
	if p, ok := simWorkloads[cfg.workload]; ok {
		return runSim(p, cfg)
	}
	if cfg.workload == "live-tenants" {
		return runLive(defaultLive(), cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have sim-keepalive, sim-synflood, live-tenants)", cfg.workload)
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: sim-keepalive, sim-synflood or live-tenants")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 36, "wall-clock measurement budget in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
		outDir:   *outDir,
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return emit(rep, cfg, stdout, stderr)
}

// emit prints the human-readable report, writes the spans of a traced run,
// and prints the JSON result as the last line of stdout.
func emit(rep *report, cfg runConfig, stdout, stderr io.Writer) int {
	mode := "untraced: end-to-end metrics"
	if cfg.trace {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%v (%s)\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	if cfg.trace && len(rep.spans) > 0 {
		printSpanTable(stdout, summarize(rep.spans))
		if cfg.outDir != "" {
			path, err := saveSpans(cfg, rep.spans)
			if err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 2
			}
			fmt.Fprintf(stdout, "spans: %d written to %s\n", len(rep.spans), path)
		}
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	res, err := rep.result(cfg.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printSpanTable(w io.Writer, stats []spanStat) {
	fmt.Fprintf(w, "%-24s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range stats {
		fmt.Fprintf(w, "%-24s %9d %12.3f %12.3f\n", s.Name, s.Count,
			float64(s.Total)/1e6, float64(s.Own)/1e6)
	}
}

func saveSpans(cfg runConfig, spans []span) (string, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return "", fmt.Errorf("span dir: %w", err)
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return "", fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	return path, nil
}
