// Command benchjson converts `go test -bench` output on stdin into a
// JSON document, one record per benchmark, for storing perf baselines
// (see `make bench-baseline` and docs/PERFORMANCE.md).
//
//	go test -run - -bench . -benchtime 1x ./... | go run ./cmd/benchjson -o BENCH_baseline.json
//
// With -check it becomes the regression gate instead (`make bench-check`):
// the fresh run on stdin is compared against a stored baseline, failing on
// any benchmark whose ns/op regressed beyond -tol, on baseline benchmarks
// missing from the run, and on any allocation on the pinned hot paths —
// those must stay at exactly 0 allocs/op regardless of tolerance.
//
//	go test -run - -bench . -benchmem ./... | go run ./cmd/benchjson -check BENCH_baseline.json -tol 0.20
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line. NsPerOp is always present; the
// allocation columns appear only when the benchmark reports them
// (b.ReportAllocs or -benchmem).
type Result struct {
	Package     string   `json:"package"`
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// parse consumes `go test -bench` output. Benchmark lines precede the
// `ok <package> <time>` line of their package, so results are buffered
// until the package name is known.
func parse(lines *bufio.Scanner) ([]Result, error) {
	var out []Result
	var pending []Result
	for lines.Scan() {
		line := strings.TrimSpace(lines.Text())
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "Benchmark") && len(fields) >= 4:
			r, ok := parseBench(fields)
			if !ok {
				continue
			}
			pending = append(pending, r)
		case len(fields) >= 2 && fields[0] == "ok":
			for i := range pending {
				pending[i].Package = fields[1]
			}
			out = append(out, pending...)
			pending = pending[:0]
		}
	}
	if err := lines.Err(); err != nil {
		return nil, err
	}
	// Trailing results with no ok line (e.g. a failed package) keep an
	// empty package rather than being dropped silently.
	out = append(out, pending...)
	return out, nil
}

// parseBench parses one benchmark line:
//
//	BenchmarkName-8   123   456.7 ns/op   8 B/op   1 allocs/op
func parseBench(fields []string) (Result, bool) {
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the -GOMAXPROCS suffix if numeric.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters}
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
			seenNs = true
		case "B/op":
			b := v
			r.BytesPerOp = &b
		case "allocs/op":
			a := v
			r.AllocsPerOp = &a
		}
	}
	return r, seenNs
}

// hotPaths are the allocation-free simulator inner loops pinned by
// docs/PERFORMANCE.md: tolerance never applies to them — one alloc/op on
// any of these multiplies into millions of allocations per experiment,
// so the gate is hard zero.
var hotPaths = []struct{ pkg, name string }{
	{"rescon", "BenchmarkSimEngineEventChurn"},
	{"rescon/internal/netsim", "BenchmarkQueuePushPop"},
	{"rescon/internal/rc", "BenchmarkChargeCPUDepth3"},
	{"rescon/internal/rc", "BenchmarkSetAttributesChurn"},
	{"rescon/internal/sched", "BenchmarkPick8Entities"},
	{"rescon/internal/sched", "BenchmarkPickEventServer"},
	{"rescon/internal/sim", "BenchmarkEventCancelFarFuture"},
	{"rescon/internal/sim", "BenchmarkWheelChurn1MPending"},
	{"rescon/internal/kernel", "BenchmarkConnCycle100kOpen"},
	{"rescon/internal/kernel", "BenchmarkBogusSYNDrop"},
	{"rescon/internal/kernel", "BenchmarkChargeSlice10kConns"},
	{"rescon/internal/httpsim", "BenchmarkServeKeepAliveRequest"},
}

// compare diffs a fresh run against the baseline. Failures are gate
// violations (regressions past tol, vanished benchmarks, hot-path
// allocations); notes are informational (big improvements worth a
// baseline refresh, benchmarks the baseline does not know yet).
func compare(baseline, current []Result, tol float64) (failures, notes []string) {
	byKey := func(rs []Result) map[string]Result {
		m := make(map[string]Result, len(rs))
		for _, r := range rs {
			m[r.Package+"."+r.Name] = r
		}
		return m
	}
	cur := byKey(current)
	base := byKey(baseline)

	for _, b := range baseline {
		key := b.Package + "." + b.Name
		c, ok := cur[key]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but missing from this run", key))
			continue
		}
		if b.NsPerOp > 0 {
			ratio := c.NsPerOp / b.NsPerOp
			switch {
			case ratio > 1+tol:
				failures = append(failures, fmt.Sprintf("%s: %.4g ns/op vs baseline %.4g (+%.0f%%, tolerance %.0f%%)",
					key, c.NsPerOp, b.NsPerOp, (ratio-1)*100, tol*100))
			case ratio < 1-tol:
				notes = append(notes, fmt.Sprintf("%s: %.4g ns/op vs baseline %.4g (%.0f%% faster — refresh the baseline?)",
					key, c.NsPerOp, b.NsPerOp, (1-ratio)*100))
			}
		}
	}
	for _, hp := range hotPaths {
		key := hp.pkg + "." + hp.name
		c, ok := cur[key]
		switch {
		case !ok:
			failures = append(failures, fmt.Sprintf("%s: pinned hot path missing from this run", key))
		case c.AllocsPerOp == nil:
			failures = append(failures, fmt.Sprintf("%s: pinned hot path reported no allocs/op (run with -benchmem)", key))
		case *c.AllocsPerOp != 0:
			failures = append(failures, fmt.Sprintf("%s: %g allocs/op on a pinned hot path, want 0", key, *c.AllocsPerOp))
		}
	}
	// Benchmarks present in the run but unknown to the baseline are
	// skipped with a warning, never a failure: a fresh benchmark must not
	// break the gate before `make bench-baseline` has recorded it.
	for _, c := range current {
		key := c.Package + "." + c.Name
		if _, ok := base[key]; !ok {
			notes = append(notes, fmt.Sprintf("%s: skipped, not in the baseline (record it with `make bench-baseline`)", key))
		}
	}
	return failures, notes
}

// runCheck is the -check mode: exit 0 when the run on stdin holds the
// baseline, 1 on any gate violation.
func runCheck(baselinePath string, tol float64, current []Result) int {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	var baseline []Result
	if err := json.Unmarshal(raw, &baseline); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", baselinePath, err)
		return 2
	}
	failures, notes := compare(baseline, current, tol)
	for _, n := range notes {
		fmt.Printf("note: %s\n", n)
	}
	for _, f := range failures {
		fmt.Printf("FAIL: %s\n", f)
	}
	if len(failures) > 0 {
		fmt.Printf("benchjson: %d regression(s) against %s\n", len(failures), baselinePath)
		return 1
	}
	fmt.Printf("benchjson: %d benchmark(s) within ±%.0f%% of %s, hot paths allocation-free\n",
		len(baseline), tol*100, baselinePath)
	return 0
}

func main() {
	outPath := flag.String("o", "", "output file (default stdout)")
	checkPath := flag.String("check", "", "compare stdin against this baseline JSON instead of converting")
	tol := flag.Float64("tol", 0.20, "ns/op tolerance for -check (0.20 = ±20%)")
	flag.Parse()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	results, err := parse(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(1)
	}
	if *checkPath != "" {
		os.Exit(runCheck(*checkPath, *tol, results))
	}
	enc, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *outPath == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(results), *outPath)
}
