// Command rcchaos drives the deterministic chaos harness: it generates
// seeded scenarios over the simulated resource-container server, runs
// each one under all three kernel modes with the full invariant battery
// (including the alert-flap and missed-detection checks over the alert
// stream, and — on scenarios that arm the adaptive rebalancer — the
// rebalance-conservation, rebalance-starvation and rebalance-oscillation
// classes over the controller's decision journal) and the determinism
// double-run, and — on failure — shrinks the scenario to a minimal
// repro and writes it as JSON.
//
// With -live it fuzzes the real runtime's closed loop instead: seeded
// tenant mixes and request-level fault schedules against the governed
// net/http middleware stack (breakers, monitor, watchdog, drain) under
// a virtual clock, hunting watchdog oscillation, starved victims,
// accounting leaks and nondeterminism.
//
// Usage:
//
//	rcchaos -run 200 -seed 1                 # 200 scenarios × 3 modes
//	rcchaos -live -run 500 -seed 1           # 500 live-runtime scenarios
//	rcchaos -repro chaos-repro-42.json       # replay a shipped repro
//	rcchaos -live -repro live-repro-42.json  # replay a live repro
//
// Exit status distinguishes failure kinds so CI and scripts can react:
// 0 all runs clean, 1 invariant or alert violations, 2 usage or
// configuration errors. Repro files land in -out (default ".") as
// chaos-repro-<seed>-<mode>.json, or live-repro-<seed>.json with -live.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"rescon/internal/chaos"
)

// Exit codes. The distinction lets callers tell "the system is broken"
// (a violation — page someone) from "the invocation is broken" (fix the
// command line) without parsing output.
const (
	exitOK        = 0
	exitViolation = 1 // invariant or alert violations, or an error during a sweep run
	exitUsage     = 2 // usage or configuration errors: bad flags, unreadable repro, missing -out
)

// Test seams: regression tests substitute these to exercise the exit-code
// mapping without constructing a genuinely violating scenario.
var (
	runChecked     = chaos.RunChecked
	shrinkFn       = chaos.Shrink
	runLiveChecked = chaos.RunLiveChecked
	shrinkLiveFn   = chaos.ShrinkLive
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and dispatches to replay or sweep, returning the
// process exit code. It is the whole program minus os.Exit, so tests can
// assert exit codes directly.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rcchaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runs    = fs.Int("run", 20, "number of scenarios to generate and run (each under all three kernel modes)")
		seed    = fs.Uint64("seed", 1, "first scenario seed; scenario i uses seed+i")
		repro   = fs.String("repro", "", "replay a repro JSON file instead of generating scenarios")
		out     = fs.String("out", ".", "directory for repro files of failing scenarios")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel scenario runners (each scenario is internally serial)")
		verbose = fs.Bool("v", false, "print every run, not just failures")
		live    = fs.Bool("live", false, "fuzz the real runtime's closed loop (breakers, watchdog, drain) instead of the simulated kernel")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: rcchaos [flags]\n\nFlags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, `
Exit status:
  0  all runs clean
  1  invariant or alert violations (including a repro that still fails),
     or an error while running a sweep cell
  2  usage or configuration errors: bad flags, -run/-workers < 1, an
     unreadable or invalid -repro file, or a missing -out directory
`)
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "rcchaos: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return exitUsage
	}

	if *repro != "" {
		if *live {
			return replay(liveFamily(), *repro, stdout, stderr)
		}
		return replay(simFamily(), *repro, stdout, stderr)
	}

	if *runs < 1 {
		fmt.Fprintf(stderr, "rcchaos: -run must be >= 1 (got %d)\n", *runs)
		return exitUsage
	}
	if *workers < 1 {
		fmt.Fprintf(stderr, "rcchaos: -workers must be >= 1 (got %d)\n", *workers)
		return exitUsage
	}
	if info, err := os.Stat(*out); err != nil || !info.IsDir() {
		fmt.Fprintf(stderr, "rcchaos: -out %q is not an existing directory\n", *out)
		return exitUsage
	}
	if *live {
		return sweep(liveFamily(), *runs, *seed, *out, *workers, *verbose, stdout, stderr)
	}
	return sweep(simFamily(), *runs, *seed, *out, *workers, *verbose, stdout, stderr)
}

// scenario is what the shared paths need of a scenario type.
type scenario interface{ WriteFile(path string) error }

// family is one scenario family the command drives: the simulated
// kernel, or the real runtime with -live. Replay, sweep and repro
// writing are shared; a family supplies its runners and its wording.
type family[S scenario, R any] struct {
	tag     string                // "live " for the real runtime
	classes bool                  // FAIL lines list the failure classes
	gen     func(seed uint64) []S // one seed's cells
	load    func(path string) (S, error)
	run     func(S) (R, error) // the determinism double-run
	shrink  func(S, string) S
	verdict func(R) (chaos.Violations, uint64)
	label   func(S) string        // names a cell: "seed 1 mode rc"
	ok      func(R) string        // a clean cell's verbose detail
	repro   func(S) string        // a failing cell's repro file name
	shrunk  func(S) string        // what a shrunk repro holds
	total   func(runs int) string // what a sweep covered
}

// simFamily drives chaos.Scenario under every kernel mode. It reads the
// test seams when called, so a stub installed before run takes effect.
func simFamily() family[chaos.Scenario, *chaos.Result] {
	return family[chaos.Scenario, *chaos.Result]{
		classes: true,
		gen:     chaos.GenerateModes,
		load:    chaos.LoadScenario,
		run:     runChecked,
		shrink:  shrinkFn,
		verdict: func(r *chaos.Result) (chaos.Violations, uint64) { return r.Violations, r.Hash },
		label:   func(sc chaos.Scenario) string { return fmt.Sprintf("seed %d mode %s", sc.Seed, sc.Mode) },
		ok: func(r *chaos.Result) string {
			return fmt.Sprintf("%d conns, %d completed", r.Established, r.Completed)
		},
		repro: func(sc chaos.Scenario) string { return fmt.Sprintf("chaos-repro-%d-%s.json", sc.Seed, sc.Mode) },
		shrunk: func(sc chaos.Scenario) string {
			return fmt.Sprintf("%d container(s), %d workload(s)", len(sc.Containers), len(sc.Workloads))
		},
		total: func(runs int) string { return fmt.Sprintf("%d scenario(s) × %d mode(s)", runs, len(chaos.ModeNames)) },
	}
}

// liveFamily drives chaos.LiveScenario on the governed middleware stack.
func liveFamily() family[chaos.LiveScenario, *chaos.LiveResult] {
	return family[chaos.LiveScenario, *chaos.LiveResult]{
		tag:     "live ",
		gen:     func(seed uint64) []chaos.LiveScenario { return []chaos.LiveScenario{chaos.GenerateLive(seed)} },
		load:    chaos.LoadLiveScenario,
		run:     runLiveChecked,
		shrink:  shrinkLiveFn,
		verdict: func(r *chaos.LiveResult) (chaos.Violations, uint64) { return r.Violations, r.Hash },
		label:   func(sc chaos.LiveScenario) string { return fmt.Sprintf("live seed %d", sc.Seed) },
		ok: func(r *chaos.LiveResult) string {
			return fmt.Sprintf("served %d, shed %d, wd %d/%d", r.Served, r.Shed, r.Engagements, r.Restores)
		},
		repro: func(sc chaos.LiveScenario) string { return fmt.Sprintf("live-repro-%d.json", sc.Seed) },
		shrunk: func(sc chaos.LiveScenario) string {
			return fmt.Sprintf("%d tenant(s), %d+%d round(s)", len(sc.Tenants), sc.HostileRounds, sc.CalmRounds)
		},
		total: func(runs int) string { return fmt.Sprintf("%d live scenario(s)", runs) },
	}
}

// replay loads and re-runs a repro file, printing its outcome.
func replay[S scenario, R any](f family[S, R], path string, stdout, stderr io.Writer) int {
	sc, err := f.load(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	r, err := f.run(sc)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	vs, hash := f.verdict(r)
	fmt.Fprintf(stdout, "%s: hash %016x, %d violation(s)\n", f.label(sc), hash, len(vs))
	for _, v := range vs {
		fmt.Fprintln(stdout, "  "+v)
	}
	if vs.Failed() {
		return exitViolation
	}
	fmt.Fprintln(stdout, f.tag+"repro ran clean (the failure it reproduced is fixed)")
	return exitOK
}

// cell is one unit of a sweep: a (scenario, mode) pair, or one live
// scenario with -live.
type cell[S, R any] struct {
	sc  S
	res R
	err error
}

// runCells runs every cell through run, fanning them across workers.
// Every cell is independent, so parallelism never changes results.
func runCells[S, R any](cells []cell[S, R], workers int, run func(S) (R, error)) {
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range work {
				cells[idx].res, cells[idx].err = run(cells[idx].sc)
			}
		}()
	}
	for idx := range cells {
		work <- idx
	}
	close(work)
	wg.Wait()
}

// sweep runs the cells of seeds seed..seed+runs-1, fanning them across
// workers. Every cell is independent; reporting stays in deterministic
// cell order. Each failure is shrunk and written as a repro.
func sweep[S scenario, R any](f family[S, R], runs int, seed uint64, out string, workers int, verbose bool, stdout, stderr io.Writer) int {
	var cells []cell[S, R]
	for i := 0; i < runs; i++ {
		for _, sc := range f.gen(seed + uint64(i)) {
			cells = append(cells, cell[S, R]{sc: sc})
		}
	}
	runCells(cells, workers, f.run)

	failures := 0
	for _, c := range cells {
		if c.err != nil {
			failures++
			fmt.Fprintf(stderr, "%s: ERROR: %v\n", f.label(c.sc), c.err)
			continue
		}
		vs, hash := f.verdict(c.res)
		switch {
		case vs.Failed():
			failures++
			if f.classes {
				fmt.Fprintf(stdout, "%s: FAIL (%d violation(s), classes %v)\n", f.label(c.sc), len(vs), vs.Classes())
			} else {
				fmt.Fprintf(stdout, "%s: FAIL (%d violation(s))\n", f.label(c.sc), len(vs))
			}
			fmt.Fprintln(stdout, "  "+vs[0])
			writeRepro(f, c.sc, vs.Classes()[0], out, stdout, stderr)
		case verbose:
			fmt.Fprintf(stdout, "%s: ok (hash %016x, %s)\n", f.label(c.sc), hash, f.ok(c.res))
		}
	}
	fmt.Fprintf(stdout, "chaos: %s: %d failure(s)\n", f.total(runs), failures)
	if failures > 0 {
		return exitViolation
	}
	return exitOK
}

// writeRepro shrinks a failing scenario, preserving its failure class,
// and writes the minimal scenario as an indented JSON repro file.
func writeRepro[S scenario, R any](f family[S, R], sc S, class, out string, stdout, stderr io.Writer) {
	shrunk := f.shrink(sc, class)
	path := filepath.Join(out, f.repro(sc))
	if err := shrunk.WriteFile(path); err != nil {
		fmt.Fprintf(stderr, "  writing repro: %v\n", err)
		return
	}
	fmt.Fprintf(stdout, "  shrunk to %s; repro: %s\n", f.shrunk(shrunk), path)
}
