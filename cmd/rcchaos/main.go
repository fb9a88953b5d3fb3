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
			return replayLive(*repro, stdout, stderr)
		}
		return replay(*repro, stdout, stderr)
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
		return liveSweep(*runs, *seed, *out, *workers, *verbose, stdout, stderr)
	}
	return sweep(*runs, *seed, *out, *workers, *verbose, stdout, stderr)
}

// replayLive loads and re-runs a live repro file, printing its outcome.
func replayLive(path string, stdout, stderr io.Writer) int {
	sc, err := chaos.LoadLiveScenario(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	r, err := runLiveChecked(sc)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	fmt.Fprintf(stdout, "live seed %d: hash %016x, %d violation(s)\n",
		sc.Seed, r.Hash, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintln(stdout, "  "+v)
	}
	if r.Failed() {
		return exitViolation
	}
	fmt.Fprintln(stdout, "live repro ran clean (the failure it reproduced is fixed)")
	return exitOK
}

// replay loads and re-runs a repro file, printing its outcome.
func replay(path string, stdout, stderr io.Writer) int {
	sc, err := chaos.LoadScenario(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	r, err := runChecked(sc)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	fmt.Fprintf(stdout, "seed %d mode %s: hash %016x, %d violation(s)\n",
		sc.Seed, sc.Mode, r.Hash, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintln(stdout, "  "+v)
	}
	if r.Failed() {
		return exitViolation
	}
	fmt.Fprintln(stdout, "repro ran clean (the failure it reproduced is fixed)")
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

// sweep runs scenarios seed..seed+runs-1 under every kernel mode,
// fanning cells across workers. Every cell is an independent engine;
// reporting stays in deterministic (seed, mode) order. Each failure is
// shrunk and written as a repro.
func sweep(runs int, seed uint64, out string, workers int, verbose bool, stdout, stderr io.Writer) int {
	cells := make([]cell[chaos.Scenario, *chaos.Result], runs*len(chaos.ModeNames))
	for i := 0; i < runs; i++ {
		sc := chaos.Generate(seed + uint64(i))
		for m, mode := range chaos.ModeNames {
			sc.Mode = mode
			cells[i*len(chaos.ModeNames)+m].sc = sc
		}
	}
	runCells(cells, workers, runChecked)

	failures := 0
	for _, c := range cells {
		switch {
		case c.err != nil:
			failures++
			fmt.Fprintf(stderr, "seed %d mode %s: ERROR: %v\n", c.sc.Seed, c.sc.Mode, c.err)
		case c.res.Failed():
			failures++
			fmt.Fprintf(stdout, "seed %d mode %s: FAIL (%d violation(s), classes %v)\n",
				c.sc.Seed, c.sc.Mode, len(c.res.Violations), c.res.Classes())
			fmt.Fprintln(stdout, "  "+c.res.Violations[0])
			writeRepro(c, out, stdout, stderr)
		case verbose:
			fmt.Fprintf(stdout, "seed %d mode %s: ok (hash %016x, %d conns, %d completed)\n",
				c.sc.Seed, c.sc.Mode, c.res.Hash, c.res.Established, c.res.Completed)
		}
	}
	fmt.Fprintf(stdout, "chaos: %d scenario(s) × %d mode(s): %d failure(s)\n",
		runs, len(chaos.ModeNames), failures)
	if failures > 0 {
		return exitViolation
	}
	return exitOK
}

// liveSweep runs live scenarios seed..seed+runs-1, fanning cells across
// workers. Each cell is an isolated runtime on its own virtual clock;
// reporting stays in seed order. Each failure is shrunk and written as
// a live repro.
func liveSweep(runs int, seed uint64, out string, workers int, verbose bool, stdout, stderr io.Writer) int {
	cells := make([]cell[chaos.LiveScenario, *chaos.LiveResult], runs)
	for i := range cells {
		cells[i].sc = chaos.GenerateLive(seed + uint64(i))
	}
	runCells(cells, workers, runLiveChecked)

	failures := 0
	for _, c := range cells {
		switch {
		case c.err != nil:
			failures++
			fmt.Fprintf(stderr, "live seed %d: ERROR: %v\n", c.sc.Seed, c.err)
		case c.res.Failed():
			failures++
			fmt.Fprintf(stdout, "live seed %d: FAIL (%d violation(s))\n", c.sc.Seed, len(c.res.Violations))
			fmt.Fprintln(stdout, "  "+c.res.Violations[0])
			writeLiveRepro(c, out, stdout, stderr)
		case verbose:
			fmt.Fprintf(stdout, "live seed %d: ok (hash %016x, served %d, shed %d, wd %d/%d)\n",
				c.sc.Seed, c.res.Hash, c.res.Served, c.res.Shed, c.res.Engagements, c.res.Restores)
		}
	}
	fmt.Fprintf(stdout, "chaos: %d live scenario(s): %d failure(s)\n", runs, failures)
	if failures > 0 {
		return exitViolation
	}
	return exitOK
}

// writeLiveRepro shrinks a failing live cell and writes the minimal
// scenario as an indented JSON repro file.
func writeLiveRepro(c cell[chaos.LiveScenario, *chaos.LiveResult], out string, stdout, stderr io.Writer) {
	class := chaos.Classify(c.res.Violations[0])
	shrunk := shrinkLiveFn(c.sc, class)
	path := filepath.Join(out, fmt.Sprintf("live-repro-%d.json", c.sc.Seed))
	if err := shrunk.WriteFile(path); err != nil {
		fmt.Fprintf(stderr, "  writing repro: %v\n", err)
		return
	}
	fmt.Fprintf(stdout, "  shrunk to %d tenant(s), %d+%d round(s); repro: %s\n",
		len(shrunk.Tenants), shrunk.HostileRounds, shrunk.CalmRounds, path)
}

// writeRepro shrinks a failing cell and writes the minimal scenario as
// an indented JSON repro file.
func writeRepro(c cell[chaos.Scenario, *chaos.Result], out string, stdout, stderr io.Writer) {
	class := c.res.Classes()[0]
	shrunk := shrinkFn(c.sc, class)
	path := filepath.Join(out, fmt.Sprintf("chaos-repro-%d-%s.json", c.sc.Seed, c.sc.Mode))
	if err := shrunk.WriteFile(path); err != nil {
		fmt.Fprintf(stderr, "  writing repro: %v\n", err)
		return
	}
	fmt.Fprintf(stdout, "  shrunk to %d container(s), %d workload(s); repro: %s\n",
		len(shrunk.Containers), len(shrunk.Workloads), path)
}
