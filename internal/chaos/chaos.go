// Package chaos is the deterministic chaos harness: it generates
// randomized-but-reproducible scenarios over the simulated server
// (container hierarchies with degenerate shapes, adversarial workload
// mixes, fault and crash schedules, all three kernel modes), runs them
// under a battery of cross-cutting invariants, and shrinks any failure
// to a minimal JSON repro.
//
// The design follows the simulation-testing school (FoundationDB,
// Antithesis): because the whole system — kernel, network, disk,
// clients, attackers — runs on one discrete-event engine seeded from a
// single integer, a failing run is a pure function of its Scenario and
// can be replayed, bisected and shrunk mechanically.
//
// Every invariant is a named check, and a violation's failure class is
// the name its check was registered under (see Classify). The classes
// are fault.Checker's built-in monotonic-clock; kernel.WatchInvariants'
// non-negative, hierarchy-conservation, queue-bound, conn-conservation
// (connections established == closed + open, at every checker tick),
// item-recycling and net-pending; the live harness's live-conservation,
// live-leak, live-oscillation and live-starvation (live.go); and the
// battery Run adds:
//
//   - cpu-conservation: the telemetry profile's attributed processor
//     time must equal the machine's busy + interrupt time (every cycle
//     charged to some principal, no cycle charged twice) — the paper's
//     central accounting claim, checked to cpuEpsilon.
//   - isolation-floor: when the scheduler is container-driven and
//     nothing external (crashes, wire faults, disk queues) can stall
//     it, a high-priority container with runnable work must make
//     progress whenever the machine does.
//   - alert-flap: the alert monitor's flap counter stays zero — the
//     hysteresis/damping pipeline must absorb every oscillation the
//     scenario throws at it.
//   - missed-detection: the monitor's self-check stays clean — any
//     signal that sustained a threshold long enough to raise must have
//     produced the corresponding event.
//   - Rebalance safety (scenarios that arm the adaptive rebalancer):
//     rebalance-conservation — the controller's pool allocations sum
//     exactly to the saved static total at every quiet point;
//     rebalance-starvation — no governed container ever sits below its
//     starvation floor; rebalance-oscillation — a controller whose
//     sign-flip count reaches the detector threshold must have
//     disarmed, and a disarmed controller must have restored the saved
//     static attributes verbatim. The planted-bug mutations
//     (MutationRebalance*) prove each class actually fires.
//   - determinism: re-running a scenario must produce a byte-identical
//     state digest (RunChecked), alert stream and rebalance decision
//     journal included.
//
// Entry points: Generate (seed → Scenario), Run / RunChecked (Scenario
// → Result), Shrink (failing Scenario → minimal Scenario), Smoke (the
// CI loop). The rcchaos command wraps them for the command line.
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"slices"
	"strings"
)

// checkerPrefix opens every violation fault.Checker records; the time
// of the check follows it, then ": ".
const checkerPrefix = "fault: invariant violated at "

// Classify maps a violation string to its failure class, the unit of
// "fails the same way" used by Shrink and the rcchaos triage output.
// The class is the name the violated check was registered under: the
// name after the checker's "fault: invariant violated at <time>: "
// prefix, or the name at the start of the message for the violations a
// harness records itself ("<class>: <description>"). A message naming
// no class is "unknown".
func Classify(v string) string {
	if rest, ok := strings.CutPrefix(v, checkerPrefix); ok {
		_, v, _ = strings.Cut(rest, ": ")
	}
	class, _, ok := strings.Cut(v, ": ")
	if !ok {
		return "unknown"
	}
	return class
}

// Violations are the invariant violations one run recorded; empty
// means the run was clean. Result and LiveResult embed them.
type Violations []string

// Failed reports whether any invariant was violated.
func (vs Violations) Failed() bool { return len(vs) > 0 }

// FailsWith reports whether any violation belongs to the given class
// (see Classify).
func (vs Violations) FailsWith(class string) bool {
	for _, v := range vs {
		if Classify(v) == class {
			return true
		}
	}
	return false
}

// Classes summarizes the violations as their distinct failure classes,
// in first-occurrence order.
func (vs Violations) Classes() []string {
	var out []string
	seen := make(map[string]bool)
	for _, v := range vs {
		c := Classify(v)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// digest finishes a run's state digest: it writes the violations to h
// in sorted order and returns the sum. Sorted, so the digest depends on
// which violations a run recorded, not on the order its checks
// reported them in.
func (vs Violations) digest(h hash.Hash64) uint64 {
	sorted := slices.Clone(vs)
	slices.Sort(sorted)
	for _, v := range sorted {
		fmt.Fprintln(h, v)
	}
	return h.Sum64()
}

// outcome is what the shared harness core needs of a run's result: its
// violations and its state digest.
type outcome interface {
	verdict() (*Violations, uint64)
}

// runChecked runs sc twice from scratch and, if the two digests differ,
// adds the violation "determinism: run hashes differ: …" to the first
// run's result, which it returns — the FoundationDB-style check that a
// run really is a pure function of its scenario.
func runChecked[S any, R outcome](sc S, run func(S) (R, error)) (R, error) {
	r1, err := run(sc)
	if err != nil {
		return r1, err
	}
	r2, err := run(sc)
	if err != nil {
		return r2, err
	}
	vs, h1 := r1.verdict()
	if _, h2 := r2.verdict(); h1 != h2 {
		*vs = append(*vs, fmt.Sprintf("determinism: run hashes differ: %016x vs %016x", h1, h2))
	}
	return r1, nil
}

// writeRepro writes a scenario as an indented JSON repro file.
func writeRepro(path string, sc any) error {
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// loadRepro reads and validates a JSON repro file; kind names the file
// in errors. Unknown fields are rejected: a misspelled or retired knob
// would otherwise be dropped silently and run a different scenario.
func loadRepro[S interface{ Validate() error }](path, kind string) (S, error) {
	var sc, zero S
	data, err := os.ReadFile(path)
	if err != nil {
		return zero, fmt.Errorf("chaos: reading %s: %w", kind, err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return zero, fmt.Errorf("chaos: parsing %s %s: %w", kind, path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return zero, fmt.Errorf("chaos: parsing %s %s: data after the JSON value", kind, path)
	}
	if err := sc.Validate(); err != nil {
		return zero, fmt.Errorf("chaos: %s %s: %w", kind, path, err)
	}
	return sc, nil
}

// Smoke generates runs scenarios starting at seed and executes each one
// under all three kernel modes with the determinism double-run. It
// returns an error describing the first failing scenario, or nil if
// every run was clean — the form CI and `rcbench -exp chaos` consume.
func Smoke(runs int, seed uint64) error {
	return smoke(runs, seed, GenerateModes, RunChecked,
		func(sc Scenario) string { return fmt.Sprintf("seed %d mode %s", sc.Seed, sc.Mode) })
}

// smoke runs the cells gen draws for seeds seed..seed+runs-1 through
// checked and describes the first that errors or fails, naming it by
// label.
func smoke[S any, R outcome](runs int, seed uint64, gen func(uint64) []S, checked func(S) (R, error), label func(S) string) error {
	for i := 0; i < runs; i++ {
		for _, sc := range gen(seed + uint64(i)) {
			r, err := checked(sc)
			if err != nil {
				return fmt.Errorf("chaos: %s: %w", label(sc), err)
			}
			if vs, _ := r.verdict(); vs.Failed() {
				return fmt.Errorf("chaos: %s: %d violation(s), classes %v, first: %s",
					label(sc), len(*vs), vs.Classes(), (*vs)[0])
			}
		}
	}
	return nil
}
