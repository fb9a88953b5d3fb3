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
// The invariant battery extends the fault.Checker built-ins (CPU-charge
// hierarchy conservation, non-negative usage, queue bounds, clock
// monotonicity) with:
//
//   - CPU conservation: the telemetry profile's attributed processor
//     time must equal the machine's busy + interrupt time (every cycle
//     charged to some principal, no cycle charged twice) — the paper's
//     central accounting claim, checked to cpuEpsilon.
//   - Connection-lifecycle conservation: connections established ==
//     connections closed + connections open, at every checker tick.
//   - Isolation floor: when the scheduler is container-driven and
//     nothing external (crashes, wire faults, disk queues) can stall
//     it, a high-priority container with runnable work must make
//     progress whenever the machine does.
//   - Alert-flap: the alert monitor's flap counter stays zero — the
//     hysteresis/damping pipeline must absorb every oscillation the
//     scenario throws at it.
//   - Missed-detection: the monitor's self-check stays clean — any
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
//   - Determinism: re-running a scenario must produce a byte-identical
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

// Classify maps a violation string to its failure class, the unit of
// "fails the same way" used by Shrink and the rcchaos triage output.
func Classify(v string) string {
	for _, c := range []string{"cpu-conservation", "conn-conservation", "item-recycling", "isolation-floor", "alert-flap", "missed-detection",
		"rebalance-conservation", "rebalance-starvation", "rebalance-oscillation",
		"live-conservation", "live-leak", "live-oscillation", "live-starvation", "determinism"} {
		if strings.Contains(v, c) {
			return c
		}
	}
	switch {
	case strings.Contains(v, "queue"):
		return "queue-bound"
	case strings.Contains(v, "negative"):
		return "non-negative"
	case strings.Contains(v, "clock") || strings.Contains(v, "fired-event"):
		return "monotonic-clock"
	case strings.Contains(v, "conservation broken"):
		return "hierarchy-conservation"
	}
	return "unknown"
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
// in sorted order and returns the sum. Sorted, because a couple of
// kernel-internal collections are maps: when one bad tick trips several
// queue checks at once their relative order is not guaranteed, and the
// digest should not flag that as nondeterminism.
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
// adds the determinism violation "<what>: run hashes differ: …" to the
// first run's result, which it returns — the FoundationDB-style check
// that a run really is a pure function of its scenario.
func runChecked[S any, R outcome](sc S, run func(S) (R, error), what string) (R, error) {
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
		*vs = append(*vs, fmt.Sprintf("%s: run hashes differ: %016x vs %016x", what, h1, h2))
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
