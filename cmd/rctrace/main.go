// Command rctrace runs a small prioritized-server scenario (a SYN flood
// against a server with paying clients, the setup behind Fig. 14) with
// kernel tracing and telemetry enabled, then prints the container
// hierarchy (with full per-activity accounting) and the tail of the
// kernel event trace. It is the observability companion to rcbench: a
// quick way to *see* where every cycle, packet and drop went.
//
// Usage:
//
//	rctrace [-mode rc|lrp|unmodified] [-dur 2s] [-flood 20000]
//	        [-events 40] [-kinds drop,conn] [-json] [-seed 2026]
//	        [-profile] [-timeline out.jsonl] [-chrome out.json]
//
// The -profile flag prints the virtual-CPU profile: every simulated CPU
// microsecond attributed to a (principal × stage) pair. Under -mode rc
// the flood's interrupt-stage time lands on the "attackers" container;
// under -mode unmodified it is misattributed to whichever activity the
// interrupt preempted — the paper's Fig. 14 effect, visible in two runs.
//
// -timeline writes the full telemetry stream (structured events, usage
// timeline samples, profile rows) as JSONL; -chrome writes a Chrome
// trace_event file loadable in Perfetto / chrome://tracing. Both
// exporters are byte-deterministic for a fixed -seed (the golden tests
// in this package pin that property).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/rc"
	"rescon/internal/sim"
	"rescon/internal/telemetry"
	"rescon/internal/trace"
	"rescon/internal/workload"
)

// config collects every knob of the tool so the whole scenario is a pure
// function of its value — main fills it from flags, tests fill it
// directly and capture the output.
type config struct {
	mode     kernel.Mode
	seed     int64
	dur      time.Duration
	flood    float64
	events   int
	kinds    string
	asJSON   bool
	profile  bool
	timeline string
	chrome   string
}

func parseMode(s string) (kernel.Mode, error) {
	switch strings.ToLower(s) {
	case "rc":
		return kernel.ModeRC, nil
	case "lrp":
		return kernel.ModeLRP, nil
	case "unmodified", "unmod", "base":
		return kernel.ModeUnmodified, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want rc, lrp or unmodified)", s)
	}
}

// writeTo opens path for writing; "-" means the tool's stdout.
func writeTo(path string, stdout io.Writer, f func(io.Writer) error) error {
	if path == "-" {
		return f(stdout)
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func main() {
	mode := flag.String("mode", "rc", "kernel mode: rc, lrp or unmodified")
	seed := flag.Int64("seed", 2026, "simulation seed")
	dur := flag.Duration("dur", 2*time.Second, "virtual duration to simulate")
	flood := flag.Float64("flood", 20_000, "SYN-flood rate (0 disables)")
	events := flag.Int("events", 40, "trace events to print")
	kinds := flag.String("kinds", "", "comma-separated event kinds to keep (default all): packet,drop,conn,dispatch,interrupt")
	asJSON := flag.Bool("json", false, "emit the container hierarchy as JSON (billing snapshot) instead of a tree")
	profile := flag.Bool("profile", false, "print the virtual-CPU profile (principal × stage)")
	timeline := flag.String("timeline", "", "write telemetry JSONL (events, samples, profile) to this file; - for stdout")
	chrome := flag.String("chrome", "", "write a Chrome trace_event file (Perfetto-loadable) to this file; - for stdout")
	flag.Parse()

	km, err := parseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := config{
		mode: km, seed: *seed, dur: *dur, flood: *flood, events: *events,
		kinds: *kinds, asJSON: *asJSON, profile: *profile,
		timeline: *timeline, chrome: *chrome,
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run builds the scenario, simulates it, and writes every requested view
// to stdout (or the -timeline/-chrome files). It is main minus flag
// parsing and exit codes, so tests can drive it with a bytes.Buffer.
func run(cfg config, stdout io.Writer) error {
	eng := sim.NewEngine(cfg.seed)
	k := kernel.New(eng, cfg.mode, kernel.DefaultCosts())
	tel := telemetry.New()
	k.AttachTelemetry(tel)
	tr := tel.Tracer()
	if cfg.kinds != "" {
		tr.Filter = map[trace.Kind]bool{}
		for _, s := range strings.Split(cfg.kinds, ",") {
			tr.Filter[trace.Kind(strings.TrimSpace(s))] = true
		}
	}

	addr := kernel.Addr("10.0.0.1", 80)
	// Containers only exist on the RC kernel; on the other modes the
	// server runs bare and the profile shows where misattribution lands.
	rcMode := cfg.mode == kernel.ModeRC
	var root *rc.Container
	scfg := httpsim.Config{Kernel: k, Name: "httpd", Addr: addr, API: httpsim.EventAPI}
	if rcMode {
		// Build the whole tree under one root so the dump is coherent; the
		// root is created first so per-connection containers land under it.
		root = rc.MustNew(nil, rc.FixedShare, "machine", rc.Attributes{})
		scfg.PerConnContainers = true
		scfg.Parent = root
	}
	srv, err := httpsim.NewServer(scfg)
	if err != nil {
		return err
	}
	if rcMode {
		if err := srv.Process().DefaultContainer.SetParent(root); err != nil {
			return err
		}
		attackers := rc.MustNew(root, rc.TimeShare, "attackers", rc.Attributes{Priority: 0})
		if _, err := srv.AddListener(kernel.FilterCIDR("66.0.0.0", 8), attackers); err != nil {
			return err
		}
		k.WatchContainer(root)
		k.WatchContainer(srv.Process().DefaultContainer)
		k.WatchContainer(attackers)
	}

	good, err := workload.StartPopulation(16, workload.ClientConfig{
		Kernel: k,
		Src:    kernel.Addr("10.1.0.1", 1024),
		Dst:    addr,
	})
	if err != nil {
		return err
	}
	if cfg.flood > 0 {
		workload.StartFlood(k, sim.Rate(cfg.flood), kernel.Addr("66.0.0.1", 0).IP, 1024, addr)
	}

	eng.RunUntil(sim.Time(sim.FromStd(cfg.dur)))

	u := k.Utilization()
	fmt.Fprintf(stdout, "=== %s kernel, %v elapsed: %.0f good req/s; CPU %.1f%% busy, %.1f%% interrupts, %.1f%% idle ===\n",
		cfg.mode, eng.Now(), good.Rate(eng.Now()), u.Busy*100, u.Interrupt*100, u.Idle*100)
	switch {
	case root == nil:
		fmt.Fprintf(stdout, "(no container hierarchy: %s kernel has no resource containers)\n", cfg.mode)
	case cfg.asJSON:
		if err := rc.WriteJSON(stdout, root); err != nil {
			return err
		}
	default:
		rc.Fprint(stdout, root)
	}

	if cfg.profile {
		fmt.Fprintf(stdout, "\n=== virtual-CPU profile (%s kernel) ===\n", cfg.mode)
		tel.WriteProfile(stdout, 20)
	}
	if cfg.timeline != "" {
		if err := writeTo(cfg.timeline, stdout, tel.WriteJSONL); err != nil {
			return err
		}
		if cfg.timeline != "-" {
			fmt.Fprintf(stdout, "\ntelemetry JSONL written to %s\n", cfg.timeline)
		}
	}
	if cfg.chrome != "" {
		if err := writeTo(cfg.chrome, stdout, tel.WriteChromeTrace); err != nil {
			return err
		}
		if cfg.chrome != "-" {
			fmt.Fprintf(stdout, "Chrome trace written to %s (load in Perfetto or chrome://tracing)\n", cfg.chrome)
		}
	}

	fmt.Fprintf(stdout, "\n=== last %d of %d kernel events ===\n", cfg.events, tr.Total())
	evs := tr.Events()
	if len(evs) > cfg.events {
		evs = evs[len(evs)-cfg.events:]
	}
	for _, e := range evs {
		fmt.Fprintln(stdout, e)
	}
	return nil
}
