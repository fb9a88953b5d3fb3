package experiments

import (
	"bytes"
	"sync"
	"testing"

	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/netsim"
	"rescon/internal/rc"
	"rescon/internal/sim"
	"rescon/internal/telemetry"
	"rescon/internal/trace"
	"rescon/internal/workload"
)

// telemetryScene runs the Fig-14 scenario (SYN flood vs. paying clients)
// for 500ms of virtual time with a telemetry collector attached and
// returns the collector. In ModeRC the §5.7 defense is installed: the
// attack prefix lands on a filtered listen socket bound to a priority-0
// "attackers" container.
func telemetryScene(t *testing.T, mode kernel.Mode, seed int64, floodRate sim.Rate) *telemetry.Collector {
	t.Helper()
	eng := sim.NewEngine(seed)
	k := kernel.New(eng, mode, kernel.DefaultCosts())
	tel := telemetry.New()
	k.AttachTelemetry(tel)

	srv, err := httpsim.NewServer(httpsim.Config{
		Kernel: k, Name: "httpd", Addr: ServerAddr, API: httpsim.EventAPI,
		PerConnContainers: mode == kernel.ModeRC,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mode == kernel.ModeRC {
		attackers := rc.MustNew(nil, rc.TimeShare, "attackers", rc.Attributes{Priority: 0})
		if _, err := srv.AddListener(netsim.Filter{Template: AttackNet, MaskBits: 8}, attackers); err != nil {
			t.Fatal(err)
		}
		k.WatchContainer(srv.Process().DefaultContainer)
		k.WatchContainer(attackers)
	}
	workload.MustStartPopulation(8, workload.ClientConfig{
		Kernel: k,
		Src:    netsim.Addr{IP: ClientNet + 1, Port: 1024},
		Dst:    ServerAddr,
	})
	if floodRate > 0 {
		workload.StartFlood(k, floodRate, AttackNet+1, 4096, ServerAddr)
	}
	eng.RunUntil(sim.Time(500 * sim.Millisecond))
	return tel
}

// renderTelemetry concatenates all three exporters into one string, so a
// single comparison covers JSONL, Chrome trace and profile output.
func renderTelemetry(t *testing.T, tel *telemetry.Collector) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tel.WriteJSONL(&buf); err != nil {
		t.Error(err)
	}
	if err := tel.WriteChromeTrace(&buf); err != nil {
		t.Error(err)
	}
	tel.WriteProfile(&buf, 0)
	return buf.String()
}

// TestTelemetryDeterministic is the telemetry arm of the determinism
// golden test: the same seed must render byte-identical JSONL, Chrome
// trace and profile output, run serially and run concurrently with other
// simulations (container IDs are process-global and race across
// goroutines; telemetry must key principals by name only).
func TestTelemetryDeterministic(t *testing.T) {
	const seed, rate = 7, 20_000
	run := func() string {
		return renderTelemetry(t, telemetryScene(t, kernel.ModeRC, seed, rate))
	}
	serial := run()
	if again := run(); again != serial {
		t.Fatal("two serial runs with the same seed render different telemetry")
	}
	if serial == renderTelemetry(t, telemetryScene(t, kernel.ModeRC, seed+1, rate)) {
		t.Fatal("changing the seed did not change the telemetry (vacuous golden test)")
	}

	out := make([]string, 4)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = renderTelemetry(t, telemetryScene(t, kernel.ModeRC, seed, rate))
		}(i)
	}
	wg.Wait()
	for i, o := range out {
		if o != serial {
			t.Fatalf("concurrent run %d renders different telemetry than serial", i)
		}
	}
}

// maxInterruptPrincipal returns the principal with the most
// interrupt-stage CPU in the profile.
func maxInterruptPrincipal(tel *telemetry.Collector) (string, sim.Duration) {
	var name string
	var max sim.Duration
	for _, r := range tel.ProfileRows() {
		if r.Stage == trace.StageInterrupt && r.CPU > max {
			name, max = r.Principal, r.CPU
		}
	}
	return name, max
}

// TestFig14InterruptAttribution checks the profile tells the paper's
// Fig-14 story. Under ModeRC the flood's receive processing is charged
// to the attackers' container; on the unmodified kernel the same cycles
// are misattributed to whatever the interrupt preempted — the victim.
// The flood rate is moderate so the unmodified kernel is degraded but
// not fully livelocked (at livelock the CPU never leaves interrupt
// context and the preempted principal is "(idle)").
func TestFig14InterruptAttribution(t *testing.T) {
	// RC sustains a heavy flood (that is the point of the defense), so at
	// 20k SYN/s the attackers dominate interrupt-stage CPU. The
	// unmodified arm uses a moderate rate: heavy enough to hurt, light
	// enough that the victim thread still runs and gets preempted.
	rcTel := telemetryScene(t, kernel.ModeRC, 7, 20_000)
	name, cpu := maxInterruptPrincipal(rcTel)
	if name != "attackers" {
		t.Errorf("ModeRC: most interrupt-stage CPU charged to %q (%v), want the attackers container", name, cpu)
	}
	if ip := rcTel.StageCPU("attackers", trace.StageIP); ip <= 0 {
		t.Errorf("ModeRC: attackers charged no ip-stage (demux) CPU")
	}

	unTel := telemetryScene(t, kernel.ModeUnmodified, 7, 3_000)
	name, cpu = maxInterruptPrincipal(unTel)
	if name != "httpd/main" {
		t.Errorf("ModeUnmodified: most interrupt-stage CPU charged to %q (%v), want the preempted victim httpd/main", name, cpu)
	}
	if got := unTel.StageCPU("attackers", trace.StageInterrupt); got != 0 {
		t.Errorf("ModeUnmodified: %v charged to an %q principal that cannot exist there", got, "attackers")
	}

	// The same flood costs the same cycles either way; only the books
	// differ. Both kernels must show substantial interrupt-stage load.
	if rcIntr := rcTel.StageCPU("attackers", trace.StageInterrupt); rcIntr < 5*sim.Millisecond {
		t.Errorf("ModeRC: implausibly little interrupt CPU on attackers: %v", rcIntr)
	}
	if cpu < 5*sim.Millisecond {
		t.Errorf("ModeUnmodified: implausibly little interrupt CPU on the victim: %v", cpu)
	}
}

// TestTelemetryTimelineSamples checks the sampling ticker produces
// timeline rows for the machine, processes, listen sockets and watched
// containers, with cumulative CPU non-decreasing per principal.
func TestTelemetryTimelineSamples(t *testing.T) {
	tel := telemetryScene(t, kernel.ModeRC, 7, 20_000)
	samples := tel.Samples()
	if len(samples) == 0 {
		t.Fatal("no timeline samples recorded")
	}
	seen := map[string]bool{}
	lastCPU := map[string]sim.Duration{}
	for _, s := range samples {
		seen[s.Principal] = true
		if s.CPU < lastCPU[s.Principal] {
			t.Fatalf("cumulative CPU went backwards for %q at %v", s.Principal, s.At)
		}
		lastCPU[s.Principal] = s.CPU
	}
	for _, want := range []string{"(machine)", "httpd", "attackers"} {
		if !seen[want] {
			t.Errorf("no timeline samples for %q (got principals %v)", want, keys(seen))
		}
	}
	// The flood must show up in the listen-socket rows: the filtered
	// socket's SYN queue takes drops at 20k SYNs/s.
	var listenSeen, dropSeen bool
	for _, s := range samples {
		if len(s.Principal) >= 7 && s.Principal[:7] == "listen:" {
			listenSeen = true
			if s.Drops > 0 {
				dropSeen = true
			}
		}
	}
	if !listenSeen {
		t.Error("no listen-socket timeline samples")
	}
	if !dropSeen {
		t.Error("flood at 20k SYN/s produced no SYN drops in listen-socket samples")
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
