package experiments

import (
	"math"
	"strings"
	"testing"

	"rescon/internal/kernel"
	"rescon/internal/metrics"
	"rescon/internal/sim"
)

// quick keeps test runtime reasonable; the rcbench binary uses the full
// windows. The shape assertions below are the per-figure success criteria
// from DESIGN.md §4.
// quick keeps test runs short; Invariants turns the runtime checker on
// for every experiment exercised by the suite, so a conservation or
// queue-bound break fails the tests even when no assertion looks for it.
var quick = Options{Seed: 1999, Warmup: sim.Second, Window: 2 * sim.Second, Invariants: true}

func yAt(t *testing.T, s *metrics.Series, x float64) float64 {
	t.Helper()
	y, ok := s.YAt(x)
	if !ok {
		t.Fatalf("series %q has no point at x=%v", s.Name, x)
	}
	return y
}

func TestTable1PrimitivesAreCheap(t *testing.T) {
	tab, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("Table 1 rows: %d, want 7", len(tab.Rows))
	}
	// The paper's claim: every primitive costs much less than one HTTP
	// transaction. Our simulated transaction is 338 µs; require every
	// primitive to be under 10 µs even on slow CI hardware.
	out := tab.String()
	for _, row := range tab.Rows {
		var ns float64
		if _, err := fmtSscan(row[1], &ns); err != nil {
			t.Fatalf("unparseable cost %q", row[1])
		}
		if ns <= 0 || ns > 10_000 {
			t.Fatalf("primitive %q costs %v ns, want (0, 10µs):\n%s", row[0], ns, out)
		}
	}
}

func fmtSscan(s string, v *float64) (int, error) {
	return sscan(s, v)
}

func TestBaselineCalibration(t *testing.T) {
	tab := Baseline(quick)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	var connRate, persRate float64
	mustParse(t, tab.Rows[0][1], &connRate)
	mustParse(t, tab.Rows[1][1], &persRate)
	if math.Abs(connRate-2954)/2954 > 0.08 {
		t.Fatalf("conn/request rate %.0f, want ~2954", connRate)
	}
	if math.Abs(persRate-9487)/9487 > 0.08 {
		t.Fatalf("persistent rate %.0f, want ~9487", persRate)
	}
}

func TestOverheadEffectivelyUnchanged(t *testing.T) {
	tab := Overhead(quick)
	var without, with float64
	mustParse(t, tab.Rows[0][1], &without)
	mustParse(t, tab.Rows[1][1], &with)
	if with < without*0.95 {
		t.Fatalf("§5.4 overhead too high: %.0f vs %.0f", with, without)
	}
}

func TestFig11Shape(t *testing.T) {
	series := Fig11(quick)
	if len(series) != 3 {
		t.Fatalf("series %d", len(series))
	}
	base, sel, ev := series[0], series[1], series[2]

	// Baseline explodes at saturation: T_high at 35 clients is many times
	// the unloaded value and in the multi-millisecond range.
	b0, b35 := yAt(t, base, 0), yAt(t, base, 35)
	if b35 < 4 || b35 < 6*b0 {
		t.Fatalf("baseline should blow up: %v ms -> %v ms", b0, b35)
	}
	// Containers/select: much less than baseline.
	s35 := yAt(t, sel, 35)
	if s35 > b35/3 {
		t.Fatalf("containers/select %v ms not well below baseline %v ms", s35, b35)
	}
	// Event API: nearly flat and below ~1.5 ms throughout.
	e0, e35 := yAt(t, ev, 0), yAt(t, ev, 35)
	if e35 > 1.5 || e35 > 2.5*e0 {
		t.Fatalf("event API should stay nearly flat: %v ms -> %v ms", e0, e35)
	}
	// select() costs keep the select curve above the event API curve.
	if s35 <= e35 {
		t.Fatalf("select (%v ms) should cost more than event API (%v ms)", s35, e35)
	}
}

func TestFig12And13Shape(t *testing.T) {
	res := Fig12(quick)
	var sb strings.Builder
	metrics.RenderSeries(&sb, "Fig 12", "n", res.Throughput...)
	metrics.RenderSeries(&sb, "Fig 13", "n", res.CGIShare...)
	checkGolden(t, "fig12_quick.txt", sb.String())
	if len(res.Throughput) != 4 || len(res.CGIShare) != 4 {
		t.Fatal("want four systems")
	}
	unmod, lrp, rc1, rc2 := res.Throughput[0], res.Throughput[1], res.Throughput[2], res.Throughput[3]

	u0, u4 := yAt(t, unmod, 0), yAt(t, unmod, 4)
	if u4 > u0/2 {
		t.Fatalf("unmodified throughput should collapse: %v -> %v", u0, u4)
	}
	// LRP charges network processing to the server, further reducing its
	// static throughput (§5.6).
	if l4 := yAt(t, lrp, 4); l4 > u4*1.05 {
		t.Fatalf("LRP at 4 CGI (%v) should be at or below unmodified (%v)", l4, u4)
	}
	// The RC sandboxes hold throughput nearly constant at ~(1-cap).
	r1_0, r1_4 := yAt(t, rc1, 0), yAt(t, rc1, 4)
	if math.Abs(r1_4-r1_0*0.70)/(r1_0*0.70) > 0.12 {
		t.Fatalf("RC-30%% at 4 CGI: %v, want ~0.70 of %v", r1_4, r1_0)
	}
	r2_4 := yAt(t, rc2, 4)
	if math.Abs(r2_4-r1_0*0.90)/(r1_0*0.90) > 0.12 {
		t.Fatalf("RC-10%% at 4 CGI: %v, want ~0.90 of %v", r2_4, r1_0)
	}
	// RC curves flat in n: 1 vs 5 CGI within 10%.
	r1_1, r1_5 := yAt(t, rc1, 1), yAt(t, rc1, 5)
	if math.Abs(r1_5-r1_1)/r1_1 > 0.10 {
		t.Fatalf("RC-30%% not flat: %v at 1 CGI vs %v at 5", r1_1, r1_5)
	}

	// Fig. 13: caps enforced almost exactly (§5.6).
	s1 := yAt(t, res.CGIShare[2], 4)
	if math.Abs(s1-30) > 1.5 {
		t.Fatalf("RC-30%% CGI share %v%%, want ~30%%", s1)
	}
	s2 := yAt(t, res.CGIShare[3], 4)
	if math.Abs(s2-10) > 1.0 {
		t.Fatalf("RC-10%% CGI share %v%%, want ~10%%", s2)
	}
	// LRP gives CGI its full fair share ≈ n/(n+1); unmodified slightly
	// less (misaccounting inflates CGI's apparent usage, §5.6).
	lu, ll := yAt(t, res.CGIShare[0], 4), yAt(t, res.CGIShare[1], 4)
	if ll < 70 || ll > 90 {
		t.Fatalf("LRP CGI share %v%%, want ~80%%", ll)
	}
	if lu >= ll {
		t.Fatalf("unmodified CGI share (%v%%) should trail LRP (%v%%)", lu, ll)
	}
}

func TestFig14Shape(t *testing.T) {
	series := Fig14(quick)
	unmod, rc := series[0], series[1]
	u0 := yAt(t, unmod, 0)
	if u0 < 2500 {
		t.Fatalf("unmodified peak %v", u0)
	}
	// "Effectively zero at about 10,000 SYNs/sec."
	if u10 := yAt(t, unmod, 10); u10 > u0*0.05 {
		t.Fatalf("unmodified at 10k SYN/s: %v, want ~0", u10)
	}
	// "Even at 70,000 SYNs/sec, useful throughput remains at about 73%."
	r0, r70 := yAt(t, rc, 0), yAt(t, rc, 70)
	if r70 < r0*0.60 || r70 > r0*0.85 {
		t.Fatalf("RC at 70k SYN/s: %v of peak %v, want ~73%%", r70, r0)
	}
}

func TestVServersIsolation(t *testing.T) {
	tab, err := VServers(quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "vservers_quick.txt", tab.String())
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		var alloc, used float64
		mustParse(t, row[1], &alloc)
		mustParse(t, row[2], &used)
		if math.Abs(used-alloc) > 2.5 {
			t.Fatalf("guest %d: consumed %.1f%%, allocated %.1f%%", i+1, used, alloc)
		}
	}
}

func TestAblateFilterPriorityShape(t *testing.T) {
	tab := AblateFilterPriority(quick)
	var weak, strong float64
	mustParse(t, tab.Rows[0][1], &weak)
	mustParse(t, tab.Rows[1][1], &strong)
	// With per-container weighted-fair protocol service, the filter alone
	// blunts the attack but still forfeits a large fraction of capacity;
	// only the priority-0 container restores near-full throughput.
	if weak > strong*0.65 {
		t.Fatalf("filter alone (%v) should clearly trail the full defense (%v)", weak, strong)
	}
}

func TestAblatePruningShape(t *testing.T) {
	tab := AblatePruning(quick)
	var exact, pruned, unpruned float64
	mustParse(t, tab.Rows[0][1], &exact)
	mustParse(t, tab.Rows[1][1], &pruned)
	mustParse(t, tab.Rows[2][1], &unpruned)
	if unpruned > pruned*0.95 {
		t.Fatalf("disabling pruning should cost throughput: %v vs %v", unpruned, pruned)
	}
	if exact < pruned*0.95 {
		t.Fatalf("exact pending-set binding (%v) should be at least as good as implicit (%v)", exact, pruned)
	}
}

func TestFig14WithLRPHasThreeCurves(t *testing.T) {
	// Single cheap point: LRP cannot defend (§6: "LRP, in contrast to our
	// system, cannot protect against such SYN floods").
	series := fig14Run([]fig14System{
		{name: "LRP System", mode: 1},
		{name: "With Resource Containers", mode: 2, defend: true},
	}, []float64{50_000}, quick)
	lrp := yAt(t, series[0], 50)
	rc := yAt(t, series[1], 50)
	if lrp > rc/3 {
		t.Fatalf("LRP (%v) should collapse under flood vs RC (%v)", lrp, rc)
	}
}

func TestRenderFig12Output(t *testing.T) {
	// The series render with all four system names.
	res := Fig12(Options{Seed: 1, Warmup: 200 * sim.Millisecond, Window: 500 * sim.Millisecond})
	var sb strings.Builder
	metrics.RenderSeries(&sb, "Fig 12", "n", res.Throughput...)
	out := sb.String()
	for _, name := range []string{"Unmodified System", "LRP System", "RC System 1", "RC System 2"} {
		if !strings.Contains(out, name) {
			t.Fatalf("missing %q in rendered output", name)
		}
	}
}

func TestOverloadStability(t *testing.T) {
	// Extension experiment: the unmodified kernel livelocks past
	// saturation while LRP and RC shed load early and hold peak
	// throughput (§3.2, [15], [30]).
	series := Overload(quick)
	if len(series) != 3 {
		t.Fatalf("series %d", len(series))
	}
	unmod, lrp, rcs := series[0], series[1], series[2]
	peak := yAt(t, unmod, 3000)
	if peak < 2500 {
		t.Fatalf("unmodified peak %v", peak)
	}
	if u10 := yAt(t, unmod, 10000); u10 > peak*0.10 {
		t.Fatalf("unmodified should livelock at 10k offered: %v", u10)
	}
	for _, s := range []*metrics.Series{lrp, rcs} {
		v := yAt(t, s, 10000)
		if v < peak*0.90 {
			t.Fatalf("%s should hold peak under overload: %v vs peak %v", s.Name, v, peak)
		}
	}
}

func TestDiskBoundShape(t *testing.T) {
	// Extension experiment: with uncached documents, the priority-ordered
	// disk queue keeps the premium client's response time near one disk
	// access, while the FIFO disk queues it behind every low-priority
	// read (§4.4).
	series := DiskBound(quick)
	fifo, prio := series[0], series[1]
	f16 := yAt(t, fifo, 16)
	p16 := yAt(t, prio, 16)
	if f16 < 60 {
		t.Fatalf("FIFO disk Thigh at 16 clients: %v ms, want large", f16)
	}
	if p16 > 20 {
		t.Fatalf("priority disk Thigh at 16 clients: %v ms, want ~one disk access", p16)
	}
	p0 := yAt(t, prio, 0)
	if p16 > p0*2.5 {
		t.Fatalf("priority disk should stay nearly flat: %v -> %v", p0, p16)
	}
}

// TestSMPEnvCarriesChecker: SMP machines come from the same constructor
// as every other sweep's, so -check attaches the invariant checker there
// too.
func TestSMPEnvCarriesChecker(t *testing.T) {
	e := newSMPEnv(kernel.ModeRC, 2, quick)
	if e.check == nil {
		t.Fatal("SMP env built with Invariants set has no checker")
	}
	if n := e.k.NumCPUs(); n != 2 {
		t.Fatalf("SMP env has %d CPUs, want 2", n)
	}
}

func TestSMPScalingShape(t *testing.T) {
	// Extension experiment: the multi-threaded server exploits added
	// processors; the single-threaded event-driven server cannot (§2).
	tab := SMP(quick)
	checkGolden(t, "smp_quick.txt", tab.String())
	var ev1, ev4, mt1, mt2 float64
	mustParse(t, tab.Rows[0][1], &ev1)
	mustParse(t, tab.Rows[2][1], &ev4)
	mustParse(t, tab.Rows[0][2], &mt1)
	mustParse(t, tab.Rows[1][2], &mt2)
	if ev4 > ev1*1.5 {
		t.Fatalf("event-driven server should not scale: %v -> %v", ev1, ev4)
	}
	if mt2 < mt1*1.6 {
		t.Fatalf("MT server should scale with a second CPU: %v -> %v", mt1, mt2)
	}
	// On one CPU both architectures are CPU-bound on the same work.
	if mt1 < ev1*0.7 || mt1 > ev1*1.4 {
		t.Fatalf("single-CPU throughput should be comparable: mt=%v ev=%v", mt1, ev1)
	}
}

func TestCacheWarShape(t *testing.T) {
	// Extension experiment: a container memory quota turns the shared
	// buffer cache into per-guest cache isolation (§4.4).
	tab := CacheWar(quick)
	var hitNo, latNo, hitQ, latQ, aNo, aQ float64
	mustParse(t, tab.Rows[0][1], &hitNo)
	mustParse(t, tab.Rows[0][3], &latNo)
	mustParse(t, tab.Rows[1][1], &hitQ)
	mustParse(t, tab.Rows[1][3], &latQ)
	mustParse(t, tab.Rows[0][4], &aNo)
	mustParse(t, tab.Rows[1][4], &aQ)
	if hitNo > 30 {
		t.Fatalf("without isolation the scan should pollute B's cache: hit rate %v%%", hitNo)
	}
	if hitQ < 90 {
		t.Fatalf("with the quota B should stay cache-resident: hit rate %v%%", hitQ)
	}
	if latQ > latNo/10 {
		t.Fatalf("quota should collapse B's latency: %v vs %v ms", latQ, latNo)
	}
	if aQ < aNo*0.8 {
		t.Fatalf("the quota should not meaningfully hurt A: %v vs %v req/s", aQ, aNo)
	}
}

func TestApacheNiceShape(t *testing.T) {
	// §6: mapping QoS onto process priorities expresses the policy but
	// cannot protect the premium client under saturation, because kernel
	// processing and the accept path stay uncontrolled.
	series := Apache(quick)
	apache, rcs := series[0], series[1]
	a35 := yAt(t, apache, 35)
	r35 := yAt(t, rcs, 35)
	if a35 < 3 {
		t.Fatalf("Apache+nice should degrade at saturation: %v ms", a35)
	}
	if r35 > a35/3 {
		t.Fatalf("containers (%v ms) should beat nice-based QoS (%v ms) decisively", r35, a35)
	}
	// At light load nice is fine — the mechanisms only diverge under load.
	a0 := yAt(t, apache, 0)
	if a0 > 1 {
		t.Fatalf("Apache unloaded latency %v ms", a0)
	}
}

func TestTailLatencyShape(t *testing.T) {
	// Containers remove the premium client's latency tail, not just the
	// mean: p99 drops by an order of magnitude at full load.
	tab := TailLatency(quick)
	var basep99, evp99 float64
	mustParse(t, tab.Rows[0][3], &basep99)
	mustParse(t, tab.Rows[2][3], &evp99)
	if basep99 < 4 {
		t.Fatalf("baseline p99 %v ms, expected a heavy tail", basep99)
	}
	if evp99 > basep99/4 {
		t.Fatalf("containers should collapse the tail: p99 %v vs baseline %v", evp99, basep99)
	}
}
