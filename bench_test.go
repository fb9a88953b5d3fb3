package rescon

// One benchmark per table and figure of the paper's evaluation (§5),
// plus per-primitive benchmarks for Table 1. The figure benchmarks run
// the corresponding experiment driver on shortened measurement windows
// and report the headline metric with b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates (abbreviated forms of) every result. cmd/rcbench produces
// the full-length tables and curves.

import (
	"testing"

	"rescon/internal/experiments"
	"rescon/internal/kernel"
	"rescon/internal/rc"
	"rescon/internal/sim"
)

// --- Table 1: cost of resource container primitives (real time) ---

func table1Env() (*kernel.Process, *kernel.Process, *kernel.Thread) {
	eng := sim.NewEngine(1)
	k := kernel.New(eng, kernel.ModeRC)
	p := k.NewProcess("bench")
	p2 := k.NewProcess("bench2")
	return p, p2, p.NewThread("t")
}

var benchAttrs = rc.Attributes{Priority: kernel.DefaultPriority}

func BenchmarkTable1CreateDestroy(b *testing.B) {
	p, _, _ := table1Env()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := p.CreateContainer(kernel.NoParent, rc.TimeShare, "c", benchAttrs)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.ReleaseContainer(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1RebindThread(b *testing.B) {
	p, _, th := table1Env()
	da, _ := p.CreateContainer(kernel.NoParent, rc.TimeShare, "a", benchAttrs)
	db, _ := p.CreateContainer(kernel.NoParent, rc.TimeShare, "b", benchAttrs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := da
		if i&1 == 1 {
			d = db
		}
		if err := p.BindThread(th, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Usage(b *testing.B) {
	p, _, _ := table1Env()
	d, _ := p.CreateContainer(kernel.NoParent, rc.TimeShare, "a", benchAttrs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ContainerUsage(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Attributes(b *testing.B) {
	p, _, _ := table1Env()
	d, _ := p.CreateContainer(kernel.NoParent, rc.TimeShare, "a", benchAttrs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := p.ContainerAttrs(d)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.SetContainerAttrs(d, got); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1MoveBetweenProcesses(b *testing.B) {
	p, p2, _ := table1Env()
	d, _ := p.CreateContainer(kernel.NoParent, rc.TimeShare, "a", benchAttrs)
	benchHandles(b, p2, func() (rc.Desc, error) { return p.MoveContainer(d, p2) })
}

func BenchmarkTable1ObtainHandle(b *testing.B) {
	p, _, _ := table1Env()
	d, _ := p.CreateContainer(kernel.NoParent, rc.TimeShare, "a", benchAttrs)
	c, _ := p.Lookup(d)
	benchHandles(b, p, func() (rc.Desc, error) { return p.ContainerHandle(c) })
}

// handleBatch is how many descriptors benchHandles opens before it
// closes them, with the timer stopped: stopping the timer costs far more
// than the operation measured, so it stops once per batch.
const handleBatch = 1024

// benchHandles times open, which opens a descriptor in p, and closes
// the descriptors it opened in batches outside the timed loop.
func benchHandles(b *testing.B, p *kernel.Process, open func() (rc.Desc, error)) {
	ds := make([]rc.Desc, 0, handleBatch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := open()
		if err != nil {
			b.Fatal(err)
		}
		if ds = append(ds, d); len(ds) == handleBatch {
			b.StopTimer()
			for _, d := range ds {
				if err := p.ReleaseContainer(d); err != nil {
					b.Fatal(err)
				}
			}
			ds = ds[:0]
			b.StartTimer()
		}
	}
}

// --- §5.3 baseline throughput ---

func benchThroughput(b *testing.B, persistent bool, want float64) {
	b.ReportAllocs()
	var rate float64
	for i := 0; i < b.N; i++ {
		s := NewSim(ModeUnmodified, 42)
		if _, err := NewServer(ServerConfig{
			Kernel: s.Kernel, Name: "httpd", Addr: Addr("10.0.0.1", 80), API: SelectAPI,
		}); err != nil {
			b.Fatal(err)
		}
		pop := MustStartPopulation(32, ClientConfig{
			Kernel:     s.Kernel,
			Src:        Addr("10.1.0.1", 1024),
			Dst:        Addr("10.0.0.1", 80),
			Persistent: persistent,
		})
		s.RunFor(Second)
		pop.ResetStats()
		s.RunFor(2 * Second)
		rate = pop.Rate(s.Now())
	}
	b.ReportMetric(rate, "req/s")
	b.ReportMetric(want, "paper-req/s")
}

func BenchmarkBaselineThroughputConnPerReq(b *testing.B) { benchThroughput(b, false, 2954) }
func BenchmarkBaselineThroughputPersistent(b *testing.B) { benchThroughput(b, true, 9487) }

// --- quick experiment options shared by the figure benchmarks ---

var benchOpt = experiments.Options{Seed: 1999, Warmup: sim.Second, Window: 2 * sim.Second}

// --- Fig. 11: prioritized handling of clients ---

func BenchmarkFig11(b *testing.B) {
	var series []float64
	for i := 0; i < b.N; i++ {
		out := experiments.Fig11(benchOpt)
		series = series[:0]
		for _, s := range out {
			y, _ := s.YAt(35)
			series = append(series, y)
		}
	}
	b.ReportMetric(series[0], "Thigh-baseline-ms")
	b.ReportMetric(series[1], "Thigh-select-ms")
	b.ReportMetric(series[2], "Thigh-eventapi-ms")
}

// --- Figs. 12+13: CGI throughput and CPU share ---

func BenchmarkFig12And13(b *testing.B) {
	var res *experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig12(benchOpt)
	}
	t0, _ := res.Throughput[0].YAt(4) // Unmodified at 4 CGI
	t2, _ := res.Throughput[2].YAt(4) // RC System 1 at 4 CGI
	s2, _ := res.CGIShare[2].YAt(4)   // RC System 1 CGI share
	b.ReportMetric(t0, "unmod-tput-4cgi")
	b.ReportMetric(t2, "rc30-tput-4cgi")
	b.ReportMetric(s2, "rc30-cgi-share-pct")
}

// --- Fig. 14: SYN-flood immunity ---

func BenchmarkFig14(b *testing.B) {
	var series []*metricsSeries
	for i := 0; i < b.N; i++ {
		out := experiments.Fig14(benchOpt)
		series = series[:0]
		for _, s := range out {
			series = append(series, &metricsSeries{s.Name, s.Points[len(s.Points)-1].Y})
		}
	}
	b.ReportMetric(series[0].last, "unmod-at-70k")
	b.ReportMetric(series[1].last, "rc-at-70k")
}

type metricsSeries struct {
	name string
	last float64
}

// --- §5.8: virtual server isolation ---

func BenchmarkVServers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.VServers(benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- workload machinery micro-benchmarks ---

func BenchmarkSimEngineEventChurn(b *testing.B) {
	eng := sim.NewEngine(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(sim.Microsecond, func() {})
		eng.Step()
	}
}

func BenchmarkRequestPathEndToEnd(b *testing.B) {
	// Cost of simulating one complete HTTP request, end to end (events,
	// scheduling, accounting) — the simulator's own efficiency.
	s := NewSim(ModeRC, 7)
	if _, err := NewServer(ServerConfig{
		Kernel: s.Kernel, Name: "httpd", Addr: Addr("10.0.0.1", 80), API: EventAPI,
		PerConnContainers: true,
	}); err != nil {
		b.Fatal(err)
	}
	pop := MustStartPopulation(16, ClientConfig{
		Kernel: s.Kernel,
		Src:    Addr("10.1.0.1", 1024),
		Dst:    Addr("10.0.0.1", 80),
	})
	b.ReportAllocs()
	b.ResetTimer()
	done := uint64(0)
	for done < uint64(b.N) {
		s.RunFor(100 * Millisecond)
		done = pop.Completed()
	}
	b.StopTimer()
	if done > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(done), "ns/simulated-request")
	}
}
