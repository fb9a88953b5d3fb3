// Integration tests: the fault layer driving the real kernel, server and
// workload stack. They live in package fault_test so the fault package
// itself stays a leaf (the kernel imports it).
package fault_test

import (
	"testing"

	"rescon/internal/fault"
	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/netsim"
	"rescon/internal/sim"
	"rescon/internal/trace"
	"rescon/internal/workload"
)

var srvAddr = kernel.Addr("10.0.0.1", 80)

// faultRun is one complete fault-injection simulation; it returns every
// deterministic observable the acceptance criteria care about.
type faultRunResult struct {
	stats        fault.Stats
	policedDrops uint64
	diskErrors   uint64
	served       uint64
	completed    uint64
	timeouts     uint64
	retries      uint64
	faultEvents  uint64
	policeEvents uint64
	totalEvents  uint64
}

func faultRun(t *testing.T, seed int64) faultRunResult {
	t.Helper()
	eng := sim.NewEngine(seed)
	k := kernel.New(eng, kernel.ModeRC)
	k.Tracer = trace.New(1 << 16)
	inj := fault.NewInjector(eng, fault.Config{
		DropRate:      0.10,
		DupRate:       0.05,
		ReorderRate:   0.05,
		DelayRate:     0.10,
		DiskErrorRate: 0.10,
		DiskSlowRate:  0.10,
	})
	k.Faults = inj
	k.Police.Enabled = true

	ch := fault.NewChecker(eng)
	k.WatchInvariants(ch)
	ch.Start(0)

	srv, err := httpsim.NewServer(httpsim.Config{
		Kernel: k, Name: "httpd", Addr: srvAddr, API: httpsim.EventAPI,
	})
	if err != nil {
		t.Fatal(err)
	}
	pop := workload.MustStartPopulation(8, workload.ClientConfig{
		Kernel:         k,
		Src:            netsim.Addr{IP: netsim.MustParseIP("10.1.0.1"), Port: 1024},
		Dst:            srvAddr,
		Uncached:       true, // hit the disk so disk faults fire
		ConnectTimeout: 200 * sim.Millisecond,
		RequestTimeout: 400 * sim.Millisecond,
		BackoffBase:    25 * sim.Millisecond,
	})
	// 12000 SYN/s × ~107 µs protocol cost oversubscribes the CPU on its
	// own, so the flood's container backlog crosses the policing threshold.
	workload.StartFlood(k, 12000, netsim.MustParseIP("66.0.0.1"), 1024, srvAddr)

	eng.RunUntil(sim.Time(0).Add(2 * sim.Second))

	res := faultRunResult{
		stats:        inj.Stats(),
		policedDrops: k.PolicedDrops(),
		diskErrors:   k.Disk().Errors(),
		served:       srv.StaticServed,
		completed:    pop.Completed(),
		totalEvents:  k.Tracer.Total(),
	}
	for _, c := range pop.Clients {
		res.timeouts += c.Timeouts.Value()
		res.retries += c.Retries.Value()
	}
	for _, ev := range k.Tracer.Events() {
		switch ev.Kind {
		case trace.KindFault:
			res.faultEvents++
		case trace.KindPolice:
			res.policeEvents++
		}
	}
	return res
}

func TestFaultRunEmitsTraceEvents(t *testing.T) {
	res := faultRun(t, 1999)
	if res.stats.WireDrops == 0 || res.stats.WireDups == 0 || res.stats.WireDelays == 0 {
		t.Fatalf("wire fault classes did not all fire: %v", res.stats)
	}
	if res.faultEvents == 0 {
		t.Fatal("no KindFault trace events emitted under fault injection")
	}
	if res.policeEvents == 0 || res.policedDrops == 0 {
		t.Fatalf("policing never fired under 8000 SYN/s overload: events=%d drops=%d",
			res.policeEvents, res.policedDrops)
	}
	if res.diskErrors == 0 {
		t.Fatal("no disk media errors surfaced to the disk layer")
	}
	if res.completed == 0 {
		t.Fatal("no client completed any request — degraded, not dead, is the goal")
	}
	if res.retries == 0 || res.timeouts == 0 {
		t.Fatalf("clients never exercised the retry path: timeouts=%d retries=%d",
			res.timeouts, res.retries)
	}
}

// TestFaultRunDeterminism is the acceptance criterion for the fault
// schedule: two runs with the same seed must produce identical fault,
// drop, retry and trace counts.
func TestFaultRunDeterminism(t *testing.T) {
	a := faultRun(t, 1999)
	b := faultRun(t, 1999)
	if a != b {
		t.Fatalf("identical seeds diverged:\n%+v\n%+v", a, b)
	}
}

func TestFaultRunSeedSensitivity(t *testing.T) {
	a := faultRun(t, 1999)
	b := faultRun(t, 2000)
	if a.stats == b.stats {
		t.Fatalf("different seeds produced identical fault schedules: %v", a.stats)
	}
}
