package experiments

import (
	"testing"

	"rescon/internal/fault"
	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/netsim"
	"rescon/internal/sim"
	"rescon/internal/workload"
)

// TestCrashAdmissionNoLeaks drives the worst interaction of the
// resilience machinery: a crash-restarting worker under sustained
// overload (SYN flood + retrying clients) with admission control on.
// It asserts the lifecycle bookkeeping the chaos harness relies on:
//
//   - the crasher never double-boots a worker (boots == restarts + 1);
//   - no connection leaks through a crash: after the final shutdown
//     every established connection has been closed exactly once;
//   - the runtime invariant checker (conn-conservation, queue bounds,
//     CPU-charge conservation) stays silent throughout — FailFast mode
//     panics the test on the first violated tick.
func TestCrashAdmissionNoLeaks(t *testing.T) {
	eng := sim.NewEngine(42)
	k := kernel.New(eng, kernel.ModeRC)
	check := fault.NewChecker(eng) // FailFast: a violation panics the test
	k.WatchInvariants(check)
	check.Start(0)
	k.Police.Enabled = true

	boots := 0
	var srv *httpsim.Server
	var bootErr error
	boot := func() {
		boots++
		srv, bootErr = httpsim.NewServer(httpsim.Config{
			Kernel: k, Name: "httpd", Addr: ServerAddr, API: httpsim.EventAPI,
			PerConnContainers: true,
		})
	}
	boot()
	if bootErr != nil {
		t.Fatal(bootErr)
	}
	cr, err := fault.StartCrasher(eng, fault.CrashPlan{
		MTBF:     400 * sim.Millisecond,
		Downtime: 100 * sim.Millisecond,
	}, func() { srv.Shutdown() }, boot)
	if err != nil {
		t.Fatal(err)
	}

	pop := workload.MustStartPopulation(32,
		ResilientClientConfig(k, netsim.Addr{IP: ClientNet + 1, Port: 1024}))
	flood := workload.StartFlood(k, 4000, AttackNet+1, 4096, ServerAddr)

	eng.RunUntil(sim.Time(0).Add(5 * sim.Second))
	if bootErr != nil {
		t.Fatalf("restart failed: %v", bootErr)
	}
	if cr.Crashes() < 2 {
		t.Fatalf("want >= 2 crashes in 5s with 400ms MTBF, got %d", cr.Crashes())
	}
	if uint64(boots) != cr.Restarts()+1 {
		t.Fatalf("double restart under overload: %d boots vs %d restarts", boots, cr.Restarts())
	}
	if pop.Completed() == 0 {
		t.Fatal("no client work completed; the scenario never exercised the server")
	}

	// Tear everything down and let in-flight work drain; every connection
	// ever established must end up closed, none leaked in a queue.
	cr.Stop()
	flood.Stop()
	pop.Stop()
	srv.Shutdown()
	eng.RunUntil(eng.Now().Add(2 * sim.Second))
	check.Check()

	if open := k.OpenConns(); open != 0 {
		t.Fatalf("%d connection(s) leaked past final shutdown", open)
	}
	if est, closed := k.ConnsEstablished(), k.ConnsClosed(); est != closed {
		t.Fatalf("connection lifecycle broken: %d established, %d closed", est, closed)
	}
	if est := k.ConnsEstablished(); est == 0 {
		t.Fatal("no connections were ever established")
	}
}
