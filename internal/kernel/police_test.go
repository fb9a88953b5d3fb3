package kernel

import (
	"testing"

	"rescon/internal/netsim"
	"rescon/internal/rc"
	"rescon/internal/sim"
)

// fillBacklog parks n pending-protocol work items for cont on the
// process's network queue, without running the engine — the white-box
// way to put the backlog at an exact occupancy for threshold tests.
func fillBacklog(t *testing.T, p *Process, cont *rc.Container, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !p.netQ.enqueue(&pktWork{container: cont, cost: sim.Microsecond}) {
			t.Fatalf("backlog full while seeding %d of %d", i, n)
		}
	}
}

// TestPoliceDemuxThresholdTable pins the admission-control decision at
// every edge of the threshold arithmetic: an empty backlog is never
// policed, fractions at or beyond 1 disable the policy, a vanishing
// fraction clamps the limit to one pending packet, and occupancy
// exactly at the limit refuses while one below admits.
func TestPoliceDemuxThresholdTable(t *testing.T) {
	// DefaultNetBacklog = 1024; DefaultSYNPoliceFrac = 1/16 → limit 64.
	cases := []struct {
		name    string
		mode    Mode
		syn     bool // SYN (new work) vs data (in-progress work)
		synFrac float64
		backlog int
		policed bool
	}{
		{"zero-length backlog never policed", ModeRC, true, 1.0 / 16, 0, false},
		{"one below default SYN limit admits", ModeRC, true, 0, 63, false},
		{"exactly at default SYN limit refuses", ModeRC, true, 0, 64, true},
		{"explicit frac, one below limit", ModeRC, true, 0.5, 511, false},
		{"explicit frac, limit==occupancy refuses", ModeRC, true, 0.5, 512, true},
		{"frac 1 disables even when full-ish", ModeRC, true, 1, 1023, false},
		{"frac beyond 1 disables", ModeRC, true, 1.5, 1023, false},
		{"vanishing frac clamps limit to 1: empty admits", ModeRC, true, 1e-9, 0, false},
		{"vanishing frac clamps limit to 1: one pending refuses", ModeRC, true, 1e-9, 1, true},
		{"data unpoliced by default at high occupancy", ModeRC, false, 0, 1000, false},
		{"LRP keys on the process-wide queue", ModeLRP, true, 0, 64, true},
		{"LRP below limit admits", ModeLRP, true, 0, 63, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, k := newKernel(tc.mode)
			k.Police = Policing{Enabled: true, SYNFrac: tc.synFrac}
			p := k.NewProcess("httpd")
			var cont *rc.Container
			if tc.mode == ModeRC {
				cont = rc.MustNew(nil, rc.TimeShare, "sock", rc.Attributes{Priority: 5})
			}
			ls, err := k.Listen(p, ListenConfig{Local: srvAddr, Container: cont})
			if err != nil {
				t.Fatal(err)
			}
			fillBacklog(t, p, cont, tc.backlog)
			pkt := SYNPacket(client(1), srvAddr, false)
			if !tc.syn {
				pkt = DataPacket(client(1), srvAddr, 1, 100, nil)
			}
			dropsBefore := k.PolicedDrops()
			got := k.policeDemux(pkt, p, cont, ls)
			if got != tc.policed {
				t.Fatalf("policed = %t, want %t", got, tc.policed)
			}
			wantDrops := dropsBefore
			if tc.policed {
				wantDrops++
			}
			if k.PolicedDrops() != wantDrops {
				t.Fatalf("PolicedDrops = %d, want %d", k.PolicedDrops(), wantDrops)
			}
			// SYN refusals must be visible on the listener counter (the
			// alert battery's syn-drops source); data refusals must not.
			wantSyn := uint64(0)
			if tc.policed && tc.syn {
				wantSyn = 1
			}
			if ls.SynDrops() != wantSyn {
				t.Fatalf("SynDrops = %d, want %d", ls.SynDrops(), wantSyn)
			}
		})
	}
}

// TestPolicingDisabledNeverRefuses is the master switch: a saturated
// backlog with Police.Enabled unset must fall through to the ordinary
// bounded-queue behaviour.
func TestPolicingDisabledNeverRefuses(t *testing.T) {
	_, k := newKernel(ModeRC)
	p := k.NewProcess("httpd")
	cont := rc.MustNew(nil, rc.TimeShare, "sock", rc.Attributes{Priority: 5})
	ls, err := k.Listen(p, ListenConfig{Local: srvAddr, Container: cont})
	if err != nil {
		t.Fatal(err)
	}
	fillBacklog(t, p, cont, 1023)
	if k.policeDemux(SYNPacket(client(1), srvAddr, false), p, cont, ls) {
		t.Fatal("policed with the policy disabled")
	}
	if k.PolicedDrops() != 0 {
		t.Fatalf("PolicedDrops = %d, want 0", k.PolicedDrops())
	}
}

// TestPolicingToggledMidRun flips the policy off and back on under a
// sustained flood: policed drops accumulate while enabled, freeze while
// disabled (overflow falls back to plain queue-bound drops), and resume
// when re-enabled — no restart or queue reset required.
func TestPolicingToggledMidRun(t *testing.T) {
	eng, k := newKernel(ModeRC)
	k.Police = Policing{Enabled: true}
	p := k.NewProcess("httpd")
	cont := rc.MustNew(nil, rc.TimeShare, "sock", rc.Attributes{Priority: 5})
	if _, err := k.Listen(p, ListenConfig{Local: srvAddr, Container: cont}); err != nil {
		t.Fatal(err)
	}
	// ~50k SYN/s against ~9k SYN/s of protocol service: the backlog
	// passes the police limit (64) within a few milliseconds.
	for i := 0; i < 3000; i++ {
		pkt := SYNPacket(netsim.Addr{IP: netsim.MustParseIP("66.0.0.1"), Port: uint16(i)}, srvAddr, true)
		eng.After(sim.Duration(i)*20*sim.Microsecond, func() { k.Arrive(pkt) })
	}

	eng.RunUntil(sim.Time(20 * sim.Millisecond))
	afterOn := k.PolicedDrops()
	if afterOn == 0 {
		t.Fatal("no policed drops while enabled under flood")
	}

	k.Police.Enabled = false
	eng.RunUntil(sim.Time(40 * sim.Millisecond))
	if got := k.PolicedDrops(); got != afterOn {
		t.Fatalf("policed drops moved while disabled: %d -> %d", afterOn, got)
	}

	k.Police.Enabled = true
	eng.RunUntil(sim.Time(60 * sim.Millisecond))
	if got := k.PolicedDrops(); got <= afterOn {
		t.Fatalf("policed drops did not resume after re-enable: still %d", got)
	}
}

// TestPolicingCountersConserved sends a fixed burst of legitimate SYNs
// through a policed kernel and checks the fates add up: every SYN is
// either established or counted in SynDrops, exactly once, and policed
// drops are a subset of the listener's drop counter.
func TestPolicingCountersConserved(t *testing.T) {
	for _, mode := range []Mode{ModeLRP, ModeRC} {
		t.Run(mode.String(), func(t *testing.T) {
			eng, k := newKernel(mode)
			k.Police = Policing{Enabled: true}
			p := k.NewProcess("httpd")
			var cont *rc.Container
			if mode == ModeRC {
				cont = rc.MustNew(nil, rc.TimeShare, "sock", rc.Attributes{Priority: 5})
			}
			var ls *ListenSocket
			var err error
			ls, err = k.Listen(p, ListenConfig{
				Local:     srvAddr,
				Container: cont,
				OnAcceptable: func(l *ListenSocket) {
					// Drain accepts so the accept queue never interferes;
					// only policing and the backlog bound refuse SYNs here.
					l.Accept()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			const n = 800
			for i := 0; i < n; i++ {
				pkt := SYNPacket(client(uint16(1000+i)), srvAddr, false)
				eng.After(sim.Duration(i)*20*sim.Microsecond, func() { k.Arrive(pkt) })
			}
			eng.Run()

			established := k.ConnsEstablished()
			drops := ls.SynDrops()
			if established+drops != n {
				t.Fatalf("fates not conserved: established %d + drops %d != %d sent", established, drops, n)
			}
			if established == 0 || drops == 0 {
				t.Fatalf("degenerate split established=%d drops=%d: burst did not exercise policing", established, drops)
			}
			if k.PolicedDrops() == 0 || k.PolicedDrops() > drops {
				t.Fatalf("policed drops %d not a nonzero subset of listener drops %d", k.PolicedDrops(), drops)
			}
			if cont != nil {
				if got := cont.Usage().PacketsDropped; got < k.PolicedDrops() {
					t.Fatalf("container charged %d drops, fewer than %d policed", got, k.PolicedDrops())
				}
			}
		})
	}
}

// TestUnmodifiedSYNThrottle covers Policing's degraded form on the
// unmodified kernel (no per-process backlog): an interrupt-level
// embryonic-queue throttle that is off by default, disabled by frac >= 1,
// and when active sheds flood SYNs for the interrupt cost alone while
// still admitting legitimate connections below the limit.
func TestUnmodifiedSYNThrottle(t *testing.T) {
	flood := func(eng *sim.Engine, k *Kernel, n int) {
		for i := 0; i < n; i++ {
			pkt := SYNPacket(netsim.Addr{IP: netsim.MustParseIP("66.0.0.1"), Port: uint16(i)}, srvAddr, true)
			eng.After(sim.Duration(i)*200*sim.Microsecond, func() { k.Arrive(pkt) })
		}
	}

	t.Run("off by default", func(t *testing.T) {
		eng, k := newKernel(ModeUnmodified)
		if _, err := k.Listen(k.NewProcess("httpd"), ListenConfig{Local: srvAddr}); err != nil {
			t.Fatal(err)
		}
		flood(eng, k, 200)
		eng.Run()
		if k.PolicedDrops() != 0 {
			t.Fatalf("throttle active while disabled: %d policed drops", k.PolicedDrops())
		}
	})

	t.Run("frac at 1 disables", func(t *testing.T) {
		eng, k := newKernel(ModeUnmodified)
		k.Police = Policing{Enabled: true, SYNFrac: 1}
		if _, err := k.Listen(k.NewProcess("httpd"), ListenConfig{Local: srvAddr}); err != nil {
			t.Fatal(err)
		}
		flood(eng, k, 200)
		eng.Run()
		if k.PolicedDrops() != 0 {
			t.Fatalf("throttle active with frac=1: %d policed drops", k.PolicedDrops())
		}
	})

	t.Run("sheds over the embryonic limit", func(t *testing.T) {
		eng, k := newKernel(ModeUnmodified)
		k.Police = Policing{Enabled: true} // SYNFrac 0 → default 1/16 of 1024 = 64
		hookDrops := 0
		ls, err := k.Listen(k.NewProcess("httpd"), ListenConfig{
			Local:     srvAddr,
			OnSynDrop: func(Address) { hookDrops++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		// 200 bogus SYNs in 40ms, well inside the 100ms embryonic expiry:
		// the first 64 occupy the queue, the other 136 are throttled.
		flood(eng, k, 200)
		eng.RunUntil(sim.Time(50 * sim.Millisecond))
		if got := ls.EmbryonicCount(); got != 64 {
			t.Fatalf("embryonic count %d, want the 64-slot limit", got)
		}
		if k.PolicedDrops() != 136 {
			t.Fatalf("policed drops %d, want 136", k.PolicedDrops())
		}
		if ls.SynDrops() != 136 || hookDrops != 136 {
			t.Fatalf("SynDrops %d / OnSynDrop %d, want 136 each", ls.SynDrops(), hookDrops)
		}

		// A legitimate SYN is throttled too while the embryonic queue is
		// pinned at the limit — admission control cannot tell flood from
		// legit by address — but succeeds once the bogus entries expire.
		k.Arrive(SYNPacket(client(1), srvAddr, false))
		eng.RunUntil(sim.Time(60 * sim.Millisecond))
		if k.ConnsEstablished() != 0 {
			t.Fatal("legit SYN admitted while embryonic queue at limit")
		}
		eng.RunUntil(sim.Time(150 * sim.Millisecond)) // past BogusSynTimeout
		k.Arrive(SYNPacket(client(2), srvAddr, false))
		eng.Run()
		if k.ConnsEstablished() != 1 {
			t.Fatalf("legit SYN not admitted after expiry: established %d", k.ConnsEstablished())
		}
	})
}
