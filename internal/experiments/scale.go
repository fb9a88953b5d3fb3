package experiments

import (
	"fmt"

	"rescon/internal/kernel"
	"rescon/internal/metrics"
	"rescon/internal/netsim"
	"rescon/internal/sim"
)

// ScaleCounts is the concurrent-connection axis of the datacenter-scale
// experiment: the kernel ramps to N established connections and then
// serves request traffic over a hot subset. Quick runs cap the ramp.
var ScaleCounts = []int{10_000, 100_000, 1_000_000}

// scaleQuickCounts keeps -quick (and the CI scale smoke) fast.
var scaleQuickCounts = []int{10_000, 50_000, 100_000}

const (
	// scaleSynBatch paces connection-request injection: batches stay
	// under the policed per-container backlog limit
	// (DefaultSYNPoliceFrac × DefaultNetBacklog = 64), so a policed
	// kernel admits the whole well-behaved ramp without drops.
	scaleSynBatch = 48
	// scaleSynGap is the simulated time budget per injected SYN before
	// the next batch: enough for interrupt + demux + SYN protocol work.
	scaleSynGap = 150 * sim.Microsecond

	// scaleDataBatch/scaleDataGap pace the hot-connection request
	// traffic, staying under DefaultNetBacklog.
	scaleDataBatch = 256
	scaleDataGap   = 120 * sim.Microsecond

	// scaleHotFrac is the fraction of established connections that carry
	// request traffic once the ramp completes — the datacenter shape:
	// millions parked, a small working set hot.
	scaleHotFrac = 100 // 1 in scaleHotFrac

	scaleRounds = 3 // requests per hot connection
)

// Scale is the datacenter-scale extension experiment: flyweight
// connection state under all three kernel modes, policed and unpoliced.
// Each point ramps a fresh kernel to N concurrent established
// connections (verifying the conn table holds exactly N), drives
// scaleRounds requests over the hot subset, and tears everything down
// (verifying the table drains to zero). The reported figure is the
// served request rate during the hot-traffic phase, in simulated req/s.
func Scale(opt Options) (*metrics.Table, error) {
	opt = opt.withDefaults(2*sim.Second, 10*sim.Second)
	counts := ScaleCounts
	if opt.Window <= 2*sim.Second {
		counts = scaleQuickCounts
	}
	type config struct {
		name    string
		mode    kernel.Mode
		policed bool
	}
	configs := []config{
		{"unmod", kernel.ModeUnmodified, false},
		{"unmod+police", kernel.ModeUnmodified, true},
		{"lrp", kernel.ModeLRP, false},
		{"lrp+police", kernel.ModeLRP, true},
		{"rc", kernel.ModeRC, false},
		{"rc+police", kernel.ModeRC, true},
	}
	type point struct{ ci, gi int }
	pts := make([]point, 0, len(counts)*len(configs))
	for ci := range counts {
		for gi := range configs {
			pts = append(pts, point{ci, gi})
		}
	}
	rates, err := runPointsErr(opt.Parallel, len(pts), func(i int) (float64, error) {
		p := pts[i]
		c := configs[p.gi]
		rate, err := scalePoint(counts[p.ci], c.mode, c.policed, opt)
		if err != nil {
			return 0, fmt.Errorf("%s at %d conns: %w", c.name, counts[p.ci], err)
		}
		return rate, nil
	})
	if err != nil {
		return nil, err
	}
	headers := []string{"open conns"}
	for _, c := range configs {
		headers = append(headers, c.name)
	}
	t := metrics.NewTable(
		"Datacenter scale: hot-subset request rate with N established connections (req/s)",
		headers...)
	for ci, n := range counts {
		row := []any{fmt.Sprintf("%d", n)}
		for gi := range configs {
			row = append(row, rates[ci*len(configs)+gi])
		}
		t.AddRow(row...)
	}
	return t, nil
}

// connEstablished is the no-op SYN-ACK callback of the ramp clients (the
// driver tracks established connections through the accept queue).
func connEstablished(*kernel.Conn) {}

// scalePoint runs one (conns, mode, policed) cell and returns the hot
// request rate. Every phase is verified: the ramp must establish exactly
// n connections, every request must be served, and teardown must drain
// the connection table to zero.
func scalePoint(n int, mode kernel.Mode, policed bool, opt Options) (float64, error) {
	eng := sim.NewEngine(opt.Seed)
	k := kernel.New(eng, mode)
	if policed {
		k.Police.Enabled = true
	}
	p := k.NewProcess("fe")
	conns := make([]*kernel.Conn, 0, n)
	buf := make([]*kernel.Conn, 4*scaleSynBatch)
	ls, err := k.Listen(p, kernel.ListenConfig{
		Local:         ServerAddr,
		SynBacklog:    1 << 16,
		AcceptBacklog: 1 << 16,
	})
	if err != nil {
		return 0, err
	}
	drain := func() {
		for {
			m := ls.AcceptBatch(buf)
			if m == 0 {
				return
			}
			conns = append(conns, buf[:m]...)
		}
	}
	// Ramp: paced SYN batches, accepted in batches between injections.
	issued, stalls := 0, 0
	for len(conns) < n {
		batch := scaleSynBatch
		if rem := n - issued; rem < batch {
			batch = rem
		}
		for j := 0; j < batch; j++ {
			src := netsim.Addr{
				IP:   ClientNet + netsim.IP(1+issued/60000),
				Port: uint16(1024 + issued%60000),
			}
			k.ClientSend(kernel.ConnectPacket(src, ServerAddr, connEstablished))
			issued++
		}
		before := len(conns)
		eng.RunUntil(eng.Now().Add(sim.Duration(batch+1) * scaleSynGap))
		drain()
		if len(conns) == before {
			if stalls++; stalls > 1000 {
				return 0, fmt.Errorf("ramp stalled at %d/%d conns (SYN drops %d)",
					len(conns), n, ls.SynDrops())
			}
		} else {
			stalls = 0
		}
	}
	if open := k.OpenConns(); open != n {
		return 0, fmt.Errorf("ramped to %d open conns, want %d", open, n)
	}

	// Hot traffic: requests over the working set, paced under the
	// protocol backlog bound.
	hot := n / scaleHotFrac
	if hot < 100 {
		hot = 100
	}
	if hot > n {
		hot = n
	}
	served := 0
	for _, c := range conns[:hot] {
		c.SetOnRequest(func(*kernel.Conn, any) { served++ })
	}
	start := eng.Now()
	for r := 0; r < scaleRounds; r++ {
		for i := 0; i < hot; i += scaleDataBatch {
			m := hot - i
			if m > scaleDataBatch {
				m = scaleDataBatch
			}
			for j := i; j < i+m; j++ {
				c := conns[j]
				k.ClientSend(kernel.DataPacket(c.Client(), ServerAddr, c.ID(), 64, r))
			}
			eng.RunUntil(eng.Now().Add(sim.Duration(m+1) * scaleDataGap))
		}
	}
	eng.RunUntil(eng.Now().Add(50 * sim.Millisecond))
	elapsed := eng.Now().Sub(start)
	if served != scaleRounds*hot {
		return 0, fmt.Errorf("served %d of %d hot requests", served, scaleRounds*hot)
	}

	// Teardown: the conn table must drain completely.
	for _, c := range conns {
		c.Close()
	}
	if open := k.OpenConns(); open != 0 {
		return 0, fmt.Errorf("%d conns still open after teardown", open)
	}
	return float64(served) / elapsed.Seconds(), nil
}
