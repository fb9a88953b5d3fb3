package experiments

import (
	"fmt"

	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/metrics"
	"rescon/internal/netsim"
	"rescon/internal/rc"
	"rescon/internal/sim"
	"rescon/internal/workload"
)

// GuestShares are the fixed CPU shares of the three guest servers in the
// §5.8 Rent-A-Server experiment.
var GuestShares = []float64{0.50, 0.30, 0.20}

// VServers reproduces §5.8: three guest Web servers, each rooted in a
// top-level fixed-share container, serve mixed static+CGI load; the CPU
// each guest consumes must match its allocation, even though each guest
// comprises several processes and a varying number of activities.
func VServers(opt Options) (*metrics.Table, error) {
	opt = opt.withDefaults(5*sim.Second, 30*sim.Second)
	e := newEnv(kernel.ModeRC, opt)

	type guest struct {
		root *rc.Container
		pop  *workload.Population
	}
	var guests []*guest
	for i, share := range GuestShares {
		root := rc.MustNew(nil, rc.FixedShare, fmt.Sprintf("guest-%d", i+1),
			rc.Attributes{Share: share, Limit: share})
		cgiParent := rc.MustNew(root, rc.FixedShare, "cgi", rc.Attributes{})
		addr := netsim.Addr{IP: ServerAddr.IP, Port: uint16(8001 + i)}
		srv, err := httpsim.NewServer(httpsim.Config{
			Kernel: e.k, Name: fmt.Sprintf("guest%d", i+1), Addr: addr,
			API:               httpsim.SelectAPI,
			PerConnContainers: true,
			Parent:            root,
			CGIParent:         cgiParent,
		})
		if err != nil {
			return nil, err
		}
		// The guest's own process (and its kernel network thread) must
		// live inside the guest's subtree, or its consumption would
		// escape the sandbox.
		if err := srv.Process().DefaultContainer.SetParent(root); err != nil {
			return nil, err
		}
		// Saturating load: static clients plus a CGI client per guest.
		pop := workload.MustStartPopulation(16, workload.ClientConfig{
			Kernel: e.k,
			Src:    netsim.Addr{IP: ClientNet + netsim.IP(1+i*64), Port: 1024},
			Dst:    addr,
		})
		workload.MustStartPopulation(1, workload.ClientConfig{
			Kernel: e.k,
			Src:    netsim.Addr{IP: ClientNet + netsim.IP(0x200+i*64), Port: 1024},
			Dst:    addr,
			Kind:   httpsim.CGI,
			CGICPU: sim.Second,
		})
		guests = append(guests, &guest{root: root, pop: pop})
	}

	start := e.eng.Now()
	e.eng.RunUntil(start.Add(opt.Warmup))
	before := make([]sim.Duration, len(guests))
	for i, g := range guests {
		g.pop.ResetStats()
		before[i] = g.root.Usage().CPU()
	}
	measureStart := e.eng.Now()
	e.eng.RunUntil(start.Add(opt.Warmup + opt.Window))
	elapsed := e.eng.Now().Sub(measureStart)

	t := metrics.NewTable("§5.8 isolation of virtual servers (3 guests, mixed static+CGI load)",
		"Guest", "Allocated share (%)", "Consumed CPU (%)", "Static throughput (req/s)")
	for i, g := range guests {
		used := float64(g.root.Usage().CPU()-before[i]) / float64(elapsed) * 100
		t.AddRow(fmt.Sprintf("guest-%d", i+1), GuestShares[i]*100, used, g.pop.Rate(e.eng.Now()))
	}
	return t, nil
}
