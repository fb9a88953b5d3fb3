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

// CacheWar is an extension experiment for §4.4's "physical memory":
// two guests share the filesystem buffer cache. Guest B serves a small
// hot document set (cache-resident when left alone); guest A scans a huge
// corpus, a streaming workload whose insertions flood the LRU. Without
// memory isolation A's scan evicts B's hot set and B becomes disk-bound;
// with a container memory quota on A's subtree, A's scan evicts only its
// own pages and B keeps its cache hits — per-activity control of physical
// memory via the hierarchy.
func CacheWar(opt Options) *metrics.Table {
	opt = opt.withDefaults(10*sim.Second, 20*sim.Second)
	// Guest B touches each hot document only every ~4 s by design (the
	// slow reuse is what makes it pollutable), so the hot set needs a
	// long warmup regardless of the caller's quick settings.
	if opt.Warmup < 10*sim.Second {
		opt.Warmup = 10 * sim.Second
	}
	if opt.Window < 15*sim.Second {
		opt.Window = 15 * sim.Second
	}
	t := metrics.NewTable("Extension: cache isolation between guests (shared 256 KB buffer cache)",
		"Configuration", "B hit rate (%)", "B throughput (req/s)", "B latency (ms)", "A throughput (req/s)")
	for _, quota := range []bool{false, true} {
		hit, btput, blat, atput := cacheWarPoint(quota, opt)
		name := "no memory isolation"
		if quota {
			name = "guest A capped at 64 KB cache (MemLimit)"
		}
		t.AddRow(name, hit, btput, blat, atput)
	}
	return t
}

func cacheWarPoint(quota bool, opt Options) (hitPct, bTput, bLatMs, aTput float64) {
	e := newEnv(kernel.ModeRC, opt)
	e.k.FileCache().SetCapacity(256 * 1024)

	var aLimit int64
	if quota {
		aLimit = 64 * 1024
	}
	_, aAddr := e.cacheGuest("guestA", 8001, aLimit)
	_, bAddr := e.cacheGuest("guestB", 8002, 0)

	// Guest A: streaming scan over a huge corpus (every request a new
	// document).
	scanSeq := uint64(0)
	aPop := workload.MustStartPopulation(8, workload.ClientConfig{
		Kernel: e.k,
		Src:    netsim.Addr{IP: ClientNet + 1, Port: 1024},
		Dst:    aAddr,
		PathFor: func(uint64) string {
			scanSeq++
			return fmt.Sprintf("/corpus/%d", scanSeq)
		},
	})
	// Guest B: a low-rate service over a 32-document hot set (shared
	// round-robin so clients do not march in lockstep). The slow reuse
	// interval is what makes B vulnerable to cache pollution: between two
	// touches of a hot document, A's scan can stream hundreds of new
	// documents through the shared LRU.
	bSeq := uint64(0)
	bPop := workload.MustStartPopulation(4, workload.ClientConfig{
		Kernel: e.k,
		Src:    netsim.Addr{IP: ClientNet + 0x40, Port: 1024},
		Dst:    bAddr,
		Think:  500 * sim.Millisecond,
		PathFor: func(uint64) string {
			bSeq++
			return fmt.Sprintf("/hot/%d", bSeq%32)
		},
	})

	start := e.eng.Now()
	e.eng.RunUntil(start.Add(opt.Warmup))
	aPop.ResetStats()
	bPop.ResetStats()
	h0, _, _ := e.k.FileCache().Stats()
	// Hit-rate attribution: B's hot set is the only repeated workload, so
	// global hits ≈ B hits; measure the delta over the window.
	e.eng.RunUntil(start.Add(opt.Warmup + opt.Window))
	h1, _, _ := e.k.FileCache().Stats()

	bReq := float64(bPop.Completed())
	hitPct = 0
	if bReq > 0 {
		hitPct = 100 * float64(h1-h0) / bReq
		if hitPct > 100 {
			hitPct = 100
		}
	}
	return hitPct, bPop.Rate(e.eng.Now()), bPop.MeanLatencyMs(), aPop.Rate(e.eng.Now())
}

// cacheGuest starts a guest web server at port on the server host whose
// subtree is rooted at a fixed-share container called name. The guest's
// cache footprint is charged to a dedicated child limited to quota bytes
// (0 = unlimited), so the quota constrains cached documents without also
// counting the guest's socket buffers. In ModeRC the server runs
// per-connection containers and its default container moves into the
// root; the cache quota itself is mode-independent. It returns the cache
// container and the guest's address.
func (e *env) cacheGuest(name string, port uint16, quota int64) (*rc.Container, netsim.Addr) {
	root := rc.MustNew(nil, rc.FixedShare, name, rc.Attributes{})
	cache := rc.MustNew(root, rc.FixedShare, name+"-cache", rc.Attributes{MemLimit: quota})
	addr := netsim.Addr{IP: ServerAddr.IP, Port: port}
	srv, err := httpsim.NewServer(httpsim.Config{
		Kernel: e.k, Name: name, Addr: addr, API: httpsim.EventAPI,
		PerConnContainers: e.k.Mode() == kernel.ModeRC,
		Parent:            root,
		CacheContainer:    cache,
	})
	if err != nil {
		panic(err)
	}
	// Only ModeRC processes have a default container to reparent.
	if dc := srv.Process().DefaultContainer; dc != nil {
		if err := dc.SetParent(root); err != nil {
			panic(err)
		}
	}
	return cache, addr
}
