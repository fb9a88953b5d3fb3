package experiments

import (
	"rescon/internal/metrics"
	"rescon/internal/sim"
)

// TailLatency is a modern re-reading of Fig. 11: the paper reports the
// premium client's *mean* response time, but for interactive services the
// tail is what matters. Same scenario at full load (35 low-priority
// clients), reporting mean / p95 / p99 / max for each system. Containers
// do not just lower the mean — they remove the tail, because the premium
// client's processing never waits behind low-priority backlogs at any
// layer.
func TailLatency(opt Options) *metrics.Table {
	opt = opt.withDefaults(2*sim.Second, 20*sim.Second)
	t := metrics.NewTable("Extension: premium-client latency distribution at 35 low-priority clients (ms)",
		"System", "mean", "p95", "p99", "max")
	sums := runPoints(opt.Parallel, len(fig11Systems), func(i int) *metrics.Summary {
		return fig11Point(fig11Systems[i], 35, opt)
	})
	for i, sys := range fig11Systems {
		s := sums[i]
		t.AddRow(sys.name, s.Mean(), s.Quantile(0.95), s.Quantile(0.99), s.Max())
	}
	return t
}
