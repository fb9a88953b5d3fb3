package experiments

import (
	"fmt"

	"rescon/internal/alert"
	"rescon/internal/httpsim"
	"rescon/internal/kernel"
	"rescon/internal/metrics"
	"rescon/internal/netsim"
	"rescon/internal/sim"
	"rescon/internal/telemetry"
	"rescon/internal/workload"
)

// AlertingFloodRate is the SYN-flood intensity of the watchdog ablation:
// at ~107µs of protocol work per SYN, 20k SYN/s is more than double the
// machine's capacity — deep in the Fig-14 collapse region.
const AlertingFloodRate = sim.Rate(20_000)

// AlertingBucket is the goodput-timeline resolution used to locate the
// collapse knee.
const AlertingBucket = 250 * sim.Millisecond

// alertingClientCount keeps legitimate offered load well above the knee
// detection noise floor: enough resilient clients that steady-state
// buckets hold hundreds of completions.
const alertingClientCount = 64

// AlertingRow is one arm of the watchdog ablation: a kernel mode with
// the alert battery attached, watchdog on or off, attacked by a SYN
// flood plus a slow-loris at onset time.
type AlertingRow struct {
	Mode     kernel.Mode
	Watchdog bool
	// SteadyGoodput is legitimate goodput (req/s) before the attack;
	// FloodGoodput is goodput over the attack window.
	SteadyGoodput float64
	FloodGoodput  float64
	// FirstCritical is when the first critical detection fired after
	// attack onset (-1: never). Watchdog notes don't count.
	FirstCritical sim.Duration
	// Knee is when goodput first fell below half its steady-state rate,
	// measured at AlertingBucket resolution from attack onset (-1: the
	// goodput never collapsed).
	Knee sim.Duration
	// Alert-stream and closed-loop counters for the table.
	Events      int
	Flaps       uint64
	Engagements uint64
	Restores    uint64
}

// AlertingResult holds all six ablation arms (3 modes × watchdog
// on/off) in deterministic order: unmodified, lrp, rc; within a mode,
// watchdog-off then watchdog-on.
type AlertingResult struct {
	Rows []AlertingRow
}

// Row returns the arm for (mode, watchdog).
func (r *AlertingResult) Row(mode kernel.Mode, watchdog bool) AlertingRow {
	for _, row := range r.Rows {
		if row.Mode == mode && row.Watchdog == watchdog {
			return row
		}
	}
	return AlertingRow{FirstCritical: -1, Knee: -1}
}

// Table renders the ablation as the rcbench table.
func (r *AlertingResult) Table() *metrics.Table {
	t := metrics.NewTable(
		"Alerting: closed-loop watchdog ablation under SYN flood + slow-loris",
		"Mode", "Watchdog", "Steady (req/s)", "Flood (req/s)", "First crit (ms)", "Knee (ms)", "Alerts", "Engage/Restore")
	onOff := map[bool]string{true: "on", false: "off"}
	ms := func(d sim.Duration) string {
		if d < 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f", float64(d)/float64(sim.Millisecond))
	}
	for _, row := range r.Rows {
		t.AddRow(row.Mode.String(), onOff[row.Watchdog],
			row.SteadyGoodput, row.FloodGoodput,
			ms(row.FirstCritical), ms(row.Knee),
			row.Events, fmt.Sprintf("%d/%d", row.Engagements, row.Restores))
	}
	return t
}

// Alerting runs the watchdog ablation: for every kernel mode, the same
// flood + slow-loris overload hits a monitored server twice — once with
// detection only, once with the closed-loop watchdog reacting — and the
// goodput timeline locates the collapse knee relative to the first
// critical alert. This is the operational claim of the alert subsystem:
// the leading indicators fire before goodput collapses, and reacting to
// them automatically buys goodput back.
func Alerting(opt Options) (*AlertingResult, error) {
	opt = opt.withDefaults(2*sim.Second, 5*sim.Second)
	modes := []kernel.Mode{kernel.ModeUnmodified, kernel.ModeLRP, kernel.ModeRC}
	rows, err := runPointsErr(opt.Parallel, 2*len(modes), func(i int) (AlertingRow, error) {
		return alertingPoint(opt, modes[i/2], i%2 == 1)
	})
	if err != nil {
		return nil, err
	}
	return &AlertingResult{Rows: rows}, nil
}

// alertingPoint runs one ablation arm: warmup of legitimate load, then
// flood + slow-loris for the measurement window, goodput bucketed at
// AlertingBucket resolution.
func alertingPoint(opt Options, mode kernel.Mode, withWatchdog bool) (AlertingRow, error) {
	row := AlertingRow{Mode: mode, Watchdog: withWatchdog, FirstCritical: -1, Knee: -1}
	e := newEnv(mode, opt)
	tel := telemetry.New()
	e.k.AttachTelemetry(tel)
	mon, err := alert.Attach(e.k)
	if err != nil {
		return row, err
	}
	var wd *alert.Watchdog
	if withWatchdog {
		wd = alert.AttachWatchdog(mon, e.k, alert.WatchdogConfig{})
	}

	if _, err := httpsim.NewServer(httpsim.Config{
		Kernel: e.k, Name: "httpd", Addr: ServerAddr, API: httpsim.EventAPI,
		PerConnContainers: mode == kernel.ModeRC,
	}); err != nil {
		return row, err
	}
	pop := workload.MustStartPopulation(alertingClientCount,
		ResilientClientConfig(e.k, netsim.Addr{IP: ClientNet + 1, Port: 1024}))

	// The attack begins when the warmup ends: a full-rate SYN flood plus
	// a slow-loris tying up server connections.
	onset := e.eng.Now().Add(opt.Warmup)
	e.eng.After(opt.Warmup, func() {
		workload.StartFlood(e.k, AlertingFloodRate, AttackNet+1, 4096, ServerAddr)
		workload.StartSlowLoris(workload.SlowLorisConfig{
			Kernel:  e.k,
			Src:     netsim.Addr{IP: AttackNet + 7, Port: 1024},
			Dst:     ServerAddr,
			Conns:   64,
			Trickle: 50 * sim.Millisecond,
			Hold:    2 * sim.Second,
		})
	})

	// Goodput timeline: completions per AlertingBucket, spanning warmup
	// and attack so the knee is measured against the same clock as the
	// alert stream.
	var buckets []uint64
	var prev uint64
	e.eng.Every(AlertingBucket, func() {
		cur := pop.Completed()
		buckets = append(buckets, cur-prev)
		prev = cur
	})

	e.eng.RunUntil(sim.Time(0).Add(opt.Warmup + opt.Window))

	// Steady-state goodput: the pre-onset buckets, skipping the first
	// (client ramp-up). Flood goodput: everything after onset.
	preOnset := int(opt.Warmup / AlertingBucket)
	if preOnset > len(buckets) {
		preOnset = len(buckets)
	}
	row.SteadyGoodput = bucketRate(buckets[min(1, preOnset):preOnset])
	row.FloodGoodput = bucketRate(buckets[preOnset:])

	// Knee: first post-onset bucket below half the steady-state rate.
	half := row.SteadyGoodput * float64(AlertingBucket) / float64(sim.Second) / 2
	for i, n := range buckets[preOnset:] {
		if float64(n) < half {
			row.Knee = sim.Duration(i+1) * AlertingBucket
			break
		}
	}
	if at, ok := mon.FirstAtSince(alert.LevelCritical, onset); ok {
		row.FirstCritical = at.Sub(onset)
	}
	row.Events = len(mon.Events())
	row.Flaps = mon.Flaps()
	if wd != nil {
		row.Engagements = wd.Engagements()
		row.Restores = wd.Restores()
	}
	return row, nil
}

// bucketRate converts completion-count buckets to a req/s rate.
func bucketRate(buckets []uint64) float64 {
	if len(buckets) == 0 {
		return 0
	}
	var total uint64
	for _, n := range buckets {
		total += n
	}
	return float64(total) / (float64(len(buckets)) * float64(AlertingBucket) / float64(sim.Second))
}
