// Package telemetry is the simulator's observability layer: a structured
// trace ring, per-principal usage timelines sampled on a virtual-time
// ticker, and a virtual-CPU profile attributing every simulated CPU
// microsecond to (principal × kernel stage) — the paper's "the kernel
// knows where every microsecond went" accounting (§4.6, Figs 11–14) as a
// queryable table instead of a bespoke experiment.
//
// A Collector is attached to a kernel with Kernel.AttachTelemetry; every
// instrumentation point in the kernel is guarded by a nil check, so a
// detached collector costs nothing on the hot paths. All output is
// deterministic: principals are identified by name (never by numeric
// container ID, which is allocated from a process-global counter and is
// not stable across parallel runs), durations are exported as integer
// nanoseconds, and every exporter writes rows in a total order.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"rescon/internal/metrics"
	"rescon/internal/rc"
	"rescon/internal/sim"
	"rescon/internal/trace"
)

// Collector sizing.
const (
	// TraceCapacity bounds the structured trace ring (events retained).
	TraceCapacity = 4096
	// TimelineCapacity bounds the usage-timeline ring (samples retained).
	TimelineCapacity = 4096
	// SampleInterval is the virtual-time period between timeline samples.
	SampleInterval = sim.Millisecond
)

// Sample is one usage-timeline row: the state of one principal at one
// sampling instant. CPU, Drops and Dispatches are cumulative (consumers
// difference adjacent samples for rates); queue depths are instantaneous
// with BacklogHi the high-water mark since the start of the run.
type Sample struct {
	At        sim.Time
	Principal string
	// CPU is the cumulative CPU time consumed by the principal.
	CPU sim.Duration
	// Backlog is the pending-protocol queue depth (packets awaiting
	// protocol processing); BacklogHi is its high-water mark.
	Backlog   int
	BacklogHi int
	// ListenQ is the accept-queue depth of the principal's listen socket.
	ListenQ int
	// DiskQ is the pending disk-request queue depth.
	DiskQ int
	// Drops is the cumulative count of packets dropped while charged to
	// the principal.
	Drops uint64
	// Dispatches is the cumulative count of CPU slices the scheduler has
	// granted the principal.
	Dispatches uint64
}

// ProfileRow is one cell of the virtual-CPU profile: the total CPU time
// attributed to one principal at one kernel stage.
type ProfileRow struct {
	Principal string
	Stage     trace.Stage
	CPU       sim.Duration
}

// Row indexes one principal's row in a collector's profile table. Rows
// are stable for the collector's lifetime; a Row is meaningful only to
// the collector that issued it.
type Row uint32

// numStages sizes a row's per-stage cells: every trace.Stage up to
// StageDisk, StageNone included.
const numStages = int(trace.StageDisk) + 1

// pageRows is the number of rows per profile page. Rows live in
// fixed-size pages so growing the table never copies or moves a row.
const (
	pageShift = 9
	pageRows  = 1 << pageShift
)

// profRow is one principal's line of the profile: its CPU per stage and
// its dispatch count. Principals with the same name share a row.
type profRow struct {
	name       string
	cpu        [numStages]sim.Duration
	dispatches uint64
}

// collectorIDs hands out collector identities for rc.ProfileSlot owners;
// zero is reserved for an unassigned slot.
var collectorIDs atomic.Uint32

// Collector accumulates trace events, timeline samples and the
// virtual-CPU profile for one kernel. It is not safe for concurrent use;
// like the rest of the simulation it lives on a single goroutine.
type Collector struct {
	tracer *trace.Tracer

	// timeline ring
	samples []Sample
	next    int
	full    bool

	// The virtual-CPU profile: a dense table of principal rows in
	// fixed-size pages, each distinct name interned once into index.
	// Hot paths reach a row through a slot cached on the principal
	// (Resolve), so they hash no strings.
	id            uint32
	pages         []*[pageRows]profRow
	nrows         int
	index         map[string]Row
	totalDispatch uint64

	// sampleHooks run after the kernel records a full round of timeline
	// samples, in registration order; the alert layer subscribes here.
	sampleHooks []func(at sim.Time)

	// run identity, stamped into exporter headers.
	seed int64
	mode string
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{
		tracer:  trace.New(TraceCapacity),
		samples: make([]Sample, TimelineCapacity),
		id:      collectorIDs.Add(1),
		index:   make(map[string]Row),
	}
}

// Tracer returns the collector's structured trace ring; the kernel
// installs it as its Tracer when the collector is attached.
func (c *Collector) Tracer() *trace.Tracer {
	if c == nil {
		return nil
	}
	return c.tracer
}

// Interval returns the timeline sampling period, SampleInterval (also
// for a nil collector).
func (c *Collector) Interval() sim.Duration { return SampleInterval }

// SetRun stamps the collector with the run's identity (engine seed and
// kernel mode) for exporter headers. The kernel calls it on attach.
func (c *Collector) SetRun(seed int64, mode string) {
	c.seed, c.mode = seed, mode
}

// AddSampleHook registers fn to run after every timeline sampling tick,
// once the kernel has recorded the tick's full round of samples. Hooks
// run in registration order on the simulation goroutine, so anything
// they compute from kernel state is deterministic. The alert layer
// (internal/alert) is the canonical subscriber.
func (c *Collector) AddSampleHook(fn func(at sim.Time)) {
	if c == nil || fn == nil {
		return
	}
	c.sampleHooks = append(c.sampleHooks, fn)
}

// FireSampleHooks runs the registered sample hooks; the kernel calls it
// at the end of each sampling tick. Nil-safe.
func (c *Collector) FireSampleHooks(at sim.Time) {
	if c == nil {
		return
	}
	for _, fn := range c.sampleHooks {
		fn(at)
	}
}

// Intern returns the principal's profile row, adding an empty row the
// first time the name is seen. Nil-safe: a nil collector returns 0.
func (c *Collector) Intern(principal string) Row {
	if c == nil {
		return 0
	}
	if r, ok := c.index[principal]; ok {
		return r
	}
	r := Row(c.nrows)
	if c.nrows%pageRows == 0 {
		c.pages = append(c.pages, new([pageRows]profRow))
	}
	c.row(r).name = principal
	c.index[principal] = r
	c.nrows++
	return r
}

// Resolve returns the row of the principal whose profile slot is slot,
// interning name into the slot when it is unassigned or was filled by
// another collector. Once resolved, the lookup is a compare and a load —
// the kernel calls it on every slice, dispatch and classified packet.
// Nil-safe.
func (c *Collector) Resolve(slot *rc.ProfileSlot, name string) Row {
	if c == nil {
		return 0
	}
	if slot.Owner != c.id {
		*slot = rc.ProfileSlot{Owner: c.id, Row: uint32(c.Intern(name))}
	}
	return Row(slot.Row)
}

// row returns the table entry for r.
func (c *Collector) row(r Row) *profRow {
	return &c.pages[r>>pageShift][r%pageRows]
}

// Charge attributes d of simulated CPU to (row, stage) in the
// virtual-CPU profile. Nil-safe: a detached collector is a no-op.
func (c *Collector) Charge(r Row, stage trace.Stage, d sim.Duration) {
	if c == nil || d <= 0 {
		return
	}
	c.row(r).cpu[stage] += d
}

// Dispatch counts one scheduler dispatch of the row's principal.
// Nil-safe.
func (c *Collector) Dispatch(r Row) {
	if c == nil {
		return
	}
	c.row(r).dispatches++
	c.totalDispatch++
}

// RowDispatches returns the cumulative dispatch count of the row's
// principal.
func (c *Collector) RowDispatches(r Row) uint64 {
	if c == nil {
		return 0
	}
	return c.row(r).dispatches
}

// TotalDispatches returns the cumulative dispatch count across all
// principals.
func (c *Collector) TotalDispatches() uint64 {
	if c == nil {
		return 0
	}
	return c.totalDispatch
}

// Record appends a timeline sample, evicting the oldest when the ring is
// full. Nil-safe.
func (c *Collector) Record(s Sample) {
	if c == nil {
		return
	}
	c.samples[c.next] = s
	c.next++
	if c.next == len(c.samples) {
		c.next = 0
		c.full = true
	}
}

// Samples returns the retained timeline samples in record order.
func (c *Collector) Samples() []Sample {
	if c == nil {
		return nil
	}
	if !c.full {
		out := make([]Sample, c.next)
		copy(out, c.samples[:c.next])
		return out
	}
	out := make([]Sample, 0, len(c.samples))
	out = append(out, c.samples[c.next:]...)
	out = append(out, c.samples[:c.next]...)
	return out
}

// StageCPU returns the profile cell for (principal, stage).
func (c *Collector) StageCPU(principal string, stage trace.Stage) sim.Duration {
	if c == nil {
		return 0
	}
	r, ok := c.index[principal]
	if !ok {
		return 0
	}
	return c.row(r).cpu[stage]
}

// sumCPU sums every profile cell, skipping StageDisk when cpuOnly.
func (c *Collector) sumCPU(cpuOnly bool) sim.Duration {
	if c == nil {
		return 0
	}
	var total sim.Duration
	for i := 0; i < c.nrows; i++ {
		for s, d := range c.row(Row(i)).cpu {
			if cpuOnly && trace.Stage(s) == trace.StageDisk {
				continue
			}
			total += d
		}
	}
	return total
}

// TotalCPU sums the whole profile.
func (c *Collector) TotalCPU() sim.Duration { return c.sumCPU(false) }

// AttributedCPU sums the profile rows that represent processor time:
// every stage except StageDisk, which records disk-device occupancy
// rather than CPU consumption. This is the left-hand side of the CPU
// conservation invariant — it must equal the machine's thread busy time
// plus interrupt time whenever a collector is attached, in every kernel
// mode.
func (c *Collector) AttributedCPU() sim.Duration { return c.sumCPU(true) }

// ProfileRows returns the virtual-CPU profile's nonzero cells sorted
// hottest-first: by CPU descending, then principal, then stage — a total
// order, so the rendering is identical across runs and across
// serial/parallel execution.
func (c *Collector) ProfileRows() []ProfileRow {
	if c == nil {
		return nil
	}
	rows := make([]ProfileRow, 0, c.nrows)
	for i := 0; i < c.nrows; i++ {
		pr := c.row(Row(i))
		for s, d := range pr.cpu {
			if d > 0 {
				rows = append(rows, ProfileRow{Principal: pr.name, Stage: trace.Stage(s), CPU: d})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].CPU != rows[j].CPU {
			return rows[i].CPU > rows[j].CPU
		}
		if rows[i].Principal != rows[j].Principal {
			return rows[i].Principal < rows[j].Principal
		}
		return rows[i].Stage < rows[j].Stage
	})
	return rows
}

// WriteProfile renders the top-table: one row per (principal, stage)
// profile cell, hottest first, with the share of total attributed CPU.
// topN <= 0 writes every row. The table uses the same renderer as the
// experiment drivers (metrics.Table), so profile output matches the
// rcbench idiom.
func (c *Collector) WriteProfile(w io.Writer, topN int) {
	rows := c.ProfileRows()
	total := c.TotalCPU()
	t := metrics.NewTable("", "PRINCIPAL", "STAGE", "CPU", "SHARE")
	for i, r := range rows {
		if topN > 0 && i >= topN {
			t.AddRow(fmt.Sprintf("... (%d more rows)", len(rows)-topN), "", "", "")
			break
		}
		share := 0.0
		if total > 0 {
			share = 100 * float64(r.CPU) / float64(total)
		}
		t.AddRow(r.Principal, r.Stage.String(), r.CPU.String(), fmt.Sprintf("%.2f%%", share))
	}
	t.AddRow("TOTAL", "-", total.String(), "100.00%")
	t.Render(w)
}

// WriteJSONL writes the full structured dump as one JSON object per
// line: a meta header, every retained trace event, every timeline
// sample, and every profile row. Encoding is hand-rolled so field order
// and number formatting are byte-stable; all durations are integer
// nanoseconds.
func (c *Collector) WriteJSONL(w io.Writer) error {
	if c == nil {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"type":"meta","seed":%d,"mode":%s,"interval_ns":%d,"events_total":%d}`+"\n",
		c.seed, strconv.Quote(c.mode), int64(SampleInterval), c.tracer.Total())
	for _, e := range c.tracer.Events() {
		fmt.Fprintf(&b, `{"type":"event","at_ns":%d,"kind":%s,"cpu":%d,"stage":%s,"principal":%s,"conn":%d,"cost_ns":%d,"detail":%s}`+"\n",
			int64(e.At), strconv.Quote(string(e.Kind)), e.CPU, strconv.Quote(e.Stage.String()),
			strconv.Quote(e.Principal), e.Conn, int64(e.Cost), strconv.Quote(e.Detail))
	}
	for _, s := range c.Samples() {
		fmt.Fprintf(&b, `{"type":"sample","at_ns":%d,"principal":%s,"cpu_ns":%d,"backlog":%d,"backlog_hi":%d,"listenq":%d,"diskq":%d,"drops":%d,"dispatches":%d}`+"\n",
			int64(s.At), strconv.Quote(s.Principal), int64(s.CPU), s.Backlog, s.BacklogHi,
			s.ListenQ, s.DiskQ, s.Drops, s.Dispatches)
	}
	for _, r := range c.ProfileRows() {
		fmt.Fprintf(&b, `{"type":"profile","principal":%s,"stage":%s,"cpu_ns":%d}`+"\n",
			strconv.Quote(r.Principal), strconv.Quote(r.Stage.String()), int64(r.CPU))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// us renders nanoseconds as fractional microseconds (the trace_event
// time unit) using integer math, so the text is byte-stable.
func us(ns int64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}

// WriteChromeTrace writes the collector's contents in Chrome
// trace_event format (the JSON loaded by chrome://tracing and Perfetto):
// cost-bearing trace events become "X" duration slices on their CPU's
// track, instantaneous events become "i" instants, and timeline samples
// become "C" counter tracks per principal.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	if c == nil {
		return nil
	}
	var b strings.Builder
	b.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(line string) {
		if !first {
			b.WriteString(",")
		}
		first = false
		b.WriteString("\n")
		b.WriteString(line)
	}
	for _, e := range c.tracer.Events() {
		tid := e.CPU
		if tid < 0 {
			tid = 0
		}
		name := e.Detail
		if name == "" {
			name = string(e.Kind)
		}
		args := fmt.Sprintf(`{"principal":%s,"stage":%s,"conn":%d}`,
			strconv.Quote(e.Principal), strconv.Quote(e.Stage.String()), e.Conn)
		if e.Cost > 0 {
			emit(fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"X","ts":%s,"dur":%s,"pid":1,"tid":%d,"args":%s}`,
				strconv.Quote(name), strconv.Quote(string(e.Kind)), us(int64(e.At)), us(int64(e.Cost)), tid, args))
		} else {
			emit(fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"i","s":"t","ts":%s,"pid":1,"tid":%d,"args":%s}`,
				strconv.Quote(name), strconv.Quote(string(e.Kind)), us(int64(e.At)), tid, args))
		}
	}
	for _, s := range c.Samples() {
		emit(fmt.Sprintf(`{"name":%s,"ph":"C","ts":%s,"pid":1,"args":{"cpu_ms":%s,"backlog":%d,"listenq":%d,"diskq":%d,"drops":%d}}`,
			strconv.Quote("timeline:"+s.Principal), us(int64(s.At)), us(int64(s.CPU)), s.Backlog, s.ListenQ, s.DiskQ, s.Drops))
	}
	b.WriteString("\n]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
