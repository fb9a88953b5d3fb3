package telemetry

import (
	"fmt"
	"strings"
	"testing"

	"rescon/internal/rc"
	"rescon/internal/sim"
	"rescon/internal/trace"
)

func TestConfigDefaults(t *testing.T) {
	c := New()
	if len(c.samples) != TimelineCapacity {
		t.Errorf("timeline ring holds %d samples, want %d", len(c.samples), TimelineCapacity)
	}
	if c.Interval() != SampleInterval {
		t.Errorf("Interval = %v, want %v", c.Interval(), SampleInterval)
	}
	if c.Tracer() == nil {
		t.Fatal("Tracer() = nil")
	}
}

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	c.Record(Sample{})
	if c.Tracer() != nil || c.Samples() != nil || c.ProfileRows() != nil {
		t.Error("nil collector should return nil views")
	}
	if c.StageCPU("x", trace.StageUser) != 0 || c.TotalDispatches() != 0 {
		t.Error("nil collector should report zero counters")
	}
	if err := c.WriteJSONL(&strings.Builder{}); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}
	if err := c.WriteChromeTrace(&strings.Builder{}); err != nil {
		t.Errorf("nil WriteChromeTrace: %v", err)
	}
	if c.TotalCPU() != 0 || c.AttributedCPU() != 0 {
		t.Error("nil collector should report zero CPU")
	}
	if c.Interval() != SampleInterval {
		t.Errorf("nil Interval = %v, want %v", c.Interval(), SampleInterval)
	}
	var b strings.Builder
	c.WriteProfile(&b, 0)
	if !strings.Contains(b.String(), "TOTAL") {
		t.Errorf("nil WriteProfile should render an empty table:\n%s", b.String())
	}
	var slot rc.ProfileSlot
	c.Charge(c.Resolve(&slot, "x"), trace.StageUser, sim.Millisecond)
	c.Dispatch(c.Intern("x"))
	if slot != (rc.ProfileSlot{}) || c.RowDispatches(0) != 0 {
		t.Error("nil collector should leave slots unassigned and count nothing")
	}
}

func TestTimelineRingEviction(t *testing.T) {
	c := New()
	for i := 1; i <= TimelineCapacity+2; i++ {
		c.Record(Sample{At: sim.Time(i), Principal: "p"})
	}
	got := c.Samples()
	if len(got) != TimelineCapacity {
		t.Fatalf("retained %d samples, want %d", len(got), TimelineCapacity)
	}
	for i, s := range got {
		if want := sim.Time(i + 3); s.At != want {
			t.Errorf("sample %d At = %v, want %v (oldest evicted, record order kept)", i, s.At, want)
		}
	}
}

func TestProfileAccumulationAndSorting(t *testing.T) {
	c := New()
	c.Charge(c.Intern("b"), trace.StageUser, 10)
	c.Charge(c.Intern("b"), trace.StageUser, 5) // accumulates into the same cell
	c.Charge(c.Intern("a"), trace.StageSocket, 15)
	c.Charge(c.Intern("a"), trace.StageInterrupt, 40)
	c.Charge(c.Intern("a"), trace.StageIP, 15)
	c.Charge(c.Intern("zero"), trace.StageDisk, 0) // ignored
	c.Charge(c.Intern("neg"), trace.StageDisk, -3) // ignored
	if got := c.StageCPU("b", trace.StageUser); got != 15 {
		t.Errorf("StageCPU(b,user) = %v, want 15", got)
	}
	if got := c.TotalCPU(); got != 85 {
		t.Errorf("TotalCPU = %v, want 85", got)
	}
	rows := c.ProfileRows()
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	// CPU desc, then principal asc, then stage asc.
	want := []ProfileRow{
		{"a", trace.StageInterrupt, 40},
		{"a", trace.StageIP, 15},
		{"a", trace.StageSocket, 15},
		{"b", trace.StageUser, 15},
	}
	for i, r := range rows {
		if r != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, r, want[i])
		}
	}
}

func TestDispatchCounters(t *testing.T) {
	c := New()
	a, b, idle := c.Intern("a"), c.Intern("b"), c.Intern("c")
	c.Dispatch(a)
	c.Dispatch(a)
	c.Dispatch(b)
	if c.TotalDispatches() != 3 {
		t.Errorf("TotalDispatches = %d, want 3", c.TotalDispatches())
	}
	if c.RowDispatches(a) != 2 || c.RowDispatches(b) != 1 || c.RowDispatches(idle) != 0 {
		t.Errorf("per-principal dispatches wrong: a=%d b=%d c=%d",
			c.RowDispatches(a), c.RowDispatches(b), c.RowDispatches(idle))
	}
}

// Principals are identified by name: two containers with the same name
// share one profile row, and their dispatches sum.
func TestSameNamePrincipalsMerge(t *testing.T) {
	c := New()
	a := rc.MustNew(nil, rc.TimeShare, "cgi-req", rc.Attributes{Priority: 1})
	b := rc.MustNew(nil, rc.TimeShare, "cgi-req", rc.Attributes{Priority: 1})
	ra, rb := c.Resolve(&a.Profile, a.Name()), c.Resolve(&b.Profile, b.Name())
	if ra != rb {
		t.Fatalf("same-name containers got rows %d and %d, want one row", ra, rb)
	}
	c.Charge(ra, trace.StageUser, 10)
	c.Charge(rb, trace.StageUser, 5)
	c.Dispatch(ra)
	c.Dispatch(rb)
	c.Dispatch(c.Intern("cgi-req"))
	if got := c.RowDispatches(c.Intern("cgi-req")); got != 3 {
		t.Errorf("Dispatches(cgi-req) = %d, want 3", got)
	}
	rows := c.ProfileRows()
	if want := []ProfileRow{{"cgi-req", trace.StageUser, 15}}; len(rows) != 1 || rows[0] != want[0] {
		t.Errorf("ProfileRows = %+v, want %+v", rows, want)
	}
}

// Rows live in fixed-size pages; growing past a page must keep every
// earlier row (and the slots that point at them) intact.
func TestProfileRowsCrossPages(t *testing.T) {
	c := New()
	n := 2*pageRows + 3
	slots := make([]rc.ProfileSlot, n)
	for i := range slots {
		r := c.Resolve(&slots[i], fmt.Sprintf("p%04d", i))
		c.Charge(r, trace.StageSocket, sim.Duration(i+1))
		c.Dispatch(r)
	}
	if len(c.pages) != 3 {
		t.Fatalf("%d pages for %d rows, want 3", len(c.pages), n)
	}
	// Charge again through the cached slots, after the table has grown.
	for i := range slots {
		c.Charge(c.Resolve(&slots[i], "ignored: slot already resolved"), trace.StageSocket, sim.Duration(i+1))
	}
	var want sim.Duration
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("p%04d", i)
		if got := c.StageCPU(name, trace.StageSocket); got != sim.Duration(2*(i+1)) {
			t.Fatalf("StageCPU(%s) = %v, want %v", name, got, 2*(i+1))
		}
		if got := c.RowDispatches(c.Intern(name)); got != 1 {
			t.Fatalf("Dispatches(%s) = %d, want 1", name, got)
		}
		want += sim.Duration(2 * (i + 1))
	}
	if got := c.TotalCPU(); got != want {
		t.Errorf("TotalCPU = %v, want %v", got, want)
	}
	if rows := c.ProfileRows(); len(rows) != n || rows[0].Principal != fmt.Sprintf("p%04d", n-1) {
		t.Errorf("ProfileRows: %d rows, hottest %+v; want %d rows, hottest p%04d", len(rows), rows[0], n, n-1)
	}
	if c.TotalDispatches() != uint64(n) {
		t.Errorf("TotalDispatches = %d, want %d", c.TotalDispatches(), n)
	}
}

// A container charged by two collectors lands in each collector's own
// row: its slot is re-resolved whenever the other collector charged it
// last, never reused across collectors.
func TestContainerChargedByTwoCollectors(t *testing.T) {
	c1, c2 := New(), New()
	// Give c2 a different row layout so a stale row index would land on
	// the wrong principal.
	c2.Intern("other")
	ct := rc.MustNew(nil, rc.TimeShare, "shared", rc.Attributes{Priority: 1})
	for i := 0; i < 3; i++ {
		c1.Charge(c1.Resolve(&ct.Profile, ct.Name()), trace.StageUser, 10)
		c2.Charge(c2.Resolve(&ct.Profile, ct.Name()), trace.StageUser, 1)
	}
	c1.Dispatch(c1.Resolve(&ct.Profile, ct.Name()))
	if got := c1.StageCPU("shared", trace.StageUser); got != 30 {
		t.Errorf("collector 1: shared = %v, want 30", got)
	}
	if got := c2.StageCPU("shared", trace.StageUser); got != 3 {
		t.Errorf("collector 2: shared = %v, want 3", got)
	}
	if got := c2.StageCPU("other", trace.StageUser); got != 0 {
		t.Errorf("collector 2: other = %v, want 0 (charged through a stale slot)", got)
	}
	d1, d2 := c1.RowDispatches(c1.Intern("shared")), c2.RowDispatches(c2.Intern("shared"))
	if d1 != 1 || d2 != 0 {
		t.Errorf("dispatches: c1 %d, c2 %d; want 1, 0", d1, d2)
	}
}

// fill populates a collector with a fixed scene covering every record
// type the exporters render.
func fill(c *Collector) {
	c.SetRun(42, "RC")
	c.Tracer().Emit(trace.Event{
		At: 1000, Kind: trace.KindDispatch, CPU: 0, Stage: trace.StageUser,
		Principal: "httpd", Conn: 7, Cost: 500, Detail: `run "main"`,
	})
	c.Tracer().Emit(trace.Event{
		At: 2000, Kind: trace.KindDrop, CPU: -1, Principal: "attackers",
	})
	c.Record(Sample{At: 1000, Principal: "httpd", CPU: 500, Backlog: 2,
		BacklogHi: 3, ListenQ: 1, DiskQ: 0, Drops: 4, Dispatches: 9})
	c.Charge(c.Intern("httpd"), trace.StageUser, 500)
	c.Charge(c.Intern("attackers"), trace.StageInterrupt, 900)
	c.Dispatch(c.Intern("httpd"))
}

func TestWriteJSONL(t *testing.T) {
	c := New()
	fill(c)
	var b strings.Builder
	if err := c.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`{"type":"meta","seed":42,"mode":"RC","interval_ns":1000000,"events_total":2}`,
		`"type":"event","at_ns":1000,"kind":"dispatch","cpu":0,"stage":"user","principal":"httpd","conn":7,"cost_ns":500,"detail":"run \"main\""`,
		`"type":"sample","at_ns":1000,"principal":"httpd","cpu_ns":500,"backlog":2,"backlog_hi":3,"listenq":1,"diskq":0,"drops":4,"dispatches":9`,
		`"type":"profile","principal":"attackers","stage":"interrupt","cpu_ns":900`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("JSONL missing %s\ngot:\n%s", want, out)
		}
	}
	// Profile rows render hottest-first.
	if strings.Index(out, `"principal":"attackers","stage":"interrupt"`) >
		strings.Index(out, `"principal":"httpd","stage":"user","cpu_ns":500`) {
		t.Error("profile rows not sorted hottest-first in JSONL")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	c := New()
	fill(c)
	var b strings.Builder
	if err := c.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, `{"displayTimeUnit":"ms","traceEvents":[`) {
		t.Errorf("bad header: %q", out[:40])
	}
	for _, want := range []string{
		`"ph":"X","ts":1.000,"dur":0.500,"pid":1,"tid":0`, // cost-bearing event
		`"ph":"i"`,                          // zero-cost instant (drop)
		`{"name":"timeline:httpd","ph":"C"`, // counter track
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Chrome trace missing %s\ngot:\n%s", want, out)
		}
	}
}

func TestWriteProfileTopTable(t *testing.T) {
	c := New()
	fill(c)
	var b strings.Builder
	c.WriteProfile(&b, 1)
	out := b.String()
	if !strings.Contains(out, "PRINCIPAL") || !strings.Contains(out, "SHARE") {
		t.Errorf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "attackers") {
		t.Errorf("hottest row missing:\n%s", out)
	}
	if strings.Contains(out, "httpd") {
		t.Errorf("topN=1 should cut the second row:\n%s", out)
	}
	if !strings.Contains(out, "... (1 more rows)") || !strings.Contains(out, "TOTAL") {
		t.Errorf("missing truncation marker or TOTAL:\n%s", out)
	}
}

// TestExportersDeterministic builds the same scene twice and checks every
// exporter emits byte-identical output.
func TestExportersDeterministic(t *testing.T) {
	render := func() (string, string, string) {
		c := New()
		fill(c)
		var j, ch, p strings.Builder
		if err := c.WriteJSONL(&j); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteChromeTrace(&ch); err != nil {
			t.Fatal(err)
		}
		c.WriteProfile(&p, 0)
		return j.String(), ch.String(), p.String()
	}
	j1, c1, p1 := render()
	j2, c2, p2 := render()
	if j1 != j2 {
		t.Error("JSONL output differs between identical runs")
	}
	if c1 != c2 {
		t.Error("Chrome trace output differs between identical runs")
	}
	if p1 != p2 {
		t.Error("profile output differs between identical runs")
	}
}

func TestUsFormatter(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{0, "0.000"}, {1, "0.001"}, {999, "0.999"}, {1000, "1.000"},
		{1500, "1.500"}, {2_000_003, "2000.003"}, {-1500, "-1.500"},
	}
	for _, c := range cases {
		if got := us(c.ns); got != c.want {
			t.Errorf("us(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}
