package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"rescon/internal/sim"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset did not zero counter")
	}
}

func TestRateMeter(t *testing.T) {
	m := NewRateMeter(0)
	for i := 1; i <= 100; i++ {
		m.Observe()
	}
	// 100 events in 1 simulated second => 100/s.
	if got := m.Rate(sim.Time(sim.Second)); got != 100 {
		t.Fatalf("Rate %v, want 100", got)
	}
	if m.Count() != 100 {
		t.Fatalf("Count %d, want 100", m.Count())
	}
}

func TestRateMeterRestart(t *testing.T) {
	m := NewRateMeter(0)
	m.Observe()
	m.Restart(sim.Time(sim.Second))
	if m.Count() != 0 {
		t.Fatal("Restart did not clear count")
	}
	m.Observe()
	// 1 event in 0.5s window => 2/s.
	if got := m.Rate(sim.Time(sim.Second) + sim.Time(500*sim.Millisecond)); got != 2 {
		t.Fatalf("Rate after restart %v, want 2", got)
	}
}

func TestRateMeterZeroWindow(t *testing.T) {
	m := NewRateMeter(sim.Time(sim.Second))
	m.Observe()
	if m.Rate(sim.Time(sim.Second)) != 0 {
		t.Fatal("zero-width window should report 0 rate")
	}
}

func TestSummaryStats(t *testing.T) {
	var s Summary
	for _, v := range []float64{4, 1, 3, 2, 5} {
		s.Observe(v)
	}
	if s.N() != 5 {
		t.Fatalf("N %d, want 5", s.N())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean %v, want 3", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("Min/Max %v/%v, want 1/5", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestSummaryObserveDuration(t *testing.T) {
	var s Summary
	s.ObserveDuration(2500 * sim.Microsecond)
	if s.Mean() != 2.5 {
		t.Fatalf("ObserveDuration stored %v ms, want 2.5", s.Mean())
	}
}

func TestSummaryReset(t *testing.T) {
	var s Summary
	s.Observe(10)
	s.Reset()
	if s.N() != 0 || s.Mean() != 0 {
		t.Fatal("Reset did not clear summary")
	}
}

func TestSummaryQuantileBounds(t *testing.T) {
	var s Summary
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	if s.Quantile(-1) != 1 {
		t.Fatal("q<0 should clamp to min")
	}
	if s.Quantile(2) != 100 {
		t.Fatal("q>1 should clamp to max")
	}
	if got := s.Quantile(0.9); got != 90 {
		t.Fatalf("p90 %v, want 90", got)
	}
}

// Property: Quantile is monotone in q and bounded by [Min, Max].
func TestSummaryQuantileProperty(t *testing.T) {
	f := func(vals []float64, q1, q2 float64) bool {
		if len(vals) == 0 {
			return true
		}
		var s Summary
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Observe(v)
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		a, b := s.Quantile(q1), s.Quantile(q2)
		return a <= b && a >= s.Min() && b <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Mean is consistent with the sample sum.
func TestSummaryMeanProperty(t *testing.T) {
	f := func(vals []int16) bool {
		var s Summary
		sum := 0.0
		for _, v := range vals {
			s.Observe(float64(v))
			sum += float64(v)
		}
		if len(vals) == 0 {
			return s.Mean() == 0
		}
		return math.Abs(s.Mean()-sum/float64(len(vals))) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "test"
	s.Append(1, 10)
	s.Append(2, 20)
	if y, ok := s.YAt(2); !ok || y != 20 {
		t.Fatalf("YAt(2) = %v,%v", y, ok)
	}
	if _, ok := s.YAt(3); ok {
		t.Fatal("YAt(3) should not exist")
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("Table 1: costs", "Operation", "Cost (ns)")
	tab.AddRow("create", 123.4)
	tab.AddRow("destroy", 99)
	out := tab.String()
	for _, want := range []string{"Table 1: costs", "Operation", "create", "destroy", "123.4", "99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestRenderSeries(t *testing.T) {
	a := &Series{Name: "A"}
	a.Append(0, 1)
	a.Append(1, 2)
	b := &Series{Name: "B"}
	b.Append(1, 30)
	var sb strings.Builder
	RenderSeries(&sb, "Fig", "x", a, b)
	out := sb.String()
	for _, want := range []string{"Fig", "A", "B", "30", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		12345.6: "12346",
		99.95:   "100.0", // %.1f rounds up
		1.23456: "1.235", // %.3f
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

// Sanity: quantile computation agrees with a direct nearest-rank
// implementation on random data.
func TestQuantileAgainstReference(t *testing.T) {
	r := sim.NewRNG(99)
	var s Summary
	var ref []float64
	for i := 0; i < 1000; i++ {
		v := r.Float64() * 100
		s.Observe(v)
		ref = append(ref, v)
	}
	sort.Float64s(ref)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.9, 0.99} {
		idx := int(math.Ceil(q*1000)) - 1
		if got := s.Quantile(q); got != ref[idx] {
			t.Fatalf("Quantile(%v) = %v, want %v", q, got, ref[idx])
		}
	}
}

func TestTableRenderCSV(t *testing.T) {
	tab := NewTable("t", "a", "b")
	tab.AddRow("x", 1.5)
	var sb strings.Builder
	tab.RenderCSV(&sb)
	want := "a,b\nx,1.500\n"
	if sb.String() != want {
		t.Fatalf("CSV %q, want %q", sb.String(), want)
	}
}

func TestRenderSeriesCSV(t *testing.T) {
	a := &Series{Name: "A"}
	a.Append(0, 1)
	a.Append(1, 2)
	b := &Series{Name: "B"}
	b.Append(1, 30)
	var sb strings.Builder
	RenderSeriesCSV(&sb, "x", a, b)
	want := "x,A,B\n0,1,\n1,2,30\n"
	if sb.String() != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", sb.String(), want)
	}
}
