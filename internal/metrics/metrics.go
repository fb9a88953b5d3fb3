// Package metrics provides the measurement primitives used by the
// experiment drivers: counters, rate meters, latency summaries, and
// time series. Everything operates on virtual time from internal/sim so
// that reported rates are rates in simulated seconds.
package metrics

import (
	"math"
	"sort"

	"rescon/internal/sim"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds delta to the counter. Negative deltas panic: a Counter is
// monotonic by contract.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// RateMeter converts a counter observed over a virtual-time window into an
// events-per-second rate.
type RateMeter struct {
	count uint64
	start sim.Time
}

// NewRateMeter returns a meter whose window starts at start.
func NewRateMeter(start sim.Time) *RateMeter {
	return &RateMeter{start: start}
}

// Observe records one event.
func (m *RateMeter) Observe() {
	m.count++
}

// Count returns the number of observed events.
func (m *RateMeter) Count() uint64 { return m.count }

// Rate returns events per simulated second over [start, now].
func (m *RateMeter) Rate(now sim.Time) float64 {
	elapsed := now.Sub(m.start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(m.count) / elapsed
}

// Restart clears the meter and begins a new window at t. Use it to discard
// warm-up transients before the measured interval.
func (m *RateMeter) Restart(t sim.Time) {
	m.count = 0
	m.start = t
}

// Summary accumulates scalar samples and reports order statistics.
type Summary struct {
	samples []float64
	sorted  bool
	sum     float64
}

// Observe records one sample.
func (s *Summary) Observe(v float64) {
	s.samples = append(s.samples, v)
	s.sorted = false
	s.sum += v
}

// ObserveDuration records a duration sample in milliseconds, the unit the
// paper's response-time figures use.
func (s *Summary) ObserveDuration(d sim.Duration) {
	s.Observe(d.Milliseconds())
}

// N returns the number of samples.
func (s *Summary) N() int { return len(s.samples) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (s *Summary) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

func (s *Summary) sort() {
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest-rank, or 0 with
// no samples.
func (s *Summary) Quantile(q float64) float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.sort()
	if q <= 0 {
		return s.samples[0]
	}
	if q >= 1 {
		return s.samples[len(s.samples)-1]
	}
	idx := int(math.Ceil(q*float64(len(s.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s.samples[idx]
}

// Min returns the smallest sample, or 0 with no samples.
func (s *Summary) Min() float64 { return s.Quantile(0) }

// Max returns the largest sample, or 0 with no samples.
func (s *Summary) Max() float64 { return s.Quantile(1) }

// Reset discards all samples.
func (s *Summary) Reset() {
	s.samples = s.samples[:0]
	s.sorted = false
	s.sum = 0
}

// Series is an (x, y) sequence — one figure curve.
type Series struct {
	Name   string
	Points []Point
}

// Point is a single (x, y) sample of a curve.
type Point struct {
	X float64
	Y float64
}

// Append adds a point to the series.
func (s *Series) Append(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// YAt returns the y value for the first point with the given x and whether
// one exists.
func (s *Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}
