package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a tail figure resting on fewer is noise, not a tail.
const minBeyond = 10

// tailLadder lists the percentiles a tail figure may fall back to, highest
// first. pct walks it downwards from the one asked for.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// pctResult is one reported percentile: which percentile it really is
// (after any fallback), its value and the sample count it rests on.
type pctResult struct {
	Q     float64
	Value float64
	N     int
}

// quantile returns the q-quantile of sorted by the nearest-rank rule: the
// smallest sample with at least a q share of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond returns how many of n samples lie strictly beyond the
// nearest-rank q-quantile.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// pct reports the q-quantile of samples if at least minBeyond samples lie
// beyond it; otherwise it falls back to the highest percentile below q
// that has that many, and says so in the result. The median needs no
// fallback rule of its own: it always has half the samples beyond it. It
// sorts samples in place.
func pct(samples []float64, q float64) pctResult {
	sort.Float64s(samples)
	n := len(samples)
	if q <= 0.5 || beyond(n, q) >= minBeyond {
		return pctResult{Q: q, Value: quantile(samples, q), N: n}
	}
	for _, cand := range tailLadder {
		if cand < q && beyond(n, cand) >= minBeyond {
			return pctResult{Q: cand, Value: quantile(samples, cand), N: n}
		}
	}
	return pctResult{Q: 0.5, Value: quantile(samples, 0.5), N: n}
}

// highestTail is the highest percentile of tailLadder with at least
// minBeyond samples beyond it, for the human-readable report.
func highestTail(samples []float64) pctResult {
	return pct(samples, tailLadder[0])
}

// median returns the median of vs (sorting a copy), or 0 when empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

// windowPct splits a run's samples into its measurement windows, takes the
// q-percentile (by the pct rule) inside each, and returns the median across
// windows with the total sample count. One stalled window — a noisy
// neighbour, a GC at the wrong moment — moves the median of ten windows
// far less than it moves a percentile over the pooled samples.
func windowPct(windows [][]float64, q float64) pctResult {
	var vals []float64
	n := 0
	got := q
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		r := pct(w, q)
		if r.Q < got {
			got = r.Q
		}
		vals = append(vals, r.Value)
		n += len(w)
	}
	return pctResult{Q: got, Value: median(vals), N: n}
}

// memSampler tracks the process's peak live heap: the heap the last
// completed GC found reachable, sampled at each call to sample. Unlike the
// heap-object total it leaves out garbage awaiting collection, whose
// amount at any instant depends on when the collector last ran. A run
// cuts its samples into stretches of equal work (a simulator round, a
// live cycle); the reported figure is the median of the stretches' peaks,
// which one collection landing late cannot move.
type memSampler struct {
	mu    sync.Mutex
	s     []metrics.Sample
	peak  uint64
	peaks []float64
}

func newMemSampler() *memSampler {
	return &memSampler{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (m *memSampler) sample() {
	m.mu.Lock()
	metrics.Read(m.s)
	if v := m.s[0].Value.Uint64(); v > m.peak {
		m.peak = v
	}
	m.mu.Unlock()
}

// cut ends a stretch: it records the stretch's peak and starts the next.
func (m *memSampler) cut() {
	m.mu.Lock()
	m.peaks = append(m.peaks, float64(m.peak)/(1<<20))
	m.peak = 0
	m.mu.Unlock()
}

// peakMB returns the median of the completed stretches' peaks in MB and
// how many stretches there were.
func (m *memSampler) peakMB() (float64, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return median(m.peaks), len(m.peaks)
}

// allocMark is a snapshot of the process's cumulative heap allocation
// and GC counters; the difference of two marks is the allocation cost of
// the work between them.
type allocMark struct {
	objects, bytes uint64
	gcs            uint32
	at             time.Time
}

func markAllocs() allocMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMark{objects: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC, at: time.Now()}
}

// since returns allocated objects, bytes and completed GC cycles from m
// to now.
func (m allocMark) since() (objects, bytes float64, gcs float64) {
	now := markAllocs()
	return float64(now.objects - m.objects), float64(now.bytes - m.bytes), float64(now.gcs - m.gcs)
}
