package rc

import (
	"testing"

	"rescon/internal/sim"
)

func BenchmarkChargeCPUDepth3(b *testing.B) {
	root := MustNew(nil, FixedShare, "root", Attributes{})
	mid := MustNew(root, FixedShare, "mid", Attributes{})
	leaf := MustNew(mid, TimeShare, "leaf", Attributes{Priority: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leaf.ChargeCPU(UserCPU, sim.Microsecond, nil)
	}
}

func BenchmarkNewRelease(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := MustNew(nil, TimeShare, "c", Attributes{Priority: 1})
		_ = c.Release()
	}
}

func BenchmarkTableOpenClose(b *testing.B) {
	t := NewTable()
	c := MustNew(nil, TimeShare, "c", Attributes{Priority: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := t.Open(c)
		_ = t.Close(d)
	}
}

// BenchmarkSetAttributesChurn is the rebalance controller's actuation
// path: a closed-loop tick rewrites member attributes in place, every
// few milliseconds, for the lifetime of the process. The benchmark
// mirrors that shape — four siblings under one parent, shares shifting
// between two valid splits — so the sibling share-overflow scan is on
// the measured path. Pinned at zero allocs/op in BENCH_baseline.json.
func BenchmarkSetAttributesChurn(b *testing.B) {
	parent := MustNew(nil, FixedShare, "pool", Attributes{})
	members := make([]*Container, 4)
	for i := range members {
		members[i] = MustNew(parent, FixedShare, "m", Attributes{Share: 0.2, MemLimit: 1 << 20})
	}
	lo := Attributes{Share: 0.1, MemLimit: 1 << 19}
	hi := Attributes{Share: 0.3, MemLimit: 3 << 19}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := members[i%len(members)]
		attrs := lo
		if i%2 == 0 {
			attrs = hi
		}
		if err := m.SetAttributes(attrs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUsageRead(b *testing.B) {
	c := MustNew(nil, TimeShare, "c", Attributes{Priority: 1})
	c.ChargeCPU(UserCPU, sim.Millisecond, nil)
	var u Usage
	for i := 0; i < b.N; i++ {
		u = c.Usage()
	}
	_ = u
}
