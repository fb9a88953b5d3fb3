package sched

import (
	"fmt"
	"testing"

	"rescon/internal/rc"
	"rescon/internal/sim"
)

// Benchmarks for the scheduler hot path: Pick with a realistic number of
// runnable entities and binding sizes.

// benchScheduler registers nEntities entities with bindingSize containers
// each. Every op re-binds the next container in rotation, as an event
// server rebinds its thread per request, so every container is rebound
// well within the pruning age and the bindings keep their full size.
func benchScheduler(b *testing.B, nEntities, bindingSize int) {
	s := NewContainerScheduler()
	now := sim.Time(0)
	ents := make([]*Entity, nEntities)
	var conts []*rc.Container
	for i := range ents {
		e := &Entity{ID: uint64(i + 1)}
		ents[i] = e
		s.Register(e)
		for j := 0; j < bindingSize; j++ {
			c := rc.MustNew(nil, rc.TimeShare, fmt.Sprintf("c%d-%d", i, j),
				rc.Attributes{Priority: 1 + (i+j)%5})
			s.Bind(e, c, now)
			conts = append(conts, c)
		}
		s.SetRunnable(e, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(conts)
		s.Bind(ents[k/bindingSize], conts[k], now)
		e := s.Pick(now)
		if e == nil {
			b.Fatal("no entity")
		}
		s.Charge(e, e.Resource, 100*sim.Microsecond, now)
		now = now.Add(100 * sim.Microsecond)
	}
}

func BenchmarkPick8Entities(b *testing.B)    { benchScheduler(b, 8, 1) }
func BenchmarkPick64Entities(b *testing.B)   { benchScheduler(b, 64, 1) }
func BenchmarkPickWideBindings(b *testing.B) { benchScheduler(b, 8, 16) }

// benchEventServer is shaped like an event-driven server with a container
// per connection: one server thread whose binding holds its process
// default container and 32 connection leaves, rebinding to the next
// connection per request, beside a kernel network thread classed by its
// pending set. Every op replaces the whole pending set, so it measures
// the push and the miss path: six in seven network-thread evaluations
// refill the key. BenchmarkPickNetThread has the traffic measured on the
// simulated kernel. With capped set the connection leaves sit under a
// limited parent, so every evaluation walks the chain.
func benchEventServer(b *testing.B, capped bool) {
	const conns = 32
	s := NewContainerScheduler()
	now := sim.Time(0)
	var parent *rc.Container
	if capped {
		parent = rc.MustNew(nil, rc.FixedShare, "conns", rc.Attributes{Limit: 0.9})
	}
	binding := []*rc.Container{rc.MustNew(nil, rc.TimeShare, "httpd-default", rc.Attributes{Priority: 1})}
	for i := 0; i < conns; i++ {
		binding = append(binding, rc.MustNew(parent, rc.TimeShare, fmt.Sprintf("conn%d", i),
			rc.Attributes{Priority: 1}))
	}
	server := &Entity{ID: 1}
	s.Register(server)
	for _, c := range binding {
		s.Bind(server, c, now)
	}
	s.SetRunnable(server, true)

	net := &Entity{ID: 2}
	pending := NewPendingSet(net)
	s.Register(net)
	s.Bind(net, rc.MustNew(nil, rc.TimeShare, "netisr", rc.Attributes{Priority: 1}), now)
	s.SetRunnable(net, true)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Bind(server, binding[i%len(binding)], now)
		for _, c := range pending.Containers() {
			pending.Remove(c)
		}
		pending.Add(binding[(i+1)%len(binding)])
		pending.Add(binding[(i+2)%len(binding)])
		e := s.Pick(now)
		if e == nil {
			b.Fatal("no entity")
		}
		s.Charge(e, e.Resource, 100*sim.Microsecond, now)
		now = now.Add(100 * sim.Microsecond)
	}
}

func BenchmarkPickEventServer(b *testing.B)       { benchEventServer(b, false) }
func BenchmarkPickEventServerCapped(b *testing.B) { benchEventServer(b, true) }

// BenchmarkPickNetThread is shaped like the kernel network thread of a
// keep-alive server: its pending set holds 12 of 24 connection leaves,
// and every third decision one drains or one is added (the pending set
// was unchanged between two evaluations two times in three on the
// simulated kernel). When picked, the thread serves the oldest pending
// leaf. An event-server thread bound to all the leaves runs beside it.
func BenchmarkPickNetThread(b *testing.B) {
	const conns, pendingLen = 24, 12
	s := NewContainerScheduler()
	now := sim.Time(0)
	leaves := make([]*rc.Container, conns)
	server := &Entity{ID: 1}
	s.Register(server)
	for i := range leaves {
		leaves[i] = rc.MustNew(nil, rc.TimeShare, fmt.Sprintf("conn%d", i), rc.Attributes{Priority: 1})
		s.Bind(server, leaves[i], now)
	}
	s.SetRunnable(server, true)
	net := &Entity{ID: 2}
	pending := NewPendingSet(net)
	s.Register(net)
	for _, c := range leaves[:pendingLen] {
		pending.Add(c)
	}
	s.Bind(net, leaves[0], now)
	s.SetRunnable(net, true)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The j-th drain takes leaf j and the j-th add brings leaf j+12, so
		// the set rotates through the leaves, 11 or 12 of them pending.
		switch j := i / 6; i % 6 {
		case 0:
			pending.Remove(leaves[j%conns])
		case 3:
			pending.Add(leaves[(j+pendingLen)%conns])
		}
		s.Bind(server, leaves[i%conns], now)
		e := s.Pick(now)
		if e == nil {
			b.Fatal("no entity")
		}
		if e == net {
			s.Bind(net, pending.Containers()[0], now)
		}
		s.Charge(e, e.Resource, 100*sim.Microsecond, now)
		now = now.Add(100 * sim.Microsecond)
	}
}

func BenchmarkDecaySchedulerPick(b *testing.B) {
	s := NewDecayScheduler()
	now := sim.Time(0)
	for i := 0; i < 16; i++ {
		e := &Entity{ID: uint64(i + 1), Proc: NewProcPrincipal("p")}
		s.Register(e)
		s.SetRunnable(e, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := s.Pick(now)
		s.Charge(e, nil, 100*sim.Microsecond, now)
		now = now.Add(100 * sim.Microsecond)
	}
}
