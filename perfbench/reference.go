package main

import (
	"container/heap"
	"io"
	"math/rand"
	"net"
	"runtime"
	"time"
)

// The simulator workloads are memory-bound: on a shared host their speed
// follows how much of the caches and memory bandwidth the neighbours
// leave them, which changes from minute to minute by more than any bound
// could absorb, while ALU-bound work does not move at all. So after every
// round the benchmark times a fixed reference job of its own with the
// same shape — a discrete-event loop over a heap of pending events, an
// allocation per event and map lookups over a table of a few MB — and
// scales the round's throughput by how long the reference took against
// refNominal. The reference is the benchmark's code, not the program's:
// a change to the program moves the scaled figure exactly as it moves the
// raw one.

// refNominal is the reference's wall time the scaled figures are quoted
// at: about its median on the 2-CPU development box, so there the scaled
// and the raw throughput read alike.
const refNominal = 80 * time.Millisecond

const (
	refEvents = 80_000
	refKeys   = 1 << 16
)

type refEvent struct {
	at   int64
	key  uint64
	data []byte
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

type refNode struct {
	count int64
	buf   [48]byte
}

// refWork runs the reference job: refEvents events drawn from a fixed
// seed. It returns a checksum so the work cannot be optimised away.
func refWork() int64 {
	r := rand.New(rand.NewSource(7))
	table := make(map[uint64]*refNode, refKeys)
	for i := 0; i < refKeys; i++ {
		table[uint64(i)] = &refNode{}
	}
	q := &refQueue{}
	for i := 0; i < 256; i++ {
		heap.Push(q, &refEvent{at: int64(r.Intn(1000)), key: uint64(r.Intn(refKeys)), data: make([]byte, 64)})
	}
	var sum int64
	for n := 0; n < refEvents; n++ {
		e := heap.Pop(q).(*refEvent)
		nd := table[e.key]
		nd.count++
		sum += nd.count + int64(e.data[0])
		heap.Push(q, &refEvent{
			at:   e.at + int64(r.Intn(1000)),
			key:  (e.key*2654435761 + uint64(n)) % refKeys,
			data: make([]byte, 32+r.Intn(128)),
		})
	}
	return sum
}

// refSink keeps refWork's result live.
var refSink int64

// timeReference collects garbage, so the reference starts from the same
// heap every time, and returns the reference job's wall time.
func timeReference() time.Duration {
	runtime.GC()
	t0 := time.Now()
	refSink += refWork()
	return time.Since(t0)
}

// The live workload's closed-loop rate is one request's round trip over
// loopback, and on the shared host it follows how fast an idle CPU wakes
// for a packet, which the memory-bound job above does not measure. Its
// reference is a raw TCP echo over loopback, owned by the benchmark: after
// each capacity window the good tenant's generator times echoRounds
// round trips of a small message, and the window's rate is scaled by that
// round trip against echoNominal.

// echoNominal is the echo round trip the scaled live figures are quoted
// at: about its median on the 2-CPU development box beside the flood.
const echoNominal = 17 * time.Microsecond

const echoRounds = 200

// echo is a loopback TCP connection to a goroutine that writes back
// whatever it reads.
type echo struct {
	ln   net.Listener
	c    net.Conn
	done chan struct{}
	buf  [64]byte
}

func startEcho() (*echo, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echo{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(e.done)
		s, err := ln.Accept()
		if err != nil {
			return
		}
		defer s.Close()
		_, _ = io.Copy(s, s)
	}()
	if e.c, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-e.done
		return nil, err
	}
	return e, nil
}

// rtt returns the mean round trip over echoRounds exchanges.
func (e *echo) rtt() (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < echoRounds; i++ {
		if _, err := e.c.Write(e.buf[:]); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(e.c, e.buf[:]); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) / echoRounds, nil
}

// close ends the echo goroutine and waits for it.
func (e *echo) close() {
	e.c.Close()
	e.ln.Close()
	<-e.done
}
