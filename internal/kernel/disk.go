package kernel

import (
	"fmt"

	"rescon/internal/rc"
	"rescon/internal/sim"
	"rescon/internal/trace"
)

// The disk's calibration: a late-1990s SCSI disk — ~8 ms average
// positioning, ~25 MB/s media rate (≈40 µs per KiB) — and the bound on
// its pending queue.
const (
	DiskSeek       = 8 * sim.Millisecond
	DiskPerKiB     = 40 * sim.Microsecond
	DiskQueueLimit = 256
)

// Disk models the machine's disk: one head, requests served one at a
// time via DMA (no CPU cost), with the pending queue ordered by the
// requesting container's priority and, within a priority, by QoS-weighted
// fair service — the §4.4 claim that disk bandwidth is "conveniently
// controlled by resource containers". Without containers the queue is
// FIFO, as in the unmodified kernel.
type Disk struct {
	k *Kernel

	queue    []*diskReq
	nextSeq  uint64
	busy     bool
	busyTime sim.Duration
	served   uint64
	errors   uint64
	// per-container weighted service for fair ordering (mirrors the
	// network pktQueue discipline).
	serviceTab map[*rc.Container]float64
}

type diskReq struct {
	container *rc.Container
	bytes     int
	onDone    func()
	onErr     func()
	seq       uint64
}

// Disk returns the kernel's disk, creating it on first use.
func (k *Kernel) Disk() *Disk {
	if k.disk == nil {
		k.disk = &Disk{
			k:          k,
			serviceTab: make(map[*rc.Container]float64),
		}
	}
	return k.disk
}

// BusyTime returns total time the disk spent servicing requests.
func (d *Disk) BusyTime() sim.Duration { return d.busyTime }

// Served returns the number of completed requests.
func (d *Disk) Served() uint64 { return d.served }

// Errors returns the number of reads failed by injected media errors.
func (d *Disk) Errors() uint64 { return d.errors }

// QueueLen returns the number of pending requests.
func (d *Disk) QueueLen() int { return len(d.queue) }

// Read schedules a disk read of the given size on behalf of c (nil
// outside ModeRC); onDone fires when the data is in memory. Reads beyond
// the queue limit are rejected (onDone never fires) and reported false.
// A read failed by an injected media error also never calls onDone; use
// ReadWithError to observe failures.
func (d *Disk) Read(c *rc.Container, bytes int, onDone func()) bool {
	return d.ReadWithError(c, bytes, onDone, nil)
}

// ReadWithError is Read with an error path: onErr fires instead of onDone
// when the read fails with an injected media error, so callers can shed
// the request instead of leaving the client to time out.
func (d *Disk) ReadWithError(c *rc.Container, bytes int, onDone, onErr func()) bool {
	if len(d.queue) >= DiskQueueLimit {
		if c != nil {
			c.ChargeDrop()
		}
		return false
	}
	d.nextSeq++
	d.queue = append(d.queue, &diskReq{container: c, bytes: bytes, onDone: onDone, onErr: onErr, seq: d.nextSeq})
	d.start()
	return true
}

// start begins servicing if the head is free.
func (d *Disk) start() {
	if d.busy || len(d.queue) == 0 {
		return
	}
	req := d.pick()
	d.busy = true
	cost := DiskSeek + sim.Duration(req.bytes)*DiskPerKiB/1024
	failed := false
	// A read's fate is drawn when the head reaches it, in service order,
	// so the schedule is deterministic.
	if d.k.Faults != nil {
		fail, extra := d.k.Faults.DiskFate(req.bytes)
		if fail {
			// A media error surfaces after the head has moved: the seek is
			// paid, the transfer never happens.
			failed = true
			cost = DiskSeek
			// Name the principal, not the container value: container IDs
			// come from a global counter and are not stable across runs in
			// one process, which would break trace-dump determinism.
			d.k.Tracer.Emitf(d.k.Now(), trace.KindFault, "disk read error %dB for %s", req.bytes, diskPrincipal(req.container))
		} else if extra > 0 {
			cost += extra
			d.k.Tracer.Emitf(d.k.Now(), trace.KindFault, "disk latency spike +%v for %s", extra, diskPrincipal(req.container))
		}
	}
	if d.k.Tracer.Enabled(trace.KindDispatch) {
		name := diskPrincipal(req.container)
		d.k.Tracer.Emit(trace.Event{
			At: d.k.Now(), Kind: trace.KindDispatch, CPU: -1,
			Stage: trace.StageDisk, Principal: name, Cost: cost,
			Detail: fmt.Sprintf("disk read %dB", req.bytes),
		})
	}
	d.k.eng.After(cost, func() {
		d.busy = false
		d.busyTime += cost
		if d.k.tel != nil {
			// Disk occupancy joins the profile under its own stage, so
			// "who held the device" is queryable next to CPU attribution.
			r := d.k.telMachine
			if req.container != nil {
				r = d.k.containerRow(req.container)
			}
			d.k.tel.Charge(r, trace.StageDisk, cost)
		}
		if req.container != nil {
			// A failed read still occupied the device: charge the time (with
			// no bytes transferred) so device occupancy stays conserved.
			bytes := req.bytes
			if failed {
				bytes = 0
			}
			req.container.ChargeDiskRead(bytes, cost)
			w := req.container.QoSWeight()
			d.serviceTab[req.container] += float64(cost) / w
		}
		if failed {
			d.errors++
			if req.onErr != nil {
				req.onErr()
			}
		} else {
			d.served++
			if req.onDone != nil {
				req.onDone()
			}
		}
		d.start()
	})
}

// diskPrincipal names the principal a disk request is attributed to;
// container-less requests (non-RC modes) fall to the machine bucket.
func diskPrincipal(c *rc.Container) string {
	if c != nil {
		return c.Name()
	}
	return "(machine)"
}

// pick removes and returns the next request: highest container priority
// first, then least QoS-weighted service, then arrival order. Without
// containers (nil), requests are FIFO at priority 0.
func (d *Disk) pick() *diskReq {
	best := 0
	if d.k.mode == ModeRC {
		for i := 1; i < len(d.queue); i++ {
			if d.diskLess(d.queue[i], d.queue[best]) {
				best = i
			}
		}
	}
	req := d.queue[best]
	d.queue = append(d.queue[:best], d.queue[best+1:]...)
	// Garbage-collect service entries for destroyed containers.
	for c := range d.serviceTab {
		if c.Destroyed() {
			delete(d.serviceTab, c)
		}
	}
	return req
}

func (d *Disk) diskLess(a, b *diskReq) bool {
	pa, pb := 0, 0
	var sa, sb float64
	if a.container != nil {
		pa = a.container.EffectivePriority()
		sa = d.serviceTab[a.container]
	}
	if b.container != nil {
		pb = b.container.EffectivePriority()
		sb = d.serviceTab[b.container]
	}
	if pa != pb {
		return pa > pb
	}
	if sa != sb {
		return sa < sb
	}
	return a.seq < b.seq
}
