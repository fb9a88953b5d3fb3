// Package trace provides a bounded, deterministic, structured event log
// for the simulated kernel. Tracing is off unless a Tracer is attached,
// so the hot paths pay only a nil check.
//
// Events about a packet (arrivals, drops, policing, connection
// establishment) are recorded without formatting anything: the ring
// keeps the format, a value copy of the packet header and at most one
// integer, and Events renders the Detail text when the ring is read.
// Almost every event is evicted unread, so the per-packet path never
// pays for text. Other details are formatted when emitted; call sites
// guard that work with Enabled so a detached or filtered tracer costs
// nothing.
package trace

import (
	"fmt"
	"io"
	"strings"

	"rescon/internal/netsim"
	"rescon/internal/sim"
)

// Kind classifies trace events so consumers can filter.
type Kind string

// Event kinds emitted by the kernel.
const (
	KindPacket    Kind = "packet"    // NIC arrival
	KindDrop      Kind = "drop"      // packet dropped (backlog, SYN queue, memory)
	KindConn      Kind = "conn"      // connection established / closed
	KindDispatch  Kind = "dispatch"  // CPU slice start
	KindInterrupt Kind = "interrupt" // interrupt-level work
	KindFault     Kind = "fault"     // injected fault (wire loss/dup/delay, disk error)
	KindPolice    Kind = "police"    // admission-control (backlog policing) drop
	KindCrash     Kind = "crash"     // server worker crash / restart
)

// Stage identifies the kernel execution stage CPU time is attributed to —
// the rows of the paper's "who paid for this microsecond" accounting
// (§4.6, Fig 14). StageNone marks events that carry no CPU attribution.
type Stage uint8

// Kernel execution stages, in pipeline order.
const (
	StageNone      Stage = iota
	StageInterrupt       // NIC interrupt handling
	StageIP              // early demultiplexing / IP-level classification
	StageSocket          // protocol and socket-layer processing
	StageSyscall         // kernel-mode work in syscall context
	StageUser            // user-mode application work
	StageDisk            // disk device occupancy
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageNone:
		return "-"
	case StageInterrupt:
		return "interrupt"
	case StageIP:
		return "ip"
	case StageSocket:
		return "socket"
	case StageSyscall:
		return "syscall"
	case StageUser:
		return "user"
	case StageDisk:
		return "disk"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Event is one structured trace record. Principal names the resource
// principal involved (a container or scheduler-entity name — never a
// numeric container ID, which is not stable across parallel runs); CPU is
// the processor index (-1 when no processor is involved); Conn is the
// kernel connection identifier (0 when not connection-scoped); Cost is
// the CPU time the event accounts for (0 for instantaneous events).
type Event struct {
	At        sim.Time
	Kind      Kind
	CPU       int
	Stage     Stage
	Principal string
	Conn      uint64
	Cost      sim.Duration
	Detail    string
}

// String formats the event as one log line, structured fields first.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12v %-10s", e.At, e.Kind)
	if e.CPU >= 0 {
		fmt.Fprintf(&b, " cpu%d", e.CPU)
	}
	if e.Stage != StageNone {
		fmt.Fprintf(&b, " stage=%s", e.Stage)
	}
	if e.Principal != "" {
		fmt.Fprintf(&b, " [%s]", e.Principal)
	}
	if e.Conn != 0 {
		fmt.Fprintf(&b, " conn=%d", e.Conn)
	}
	if e.Cost != 0 {
		fmt.Fprintf(&b, " cost=%v", e.Cost)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " %s", e.Detail)
	}
	return b.String()
}

// detailShape says how a ring record's Detail is produced on read.
type detailShape uint8

const (
	detailText      detailShape = iota // Detail is the rendered text
	detailPacket                       // fmt.Sprintf(Detail, hdr)
	detailIntPacket                    // fmt.Sprintf(Detail, arg, hdr)
	detailSource                       // fmt.Sprintf(Detail, hdr.Src)
)

// record is one ring slot. For a packet event, ev.Detail holds the
// format and hdr/arg its operands; nothing in the slot points at the
// packet, so a retained record never keeps one live.
type record struct {
	ev    Event
	hdr   netsim.Header
	arg   int
	shape detailShape
}

// event returns the record as an Event, rendering a deferred Detail.
func (r *record) event() Event {
	e := r.ev
	switch r.shape {
	case detailPacket:
		e.Detail = fmt.Sprintf(e.Detail, r.hdr)
	case detailIntPacket:
		e.Detail = fmt.Sprintf(e.Detail, r.arg, r.hdr)
	case detailSource:
		e.Detail = fmt.Sprintf(e.Detail, r.hdr.Src)
	}
	return e
}

// Tracer is a bounded ring of events.
type Tracer struct {
	events []record
	next   int
	full   bool
	total  uint64
	// Filter, when non-nil, drops events whose kind maps to false.
	Filter map[Kind]bool
}

// New returns a tracer holding the last capacity events.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Tracer{events: make([]record, capacity)}
}

// Enabled reports whether events of the kind would be recorded. Call
// sites use it to skip detail formatting when the tracer is detached or
// the kind is filtered out.
func (t *Tracer) Enabled(kind Kind) bool {
	if t == nil {
		return false
	}
	return t.Filter == nil || t.Filter[kind]
}

// Emit records an event (subject to the filter). The CPU field is kept
// as given: processor-less emitters must set it to -1.
func (t *Tracer) Emit(e Event) {
	if !t.Enabled(e.Kind) {
		return
	}
	t.push(record{ev: e})
}

// EmitPacket records e with its Detail deferred: Events renders it as
// fmt.Sprintf(format, h), the same text formatting the packet itself
// would give. e.Detail is ignored. Nothing is formatted or allocated
// here, so per-packet call sites need no Enabled guard.
func (t *Tracer) EmitPacket(e Event, format string, h netsim.Header) {
	if !t.Enabled(e.Kind) {
		return
	}
	e.Detail = format
	t.push(record{ev: e, hdr: h, shape: detailPacket})
}

// EmitPacketInt is EmitPacket for a format with an integer operand
// before the packet: the Detail renders as fmt.Sprintf(format, n, h).
func (t *Tracer) EmitPacketInt(e Event, format string, n int, h netsim.Header) {
	if !t.Enabled(e.Kind) {
		return
	}
	e.Detail = format
	t.push(record{ev: e, hdr: h, arg: n, shape: detailIntPacket})
}

// EmitSource is EmitPacket for a format whose one operand is a source
// address: the Detail renders as fmt.Sprintf(format, src).
func (t *Tracer) EmitSource(e Event, format string, src netsim.Addr) {
	if !t.Enabled(e.Kind) {
		return
	}
	e.Detail = format
	t.push(record{ev: e, hdr: netsim.Header{Src: src}, shape: detailSource})
}

// push stores r in the next ring slot, evicting the oldest when full.
func (t *Tracer) push(r record) {
	t.events[t.next] = r
	t.next++
	t.total++
	if t.next == len(t.events) {
		t.next = 0
		t.full = true
	}
}

// Emitf records a detail-only, processor-less event. The format is
// evaluated at once when the kind is recorded, and skipped when the
// tracer is detached or the kind filtered; the boxed arguments are built
// by the caller either way. It is for rare events — per-packet paths use
// EmitPacket, which formats nothing until the ring is read.
func (t *Tracer) Emitf(at sim.Time, kind Kind, format string, args ...any) {
	if !t.Enabled(kind) {
		return
	}
	t.Emit(Event{At: at, Kind: kind, CPU: -1, Detail: fmt.Sprintf(format, args...)})
}

// Total returns how many events have been emitted (including evicted).
func (t *Tracer) Total() uint64 { return t.total }

// Events returns the retained events in chronological order, with every
// deferred Detail rendered.
func (t *Tracer) Events() []Event {
	n, oldest := t.next, 0
	if t.full {
		n, oldest = len(t.events), t.next
	}
	out := make([]Event, n)
	for i := range out {
		out[i] = t.events[(oldest+i)%len(t.events)].event()
	}
	return out
}

// Dump writes the retained events to w, most recent last.
func (t *Tracer) Dump(w io.Writer) {
	for _, e := range t.Events() {
		fmt.Fprintln(w, e)
	}
}

// String returns the dump as a string.
func (t *Tracer) String() string {
	var b strings.Builder
	t.Dump(&b)
	return b.String()
}
