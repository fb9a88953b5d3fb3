package trace

import (
	"fmt"
	"strings"
	"testing"

	"rescon/internal/netsim"
	"rescon/internal/sim"
)

func TestEmitAndEvents(t *testing.T) {
	tr := New(8)
	for i := 0; i < 5; i++ {
		tr.Emitf(sim.Time(i), KindPacket, "pkt %d", i)
	}
	evs := tr.Events()
	if len(evs) != 5 {
		t.Fatalf("events %d", len(evs))
	}
	for i, e := range evs {
		if e.At != sim.Time(i) || e.Kind != KindPacket {
			t.Fatalf("event %d: %+v", i, e)
		}
	}
	if tr.Total() != 5 {
		t.Fatalf("Total %d", tr.Total())
	}
}

func TestStructuredEvent(t *testing.T) {
	tr := New(8)
	tr.Emit(Event{
		At:        sim.Time(3 * sim.Millisecond),
		Kind:      KindDispatch,
		CPU:       1,
		Stage:     StageSocket,
		Principal: "conn-7",
		Conn:      7,
		Cost:      40 * sim.Microsecond,
		Detail:    "proto:DATA",
	})
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("events %d", len(evs))
	}
	e := evs[0]
	if e.Stage != StageSocket || e.Principal != "conn-7" || e.Conn != 7 {
		t.Fatalf("structured fields lost: %+v", e)
	}
	line := e.String()
	for _, want := range []string{"dispatch", "cpu1", "stage=socket", "[conn-7]", "conn=7", "cost=", "proto:DATA"} {
		if !strings.Contains(line, want) {
			t.Fatalf("rendered line %q missing %q", line, want)
		}
	}
}

func TestStageString(t *testing.T) {
	cases := map[Stage]string{
		StageNone:      "-",
		StageInterrupt: "interrupt",
		StageIP:        "ip",
		StageSocket:    "socket",
		StageSyscall:   "syscall",
		StageUser:      "user",
		StageDisk:      "disk",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Fatalf("Stage(%d) = %q, want %q", s, got, want)
		}
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Emitf(sim.Time(i), KindConn, "e%d", i)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	// Chronological order, last four.
	for i, e := range evs {
		if e.At != sim.Time(6+i) {
			t.Fatalf("event %d at %v, want %d", i, e.At, 6+i)
		}
	}
	if tr.Total() != 10 {
		t.Fatalf("Total %d", tr.Total())
	}
}

func TestFilter(t *testing.T) {
	tr := New(8)
	tr.Filter = map[Kind]bool{KindDrop: true}
	tr.Emitf(0, KindPacket, "ignored")
	tr.Emitf(0, KindDrop, "kept")
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Kind != KindDrop {
		t.Fatalf("filter failed: %v", evs)
	}
	if tr.Enabled(KindPacket) {
		t.Fatal("filtered kind reported enabled")
	}
	if !tr.Enabled(KindDrop) {
		t.Fatal("kept kind reported disabled")
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Emitf(0, KindPacket, "no-op") // must not panic
	tr.Emit(Event{Kind: KindDrop})   // must not panic
	if tr.Enabled(KindPacket) {
		t.Fatal("nil tracer reported enabled")
	}
}

func TestDumpFormat(t *testing.T) {
	tr := New(4)
	tr.Emitf(sim.Time(sim.Millisecond), KindDrop, "SYN queue full")
	out := tr.String()
	if !strings.Contains(out, "drop") || !strings.Contains(out, "SYN queue full") {
		t.Fatalf("dump: %q", out)
	}
}

func TestDefaultCapacity(t *testing.T) {
	tr := New(0)
	for i := 0; i < 2000; i++ {
		tr.Emitf(sim.Time(i), KindConn, "e")
	}
	if len(tr.Events()) != 1024 {
		t.Fatalf("default capacity: %d", len(tr.Events()))
	}
}

// lazyCase is one emission in two forms: through the tracer (deferred
// rendering where the shape allows it) and as the Event an eager
// fmt.Sprintf over the live packet would have recorded.
type lazyCase struct {
	emit func(*Tracer)
	want Event
}

// lazyCases covers every deferred shape the kernel uses, with its real
// format strings, next to the eager fallbacks it keeps.
func lazyCases() []lazyCase {
	pkts := []*netsim.Packet{
		{Kind: netsim.SYN, Src: netsim.Addr{IP: netsim.MustParseIP("66.0.0.9"), Port: 1031}, Dst: netsim.Addr{IP: netsim.MustParseIP("10.0.0.1"), Port: 80}, Size: 40, Bogus: true},
		{Kind: netsim.Data, Src: netsim.Addr{IP: netsim.MustParseIP("10.1.0.1"), Port: 5000}, Dst: netsim.Addr{IP: netsim.MustParseIP("10.0.0.1"), Port: 80}, ConnID: 4242, Size: 1460, Payload: "opaque"},
		{Kind: netsim.FIN, Src: netsim.Addr{IP: netsim.MustParseIP("255.255.255.255"), Port: 65535}, Dst: netsim.Addr{IP: 0, Port: 0}, ConnID: 1<<64 - 1, Size: 40},
		{Kind: netsim.PacketKind(9), ConnID: 7, Size: -1},
	}
	var cases []lazyCase
	for i, pkt := range pkts {
		at := sim.Time(i * 1000)
		h := pkt.Header()
		base := Event{At: at, CPU: -1, Principal: "flood", Conn: pkt.ConnID}
		with := func(kind Kind, detail string) Event {
			e := base
			e.Kind, e.Detail = kind, detail
			return e
		}
		arrive := Event{At: at, Kind: KindPacket, CPU: -1, Detail: fmt.Sprintf("%s", pkt)}
		cases = append(cases,
			// Kernel.Arrive.
			lazyCase{
				emit: func(t *Tracer) { t.EmitPacket(Event{At: at, Kind: KindPacket, CPU: -1}, "%s", h) },
				want: arrive,
			},
			// Kernel.emitPkt.
			lazyCase{
				emit: func(t *Tracer) { t.EmitPacket(with(KindDrop, "ignored"), "backlog full: %s", h) },
				want: with(KindDrop, fmt.Sprintf("backlog full: %s", pkt)),
			},
			// Kernel.emitPktOver.
			lazyCase{
				emit: func(t *Tracer) {
					t.EmitPacketInt(with(KindPolice, ""), "policed, backlog over %d: %s", 64-i*40, h)
				},
				want: with(KindPolice, fmt.Sprintf("policed, backlog over %d: %s", 64-i*40, pkt)),
			},
			// Kernel.handleSYN on establishment.
			lazyCase{
				emit: func(t *Tracer) { t.EmitSource(with(KindConn, ""), "established from %s", pkt.Src) },
				want: with(KindConn, fmt.Sprintf("established from %s", pkt.Src)),
			},
			// Eager fallbacks: wire faults and memory-limit drops.
			lazyCase{
				emit: func(t *Tracer) {
					t.Emitf(at, KindFault, "wire fault: duplicated %s (+%v)", pkt, sim.Duration(i)*sim.Microsecond)
				},
				want: Event{At: at, Kind: KindFault, CPU: -1,
					Detail: fmt.Sprintf("wire fault: duplicated %s (+%v)", pkt, sim.Duration(i)*sim.Microsecond)},
			},
			lazyCase{
				emit: func(t *Tracer) {
					t.Emit(with(KindDrop, fmt.Sprintf("memory limit: %s (%v)", pkt, "limit exceeded")))
				},
				want: with(KindDrop, fmt.Sprintf("memory limit: %s (%v)", pkt, "limit exceeded")),
			},
		)
	}
	return cases
}

// Deferred rendering must reproduce, byte for byte, what formatting the
// packet at emit time gave — through ring wraparound and the filter, and
// in the rendered dump.
func TestLazyDetailMatchesEager(t *testing.T) {
	cases := lazyCases()
	filters := map[string]map[Kind]bool{
		"all":          nil,
		"drop+conn":    {KindDrop: true, KindConn: true},
		"packet+fault": {KindPacket: true, KindFault: true, KindPolice: false},
	}
	for name, filter := range filters {
		for _, capacity := range []int{len(cases) * 2, 7, 1} {
			tr := New(capacity)
			tr.Filter = filter
			var want []Event
			for _, c := range cases {
				c.emit(tr)
				if filter == nil || filter[c.want.Kind] {
					want = append(want, c.want)
				}
			}
			if uint64(len(want)) != tr.Total() {
				t.Fatalf("%s/cap %d: Total %d, want %d", name, capacity, tr.Total(), len(want))
			}
			if len(want) > capacity {
				want = want[len(want)-capacity:]
			}
			got := tr.Events()
			if len(got) != len(want) {
				t.Fatalf("%s/cap %d: %d events retained, want %d", name, capacity, len(got), len(want))
			}
			var dump strings.Builder
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/cap %d: event %d\n got %+v\nwant %+v", name, capacity, i, got[i], want[i])
				}
				fmt.Fprintln(&dump, want[i])
			}
			if tr.String() != dump.String() {
				t.Fatalf("%s/cap %d: dump differs\n got %q\nwant %q", name, capacity, tr.String(), dump.String())
			}
		}
	}
}

// Recording a packet event must neither format nor allocate.
func TestEmitPacketNoAllocs(t *testing.T) {
	tr := New(16)
	h := netsim.Header{Kind: netsim.SYN, Size: 40}
	e := Event{Kind: KindDrop, CPU: -1, Principal: "flood"}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.EmitPacket(e, "backlog full: %s", h)
		tr.EmitPacketInt(e, "policed, backlog over %d: %s", 64, h)
		tr.EmitSource(e, "established from %s", h.Src)
	})
	if allocs != 0 {
		t.Fatalf("deferred emits allocate %.2f objects/op, want 0", allocs)
	}
}
