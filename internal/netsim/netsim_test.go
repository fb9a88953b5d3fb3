package netsim

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestParseIP(t *testing.T) {
	ip, err := ParseIP("10.1.2.3")
	if err != nil {
		t.Fatal(err)
	}
	if ip != IP(10<<24|1<<16|2<<8|3) {
		t.Fatalf("ParseIP wrong value: %d", ip)
	}
	if ip.String() != "10.1.2.3" {
		t.Fatalf("String round trip: %s", ip)
	}
}

func TestParseIPErrors(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "-1.0.0.0", "a.b.c.d"} {
		if _, err := ParseIP(s); err == nil {
			t.Errorf("ParseIP(%q) should fail", s)
		}
	}
}

func TestMustParseIPPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustParseIP("bogus")
}

func TestIPStringRoundTripProperty(t *testing.T) {
	f := func(raw uint32) bool {
		ip := IP(raw)
		back, err := ParseIP(ip.String())
		return err == nil && back == ip
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAddrString(t *testing.T) {
	a := Addr{IP: MustParseIP("192.168.0.1"), Port: 80}
	if a.String() != "192.168.0.1:80" {
		t.Fatalf("Addr string: %s", a)
	}
}

func TestFilterMatches(t *testing.T) {
	f := Filter{Template: MustParseIP("10.0.0.0"), MaskBits: 8}
	if !f.Matches(MustParseIP("10.255.1.2")) {
		t.Fatal("should match inside /8")
	}
	if f.Matches(MustParseIP("11.0.0.1")) {
		t.Fatal("should not match outside /8")
	}
}

func TestFilterHostMatch(t *testing.T) {
	f := Filter{Template: MustParseIP("10.1.1.1"), MaskBits: 32}
	if !f.Matches(MustParseIP("10.1.1.1")) || f.Matches(MustParseIP("10.1.1.2")) {
		t.Fatal("/32 filter wrong")
	}
}

func TestFilterWildcard(t *testing.T) {
	if !Wildcard.Matches(MustParseIP("1.2.3.4")) || !Wildcard.Matches(0) {
		t.Fatal("wildcard must match everything")
	}
}

func TestFilterComplement(t *testing.T) {
	f := Filter{Template: MustParseIP("10.0.0.0"), MaskBits: 8, Complement: true}
	if f.Matches(MustParseIP("10.1.2.3")) {
		t.Fatal("complement filter matched inside prefix")
	}
	if !f.Matches(MustParseIP("11.1.2.3")) {
		t.Fatal("complement filter missed outside prefix")
	}
}

func TestFilterValidate(t *testing.T) {
	if err := (Filter{MaskBits: 33}).Validate(); !errors.Is(err, ErrBadFilter) {
		t.Fatalf("want ErrBadFilter, got %v", err)
	}
	if err := (Filter{MaskBits: -1}).Validate(); !errors.Is(err, ErrBadFilter) {
		t.Fatalf("want ErrBadFilter, got %v", err)
	}
	if err := Wildcard.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFilterSpecificity(t *testing.T) {
	w := Wildcard.Specificity()
	p8 := Filter{MaskBits: 8}.Specificity()
	p8c := Filter{MaskBits: 8, Complement: true}.Specificity()
	p32 := Filter{MaskBits: 32}.Specificity()
	if !(w < p8c && p8c < p8 && p8 < p32) {
		t.Fatalf("specificity ordering wrong: %d %d %d %d", w, p8c, p8, p32)
	}
}

func TestFilterString(t *testing.T) {
	f := Filter{Template: MustParseIP("10.0.0.0"), MaskBits: 8, Complement: true}
	if f.String() != "!10.0.0.0/8" {
		t.Fatalf("String: %s", f)
	}
}

// Property: a filter and its complement partition the address space.
func TestFilterComplementPartitionProperty(t *testing.T) {
	f := func(tmpl uint32, bits uint8, probe uint32) bool {
		b := int(bits % 33)
		in := Filter{Template: IP(tmpl), MaskBits: b}
		out := Filter{Template: IP(tmpl), MaskBits: b, Complement: true}
		return in.Matches(IP(probe)) != out.Matches(IP(probe))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketKindString(t *testing.T) {
	if SYN.String() != "SYN" || Data.String() != "DATA" || FIN.String() != "FIN" {
		t.Fatal("kind names wrong")
	}
	if PacketKind(9).String() != "PacketKind(9)" {
		t.Fatal("unknown kind formatting wrong")
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{Kind: SYN, Src: Addr{IP: 1, Port: 2}, Dst: Addr{IP: 3, Port: 80}, Size: 40}
	if p.String() == "" {
		t.Fatal("empty packet string")
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int](0)
	for i := 0; i < 5; i++ {
		if !q.Push(i) {
			t.Fatal("unbounded queue rejected push")
		}
	}
	for i := 0; i < 5; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop %d: got %d,%v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop from empty queue succeeded")
	}
}

func TestQueueBounded(t *testing.T) {
	q := NewQueue[int](2)
	if !q.Push(1) || !q.Push(2) {
		t.Fatal("pushes within capacity failed")
	}
	if !q.Full() {
		t.Fatal("queue should be full")
	}
	if q.Push(3) {
		t.Fatal("push to full queue accepted")
	}
	if q.Drops() != 1 {
		t.Fatalf("drops %d, want 1", q.Drops())
	}
	q.Pop()
	if !q.Push(3) {
		t.Fatal("push after pop failed")
	}
}

func TestQueuePeek(t *testing.T) {
	q := NewQueue[string](0)
	if v := q.Peek(); v != nil {
		t.Fatalf("peek on empty returned %q", *v)
	}
	q.Push("a")
	q.Push("b")
	if v := q.Peek(); v == nil || *v != "a" {
		t.Fatalf("Peek: %v", v)
	}
	if q.Len() != 2 {
		t.Fatal("Peek consumed an item")
	}
}

func TestQueueClear(t *testing.T) {
	q := NewQueue[int](5)
	q.Push(1)
	q.Clear()
	if q.Len() != 0 {
		t.Fatal("Clear left items")
	}
	if q.Cap() != 5 {
		t.Fatal("Clear changed capacity")
	}
}

// Property: a bounded queue never exceeds capacity and conserves items.
func TestQueueConservationProperty(t *testing.T) {
	f := func(ops []bool) bool {
		q := NewQueue[int](4)
		pushed, popped, dropped := 0, 0, 0
		for i, push := range ops {
			if push {
				if q.Push(i) {
					pushed++
				} else {
					dropped++
				}
			} else {
				if _, ok := q.Pop(); ok {
					popped++
				}
			}
			if q.Len() > 4 {
				return false
			}
		}
		return pushed-popped == q.Len() && uint64(dropped) == q.Drops()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDemuxBasic(t *testing.T) {
	var d Demux
	srv := Addr{IP: MustParseIP("10.0.0.1"), Port: 80}
	def := &Listener{Local: srv, Filter: Wildcard, Owner: "default"}
	if err := d.Add(def); err != nil {
		t.Fatal(err)
	}
	got := d.Match(srv, MustParseIP("99.1.2.3"))
	if got != def {
		t.Fatalf("Match: %v", got)
	}
	if d.Match(Addr{IP: srv.IP, Port: 81}, MustParseIP("99.1.2.3")) != nil {
		t.Fatal("matched wrong port")
	}
}

func TestDemuxMostSpecificWins(t *testing.T) {
	var d Demux
	srv := Addr{IP: MustParseIP("10.0.0.1"), Port: 80}
	def := &Listener{Local: srv, Filter: Wildcard, Owner: "default"}
	bad := &Listener{Local: srv, Filter: Filter{Template: MustParseIP("66.0.0.0"), MaskBits: 8}, Owner: "attackers"}
	host := &Listener{Local: srv, Filter: Filter{Template: MustParseIP("66.6.6.6"), MaskBits: 32}, Owner: "one-host"}
	for _, l := range []*Listener{def, bad, host} {
		if err := d.Add(l); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Match(srv, MustParseIP("66.1.1.1")); got != bad {
		t.Fatalf("attacker prefix should win over wildcard: %v", got)
	}
	if got := d.Match(srv, MustParseIP("66.6.6.6")); got != host {
		t.Fatalf("/32 should win over /8: %v", got)
	}
	if got := d.Match(srv, MustParseIP("99.0.0.1")); got != def {
		t.Fatalf("unmatched client should hit wildcard: %v", got)
	}
}

func TestDemuxDuplicate(t *testing.T) {
	var d Demux
	srv := Addr{Port: 80}
	l := &Listener{Local: srv, Filter: Wildcard}
	if err := d.Add(l); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(&Listener{Local: srv, Filter: Wildcard}); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("want ErrAddrInUse, got %v", err)
	}
	// Different filter on the same endpoint is the whole point of the
	// new namespace.
	if err := d.Add(&Listener{Local: srv, Filter: Filter{MaskBits: 8}}); err != nil {
		t.Fatal(err)
	}
}

func TestDemuxBadFilter(t *testing.T) {
	var d Demux
	err := d.Add(&Listener{Local: Addr{Port: 80}, Filter: Filter{MaskBits: 99}})
	if !errors.Is(err, ErrBadFilter) {
		t.Fatalf("want ErrBadFilter, got %v", err)
	}
}

func TestDemuxRemove(t *testing.T) {
	var d Demux
	srv := Addr{Port: 80}
	l := &Listener{Local: srv, Filter: Wildcard}
	_ = d.Add(l)
	d.Remove(l)
	if d.Len() != 0 || d.Match(srv, 1) != nil {
		t.Fatal("Remove failed")
	}
	d.Remove(l) // no-op
}

func TestDemuxWildcardLocalIP(t *testing.T) {
	var d Demux
	anyAddr := &Listener{Local: Addr{IP: 0, Port: 80}, Filter: Wildcard}
	_ = d.Add(anyAddr)
	if d.Match(Addr{IP: MustParseIP("10.0.0.1"), Port: 80}, 1) != anyAddr {
		t.Fatal("INADDR_ANY listener should match any local IP")
	}
}

func TestDemuxComplementPair(t *testing.T) {
	// The §5.7 defense: normal socket for everyone except the attack
	// prefix, low-priority socket for the attackers.
	var d Demux
	srv := Addr{Port: 80}
	attack := Filter{Template: MustParseIP("66.0.0.0"), MaskBits: 8}
	good := &Listener{Local: srv, Filter: Filter{Template: attack.Template, MaskBits: 8, Complement: true}, Owner: "good"}
	bad := &Listener{Local: srv, Filter: attack, Owner: "bad"}
	_ = d.Add(good)
	_ = d.Add(bad)
	if got := d.Match(srv, MustParseIP("66.1.2.3")); got != bad {
		t.Fatalf("attacker matched %v", got.Owner)
	}
	if got := d.Match(srv, MustParseIP("9.9.9.9")); got != good {
		t.Fatalf("good client matched %v", got.Owner)
	}
}
