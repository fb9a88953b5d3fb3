package experiments

import (
	"testing"
	"time"

	"rescon/internal/fault"
	"rescon/internal/rcruntime"
)

// runRig drives a limited hog beside a calm tenant, under breakers and
// handler faults, and returns the rig after its audit.
func runRig(t *testing.T, loopback bool) (*LiveRig, rcruntime.Stats, time.Duration) {
	t.Helper()
	rig, err := NewLiveRig("rigtest", []LiveTenant{
		{Name: "good", Requests: 2, Cost: 2 * time.Millisecond, Calm: true},
		{Name: "hog", Limit: 0.2, Requests: 6, Cost: 8 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.Start(LiveBoot{
		Window:   50 * time.Millisecond,
		Options:  []rcruntime.Option{rcruntime.WithBreakers(rcruntime.BreakerConfig{})},
		Seed:     3,
		Faults:   &fault.LiveConfig{HandlerStallRate: 0.2, PanicRate: 0.1},
		Loopback: loopback,
	}); err != nil {
		t.Fatal(err)
	}
	rig.shedCost = 100 * time.Microsecond // the same client cost on both transports
	defer rig.Close()
	var hostile, calm int
	elapsed, err := rig.Drive(6, 4, time.Millisecond, func(h bool, round int) {
		if h {
			hostile = round + 1
		} else {
			calm = round + 1
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if hostile != 6 || calm != 4 {
		t.Fatalf("round hook saw %d hostile and %d calm rounds, want 6 and 4", hostile, calm)
	}
	s, leak, sink := rig.Finish(time.Second)
	if leak != "" || sink != "" {
		t.Fatalf("audit: leak %q, sink %q", leak, sink)
	}
	return rig, s, elapsed
}

// TestLiveRigTransportsAgree: with nothing that needs a socket (no
// accept policy, no connection faults) and the same client costs, the
// loopback and in-process transports must book every request
// identically — the transport is the rig's only per-caller choice, not
// a behaviour change.
func TestLiveRigTransportsAgree(t *testing.T) {
	inproc, s1, e1 := runRig(t, false)
	loop, s2, e2 := runRig(t, true)
	for i := range inproc.Tenants {
		if a, b := inproc.Ledger(i), loop.Ledger(i); a != b {
			t.Errorf("tenant %d ledger: in-process %+v, loopback %+v", i, a, b)
		}
	}
	s2.Accepted, s2.Inflight = 0, 0 // connection gauges exist only on loopback
	if s1 != s2 || e1 != e2 {
		t.Fatalf("in-process %+v after %v, loopback %+v after %v", s1, e1, s2, e2)
	}
	all := inproc.Total()
	if all.Shed == 0 || all.Panicked == 0 || all.Refused() != 0 {
		t.Fatalf("scenario too tame to compare transports: %+v", all)
	}
	if all.Issued != 6*(2+6)+4*2 {
		t.Fatalf("issued %d requests, want every active tenant's per round", all.Issued)
	}
}
