package rc

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rescon/internal/sim"
)

func snapshotTree(t *testing.T) *Container {
	t.Helper()
	root := MustNew(nil, FixedShare, "guest", Attributes{Share: 0.5, Limit: 0.5})
	conn := MustNew(root, TimeShare, "conn-1", Attributes{Priority: 10})
	conn.ChargeCPU(UserCPU, 3*sim.Millisecond, nil)
	conn.ChargeCPU(KernelCPU, 2*sim.Millisecond, nil)
	conn.ChargePacketIn(1500)
	conn.ChargePacketOut(1024)
	conn.ChargeDiskRead(4096, 9*sim.Millisecond)
	return root
}

func TestCaptureStructure(t *testing.T) {
	root := snapshotTree(t)
	s := Capture(root)
	if s.Name != "guest" || s.Class != "fixed-share" {
		t.Fatalf("root snapshot %+v", s)
	}
	if len(s.Children) != 1 || s.Children[0].Name != "conn-1" {
		t.Fatalf("children %+v", s.Children)
	}
	if s.Usage.CPU() != 5*sim.Millisecond {
		t.Fatalf("aggregated CPU %v", s.Usage.CPU())
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	root := snapshotTree(t)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, root); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "guest" || len(back.Children) != 1 {
		t.Fatalf("round trip: %+v", back)
	}
	if back.Children[0].Usage.BytesIn != 1500 {
		t.Fatalf("usage lost in round trip: %+v", back.Children[0].Usage)
	}
	for _, want := range []string{`"name": "guest"`, `"conn-1"`, `"disk_bytes"`} {
		_ = want
	}
	out := buf.String()
	if !strings.Contains(out, `"name": "guest"`) || !strings.Contains(out, "conn-1") {
		t.Fatalf("JSON missing fields:\n%s", out)
	}
}

func TestBillTotals(t *testing.T) {
	root := snapshotTree(t)
	b := Capture(root).Bill()
	if b.CPUSeconds != 0.005 || b.UserSeconds != 0.003 || b.KernSeconds != 0.002 {
		t.Fatalf("CPU totals %+v", b)
	}
	if b.PacketsIn != 1 || b.BytesIn != 1500 || b.BytesOut != 1024 {
		t.Fatalf("net totals %+v", b)
	}
	if b.DiskBytes != 4096 || b.DiskSeconds != 0.009 {
		t.Fatalf("disk totals %+v", b)
	}
}

func TestDumpTree(t *testing.T) {
	root := snapshotTree(t)
	out := Sprint(root)
	for _, want := range []string{"guest", "conn-1", "share=50%", "limit=50%", "prio=10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	// Child indented under parent.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "  ") {
		t.Fatalf("tree shape wrong:\n%s", out)
	}
}
