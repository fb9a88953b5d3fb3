package alert

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rescon/internal/kernel"
)

// checkGolden compares got byte for byte against testdata/name.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the golden:\n--- got\n%s--- want\n%s", name, got, want)
	}
}

// TestWatchdogClampGolden pins the simulated watchdog's whole journal —
// engage, clamp of the runaway hog container, clear, restore and
// unclamp — byte for byte in the alert JSONL.
func TestWatchdogClampGolden(t *testing.T) {
	mon, wd := floodScene(t, kernel.ModeRC, 7, true, true)
	if wd.Restores() == 0 {
		t.Fatal("watchdog never restored")
	}
	var buf bytes.Buffer
	if err := mon.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "clamped runaway container") || !strings.Contains(buf.String(), "unclamped hog") {
		t.Fatalf("journal lacks the clamp/unclamp notes:\n%s", buf.String())
	}
	checkGolden(t, "watchdog_flood_clamp.jsonl", buf.Bytes())
}
