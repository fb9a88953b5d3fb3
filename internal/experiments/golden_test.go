package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("%s differs from the golden:\n--- got\n%s--- want\n%s", name, got, want)
	}
}

// TestLiveTableGolden pins the live experiment's quick table across
// commits: the cells are a pure function of the parameters, so any
// drift is a behaviour change of the governed-live rig or the runtime.
func TestLiveTableGolden(t *testing.T) {
	res, err := Live(liveTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "live_quick.txt", res.Table().String())
}

// TestLiveChaosTableGolden pins the livechaos experiment's quick table
// (undefended and defended cells under the seeded fault schedule).
func TestLiveChaosTableGolden(t *testing.T) {
	res, err := LiveChaos(liveChaosTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "livechaos_quick.txt", res.Table().String())
}
