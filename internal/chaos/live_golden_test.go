package chaos

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// TestLiveSeedsGolden pins the live harness across commits: for
// GenerateLive seeds 1–20, the checked run's digest and headline
// counters — the values `rcchaos -live -run 20 -seed 1 -v` prints.
func TestLiveSeedsGolden(t *testing.T) {
	var b strings.Builder
	for seed := uint64(1); seed <= 20; seed++ {
		r, err := RunLiveChecked(GenerateLive(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fmt.Fprintf(&b, "live seed %d: hash %016x, served %d, shed %d, wd %d/%d, violations %d\n",
			seed, r.Hash, r.Served, r.Shed, r.Engagements, r.Restores, len(r.Violations))
	}
	path := filepath.Join("testdata", "live_seeds.txt")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("live seeds differ from the golden:\n--- got\n%s--- want\n%s", got, want)
	}
}
