package main

import (
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTenantFlagParsing(t *testing.T) {
	tf := tenantFlags{}
	for _, s := range []string{"gold=0.6", "bronze=0.1", "free=0"} {
		if err := tf.Set(s); err != nil {
			t.Fatalf("Set(%q): %v", s, err)
		}
	}
	if tf["gold"] != 0.6 || tf["bronze"] != 0.1 || tf["free"] != 0 {
		t.Fatalf("parsed tenants %v", tf)
	}
	if got := tf.String(); got != "bronze=0.1,free=0,gold=0.6" {
		t.Fatalf("String() = %q", got)
	}
	for _, bad := range []string{"", "noequals", "=0.5", "gold=0.2", "x=nan", "x=1.5", "x=-0.1"} {
		if err := tf.Set(bad); err == nil {
			t.Fatalf("Set(%q) accepted", bad)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, argv := range [][]string{
		{"-tenant", "broken"},
		{"-window", "-1s"},
		{"-grace", "-1s"},
		{"-maxconns", "-1", "-demo"},
		{"-addr", "127.0.0.1:not-a-port", "-demo"},
	} {
		if err := run(argv, &strings.Builder{}, &strings.Builder{}); err == nil {
			t.Fatalf("run(%v) succeeded, want error", argv)
		}
	}
}

// TestRunDemo boots the real server on an ephemeral loopback port, lets
// the -demo self-driver flood a limited tenant with real-CPU work, and
// checks that the governed path both served and shed.
func TestRunDemo(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-addr", "127.0.0.1:0",
		"-window", "50ms",
		"-tenant", "demo=0.1",
		"-demo",
	}, &out, &strings.Builder{})
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "listening on") {
		t.Fatalf("missing listen banner:\n%s", got)
	}
	if !strings.Contains(got, "demo burst done") {
		t.Fatalf("demo did not finish:\n%s", got)
	}
	// With a 5ms budget per 50ms window, 2ms real-CPU requests, and
	// NoDelay shedding, the burst must include both outcomes. The exact
	// split depends on real scheduling, so only presence is asserted.
	if strings.Contains(got, "— 20 served, 0 shed") {
		t.Fatalf("flooded limited tenant was never shed:\n%s", got)
	}
	if strings.Contains(got, "— 0 served") {
		t.Fatalf("limited tenant was never served:\n%s", got)
	}
	if !strings.Contains(got, `"shed"`) {
		t.Fatalf("stats JSON missing from demo output:\n%s", got)
	}
}

// syncBuilder is a strings.Builder safe for the writes run()'s serving
// goroutines may interleave with the test's reads.
type syncBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunSignalDrain delivers a synthetic SIGTERM through the
// signalNotify seam and checks that run() drains gracefully: it returns
// nil and writes the final stats JSON (with a clean drain report) to
// the error stream.
func TestRunSignalDrain(t *testing.T) {
	orig := signalNotify
	defer func() { signalNotify = orig }()
	signalNotify = func(ch chan<- os.Signal) {
		go func() {
			time.Sleep(50 * time.Millisecond) // let Serve start
			ch <- syscallSIGTERM()
		}()
	}

	var out, errOut syncBuilder
	err := run([]string{
		"-addr", "127.0.0.1:0",
		"-window", "50ms",
		"-grace", "1s",
		"-tenant", "demo=0.5",
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errOut.String())
	}
	got := errOut.String()
	if !strings.Contains(got, "draining (grace 1s)") {
		t.Fatalf("missing drain banner on stderr:\n%s", got)
	}
	if !strings.Contains(got, `"clean":true`) {
		t.Fatalf("final stats JSON missing clean drain report:\n%s", got)
	}
	if !strings.Contains(got, `"drain_shed"`) || !strings.Contains(got, `"served"`) {
		t.Fatalf("final stats JSON incomplete:\n%s", got)
	}
}
