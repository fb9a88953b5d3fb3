package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestResolveExperimentsAll(t *testing.T) {
	got, err := resolveExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, r := range runners {
		if r.inAll {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("all resolves to %d runners, want %d", len(got), want)
	}
}

func TestResolveExperimentsListKeepsDeclarationOrder(t *testing.T) {
	got, err := resolveExperiments("fig14, fig11,overload")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(got))
	for i, r := range got {
		names[i] = r.name
	}
	if strings.Join(names, ",") != "fig11,fig14,overload" {
		t.Fatalf("resolved %v, want declaration order fig11,fig14,overload", names)
	}
}

func TestResolveExperimentsUnknownFailsUpFront(t *testing.T) {
	_, err := resolveExperiments("fig11,nope,alsonope")
	if err == nil {
		t.Fatal("unknown names did not error")
	}
	msg := err.Error()
	for _, want := range []string{`"nope"`, `"alsonope"`, "known experiments:", "fig11"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q does not mention %q", msg, want)
		}
	}
}

func TestRunnerNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range runners {
		if seen[r.name] {
			t.Fatalf("duplicate runner name %q", r.name)
		}
		seen[r.name] = true
	}
}

// TestIdentityUnitsMatchAll: scripts/identity.sh lists the -exp all
// experiments it checks one by one; the list must be every runner in
// all but table1 (whose cost column is wall-clock), in declaration
// order, or a new experiment would escape the byte-identity check.
func TestIdentityUnitsMatchAll(t *testing.T) {
	src, err := os.ReadFile("../../scripts/identity.sh")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^all=\(([^)]*)\)`).FindSubmatch(src)
	if m == nil {
		t.Fatal("scripts/identity.sh has no all=(...) list")
	}
	got := strings.Join(strings.Fields(string(m[1])), " ")
	var want []string
	for _, r := range runners {
		if r.inAll && r.name != "table1" {
			want = append(want, r.name)
		}
	}
	if w := strings.Join(want, " "); got != w {
		t.Fatalf("scripts/identity.sh all=(%s), want all=(%s)", got, w)
	}
}
