package main

import (
	"strings"
	"testing"
)

// TestRepoIsClean is the self-hosting gate, and the one place the module
// is linted under go test: every analyzer over ./... must produce zero
// diagnostics that lack a //seglint:allow rationale.
func TestRepoIsClean(t *testing.T) {
	var out strings.Builder
	n, err := run([]string{"./..."}, &out)
	if err != nil {
		t.Fatalf("seglint failed to run: %v", err)
	}
	if n != 0 {
		t.Errorf("seglint found %d issue(s):\n%s", n, out.String())
	}
}

// TestPatternFiltering pins that package patterns restrict the run: linting
// only internal/geom must type-check and stay clean without loading the
// whole module.
func TestPatternFiltering(t *testing.T) {
	var out strings.Builder
	n, err := run([]string{"./internal/geom"}, &out)
	if err != nil {
		t.Fatalf("seglint failed to run: %v", err)
	}
	if n != 0 {
		t.Errorf("seglint found %d issue(s) in internal/geom:\n%s", n, out.String())
	}
}
