package main

import (
	"slices"
	"strings"
	"testing"
)

// TestReportCountsKnownFile runs the report on the one-package tree in
// testdata. alpha.go has 12 lines, 4 of them sloc: the blank lines, the
// line comment and the block comment do not count, and the raw string
// counts both lines it spans. alpha_test.go has 9 test lines.
func TestReportCountsKnownFile(t *testing.T) {
	var out strings.Builder
	if err := report(&out, "testdata"); err != nil {
		t.Fatal(err)
	}
	var row []string
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "internal/alpha" {
			row = f
		}
	}
	if want := []string{"internal/alpha", "12", "4", "9"}; !slices.Equal(row, want) {
		t.Errorf("row %q, want %q\n%s", row, want, out.String())
	}
	if want := "non-test Go lines under internal/: 12 (sloc 4)"; !strings.Contains(out.String(), want) {
		t.Errorf("no %q line in\n%s", want, out.String())
	}
}
