package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dumbnet/internal/experiments"
)

// docFlags returns the flags given to dumbnet-bench anywhere in text, one
// invocation per "dumbnet-bench " it finds. An invocation runs to the end
// of its line, through shell continuations and through an inline code span
// that wraps onto the next line.
func docFlags(text string) []string {
	const cmd = "dumbnet-bench"
	lines := strings.Split(strings.ReplaceAll(text, "\\\n", " "), "\n")
	var flags []string
	for li, line := range lines {
		for at := 0; ; {
			i := strings.Index(line[at:], cmd)
			if i < 0 {
				break
			}
			at += i + len(cmd)
			args := line[at:]
			if args != "" && args[0] != ' ' && args[0] != '\t' {
				continue // a path or a possessive, not an invocation
			}
			if strings.Count(line[:at], "`")%2 == 1 && !strings.Contains(args, "`") && li+1 < len(lines) {
				args += " " + lines[li+1]
			}
			flags = append(flags, invocationFlags(args)...)
		}
	}
	return flags
}

// invocationFlags reads flags and their values from the start of args, up
// to the first word that is neither or the end of a code span.
func invocationFlags(args string) []string {
	var flags []string
	afterFlag := false
	for _, tok := range strings.Fields(args) {
		word := strings.TrimRight(tok, "`.,;:)")
		name, _, _ := strings.Cut(strings.TrimLeft(word, "-"), "=")
		switch {
		case name != word && name != "" && 'a' <= name[0] && name[0] <= 'z':
			flags = append(flags, name)
			afterFlag = true
		case afterFlag && strings.IndexAny(word, "#|&;") != 0:
			afterFlag = false // the flag's value
		default:
			return flags
		}
		if word != tok {
			return flags // the code span or the sentence ends here
		}
	}
	return flags
}

// TestDocumentedFlagsExist keeps the recipes honest: every dumbnet-bench
// flag the docs and CI use is one the command defines.
func TestDocumentedFlagsExist(t *testing.T) {
	for _, doc := range []string{
		"EXPERIMENTS.md", "README.md", "DESIGN.md",
		".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml",
	} {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		flags := docFlags(string(text))
		if len(flags) == 0 {
			t.Errorf("%s: found no dumbnet-bench flags; is the scan broken?", doc)
		}
		for _, name := range flags {
			if flag.Lookup(name) == nil {
				t.Errorf("%s uses dumbnet-bench -%s, which the command does not define", doc, name)
			}
		}
	}
}

func TestDocFlags(t *testing.T) {
	text := "run `go run ./cmd/dumbnet-bench\n-hybrid-scale 16 -hybrid-gb 0.25` prints\n" +
		"go run ./cmd/dumbnet-bench -run all -quick   # everything\n" +
		"go run ./cmd/dumbnet-bench -hybrid-scale 32 \\\n  --hybrid-width=4 2>&1 | tee log\n" +
		"run: go run ./cmd/dumbnet-bench -list\njq -r '.runs[]'\n" +
		"`dumbnet-bench table1` / cmd/dumbnet-bench/main.go, dumbnet-bench's -x"
	got := strings.Join(docFlags(text), " ")
	if want := "hybrid-scale hybrid-gb run quick hybrid-scale hybrid-width list"; got != want {
		t.Fatalf("docFlags = %q, want %q", got, want)
	}
}

// TestHybridScaleDeterministic runs the k=4 scale pass twice with a shuffle
// width past the worker count: both passes complete with one digest, and
// the warm-up clamps to the full shuffle the jobs use.
func TestHybridScaleDeterministic(t *testing.T) {
	d1, w1, err := runHybridScale(io.Discard, 4, 16, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	d2, w2, err := runHybridScale(io.Discard, 4, 16, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("digests differ across runs: %016x vs %016x", d1, d2)
	}
	// 16 hosts, one the controller: 15 workers, each warming its 14 peers.
	const want = 15 * 14
	if w1 != want || w2 != want {
		t.Errorf("warmed %d and %d host pairs, want %d", w1, w2, want)
	}
}

// TestExperimentNamesUnique checks that -run <name> picks out one
// experiment for every name -list prints.
func TestExperimentNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments.Registry("../..") {
		if seen[e.Name] {
			t.Errorf("experiment %q is registered twice", e.Name)
		}
		seen[e.Name] = true
	}
}
