// Command dumbnet-locreport prints the repository's line-of-code breakdown
// by module — the Table 1 analogue for this reproduction — and the non-test
// internal/ total the ROADMAP tracks. Beside the raw line counts it prints
// sloc: the non-test lines that hold code, neither blank nor comment only.
//
//	dumbnet-locreport [-root path]
package main

import (
	"flag"
	"fmt"
	"go/scanner"
	"go/token"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dumbnet/internal/experiments"
	"dumbnet/internal/metrics"
)

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()
	if err := report(os.Stdout, *root); err != nil {
		log.Fatal(err)
	}
}

// report writes the breakdown of the tree at root to w.
func report(w io.Writer, root string) error {
	// Every package under internal/ gets a row, so a new one cannot be
	// missed; then the trees beside it that exist.
	pkgs, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		return err
	}
	var dirs []string
	for _, p := range pkgs {
		if p.IsDir() {
			dirs = append(dirs, "internal/"+p.Name())
		}
	}
	for _, d := range []string{"cmd", "examples", "bench"} {
		if _, err := os.Stat(filepath.Join(root, d)); err == nil {
			dirs = append(dirs, d)
		}
	}

	tbl := metrics.NewTable("Code breakdown (Go lines)", "module", "code", "sloc", "tests")
	internalCode, internalSloc, totalCode, totalSloc, totalTests := 0, 0, 0, 0, 0
	for _, d := range dirs {
		c, t, err := experiments.GoLines(filepath.Join(root, d))
		if err != nil {
			return err
		}
		sloc, err := slocLines(filepath.Join(root, d))
		if err != nil {
			return err
		}
		if filepath.Dir(d) == "internal" {
			internalCode += c
			internalSloc += sloc
		}
		totalCode += c
		totalSloc += sloc
		totalTests += t
		tbl.AddRow(d, c, sloc, t)
	}
	tbl.AddRow("TOTAL", totalCode, totalSloc, totalTests)
	fmt.Fprintln(w, tbl.String())
	fmt.Fprintf(w, "non-test Go lines under internal/: %d (sloc %d)\n\n", internalCode, internalSloc)

	// Paper comparison.
	paper := metrics.NewTable("Paper's Table 1 (C/C++ lines) for reference",
		"module", "paper LoC")
	rows := map[string]int{
		"Agent": 5000, "Discovery": 600, "Maintenance": 200,
		"Graph": 1700, "Total": 7500, "+Flowlet": 100, "+Router": 100,
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		paper.AddRow(k, rows[k])
	}
	_, err = fmt.Fprintln(w, paper.String())
	return err
}

// slocLines counts the lines of non-test Go source under dir that hold a
// token: blank lines and lines holding only comments do not count, and a
// multi-line string counts every line it spans. It lives here, not in
// experiments.GoLines, so that the counter does not add to the internal/
// total that Table1 reports.
func slocLines(dir string) (int, error) {
	total := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		file := fset.AddFile(path, -1, len(src))
		var s scanner.Scanner
		s.Init(file, src, nil, 0) // mode 0 skips comments
		last := 0                 // the last line counted
		for {
			pos, tok, lit := s.Scan()
			if tok == token.EOF {
				return nil
			}
			if tok == token.SEMICOLON && lit == "\n" {
				continue // inserted at a line end, not written
			}
			first, end := file.Line(pos), file.Line(pos)+strings.Count(lit, "\n")
			if first <= last {
				first = last + 1
			}
			if end >= first {
				total += end - first + 1
				last = end
			}
		}
	})
	return total, err
}
