// Command dumbnet-locreport prints the repository's line-of-code breakdown
// by module — the Table 1 analogue for this reproduction — and the non-test
// internal/ total the ROADMAP tracks.
//
//	dumbnet-locreport [-root path]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"dumbnet/internal/experiments"
	"dumbnet/internal/metrics"
)

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	// Every package under internal/ gets a row, so a new one cannot be
	// missed; then the trees beside it.
	pkgs, err := os.ReadDir(filepath.Join(*root, "internal"))
	if err != nil {
		log.Fatal(err)
	}
	var dirs []string
	for _, p := range pkgs {
		if p.IsDir() {
			dirs = append(dirs, "internal/"+p.Name())
		}
	}
	dirs = append(dirs, "cmd", "examples", "bench")

	tbl := metrics.NewTable("Code breakdown (Go lines)", "module", "code", "tests")
	internalCode, totalCode, totalTests := 0, 0, 0
	for _, d := range dirs {
		c, t, err := experiments.GoLines(filepath.Join(*root, d))
		if err != nil {
			log.Fatal(err)
		}
		if filepath.Dir(d) == "internal" {
			internalCode += c
		}
		totalCode += c
		totalTests += t
		tbl.AddRow(d, c, t)
	}
	tbl.AddRow("TOTAL", totalCode, totalTests)
	fmt.Println(tbl.String())
	fmt.Printf("non-test Go lines under internal/: %d\n\n", internalCode)

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
	fmt.Println(paper.String())
}
