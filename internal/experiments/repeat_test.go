package experiments

import (
	"strings"
	"testing"
)

// TestQuickOutputRepeats runs every experiment whose output is a function
// of its seeds twice at -quick size in this one process and requires the
// two outputs to be byte-equal. Go randomises the order of every range over
// a map, so a map order that reaches a printed line (a send order, a tie
// broken by iteration) shows as a difference between the two runs.
func TestQuickOutputRepeats(t *testing.T) {
	machine := map[string]string{
		"table1": "counts the repository's lines",
		"table2": "times real work",
		"fig9":   "times real work",
	}
	ran := 0
	for _, e := range Registry("../..") {
		if machine[e.Name] != "" {
			continue
		}
		ran++
		t.Run(e.Name, func(t *testing.T) {
			var out [2]string
			for i := range out {
				res, err := e.Run(true)
				if err != nil {
					t.Fatal(err)
				}
				out[i] = res.String()
			}
			if out[0] != out[1] {
				a, b := strings.Split(out[0], "\n"), strings.Split(out[1], "\n")
				for i := range min(len(a), len(b)) {
					if a[i] != b[i] {
						t.Fatalf("line %d differs between two runs:\n  %s\n  %s", i+1, a[i], b[i])
					}
				}
				t.Fatalf("the two runs print %d and %d lines", len(a), len(b))
			}
		})
	}
	if want := 18; ran != want {
		t.Errorf("ran %d experiments, want %d", ran, want)
	}
}
