package examples_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesRun builds every example program and runs each once: it must
// exit 0 and print something.
func TestExamplesRun(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("needs the go command to build the examples")
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("no example directories")
	}
	bin := t.TempDir()
	if out, err := exec.Command(gobin, "build", "-o", bin, "./...").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(bin, name)).Output()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(out) == 0 {
				t.Fatalf("%s printed nothing", name)
			}
		})
	}
}
