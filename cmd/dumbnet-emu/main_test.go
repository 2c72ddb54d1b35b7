package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenOutput runs the emulator on fixed flag sets and compares its
// stdout byte for byte with testdata/<name>.golden. Every run is seeded, so
// a difference is a behaviour change: a route, a rate, an event order.
// After an intended change, regenerate a golden with
//
//	go run ./cmd/dumbnet-emu <args> > cmd/dumbnet-emu/testdata/<name>.golden
func TestGoldenOutput(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("needs the go command to build the emulator")
	}
	bin := filepath.Join(t.TempDir(), "dumbnet-emu")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name string
		args string
	}{
		// A real multicast broadcast, then the flow-level collective suite
		// through workload.RunJob.
		{"collective", "-topo testbed -pings 1 -collective"},
		// A bulk-transfer wave through the hybrid fluid layer.
		{"hybrid", "-topo fattree -k 4 -pings 1 -hybrid"},
		// A chaos run that crashes the primary controller, with two
		// replicas attached through EnableReplicationAt.
		{"ctrl-crash", "-topo leafspine -k 4 -n 2 -pings 0 -discover=false -chaos -ctrl-crash -chaos-events 8"},
		// Tenants carved at boot, then a chaos run with tenant churn.
		{"tenants-churn", "-topo fattree -k 4 -pings 1 -tenants 3 -churn -chaos -chaos-events 8"},
		// Two federated fat-trees, then the WAN battery: link cuts and
		// gateway crashes, printed as event text.
		{"federate-chaos", "-topo fattree -k 4 -federate 2 -pings 1 -chaos -chaos-events 8"},
		// A chaos run with online telemetry, ending in the hub's final
		// view and the metrics table.
		{"telemetry-chaos", "-topo leafspine -k 4 -n 2 -pings 1 -discover=false -telemetry -chaos -chaos-events 8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.Command(bin, strings.Fields(tc.args)...).Output()
			if err != nil {
				t.Fatalf("dumbnet-emu %s: %v", tc.args, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("dumbnet-emu %s differs from its golden\n--- got\n%s--- want\n%s", tc.args, got, want)
			}
		})
	}
}
