package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// emuBin is the emulator binary TestMain builds once for every test here.
var emuBin string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		gobin, err := exec.LookPath("go")
		if err != nil {
			fmt.Println("skipping: needs the go command to build the emulator")
			return 0
		}
		dir, err := os.MkdirTemp("", "dumbnet-emu-test")
		if err != nil {
			fmt.Println(err)
			return 1
		}
		defer os.RemoveAll(dir)
		emuBin = filepath.Join(dir, "dumbnet-emu")
		if out, err := exec.Command(gobin, "build", "-o", emuBin, ".").CombinedOutput(); err != nil {
			fmt.Printf("build: %v\n%s", err, out)
			return 1
		}
		return m.Run()
	}())
}

// TestGoldenOutput runs the emulator on fixed flag sets and compares its
// stdout byte for byte with testdata/<name>.golden. Every run is seeded, so
// a difference is a behaviour change: a route, a rate, an event order.
// After an intended change, regenerate a golden with
//
//	go run ./cmd/dumbnet-emu <args> > cmd/dumbnet-emu/testdata/<name>.golden
func TestGoldenOutput(t *testing.T) {
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
		// The same WAN battery with -telemetry as a member option: member
		// telemetry starts once both fabrics have booted, and the regional
		// hub rolls it up with the WAN plane.
		{"federate-telemetry", "-topo fattree -k 4 -federate 2 -pings 1 -chaos -chaos-events 8 -telemetry"},
		// A chaos run with online telemetry, ending in the hub's final
		// view and the metrics table.
		{"telemetry-chaos", "-topo leafspine -k 4 -n 2 -pings 1 -discover=false -telemetry -chaos -chaos-events 8"},
		// Discovery on the paper's testbed, a link failure with failover,
		// and the per-switch counters and engine queue stats.
		{"fail-stats", "-topo testbed -pings 1 -fail -stats"},
		// Multicast groups probed through a chaos run.
		{"mcast-chaos", "-topo leafspine -k 4 -n 2 -pings 0 -discover=false -chaos -mcast -chaos-events 8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.Command(emuBin, strings.Fields(tc.args)...).Output()
			if err != nil {
				t.Fatalf("dumbnet-emu %s: %v", tc.args, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("dumbnet-emu %s differs from its golden\n--- got\n%s--- want\n%s", tc.args, got, want)
			}
		})
	}
}

// TestBadFlagsRefused checks that a flag value the layers below would
// silently replace with a default, or a flag a federated run would silently
// drop, stops the emulator with a non-zero exit and a message naming the
// flag.
func TestBadFlagsRefused(t *testing.T) {
	for _, tc := range []struct {
		args string
		flag string
	}{
		{"-topo fattree -k 4 -federate 2 -pings 0 -wan-delay 0", "-wan-delay"},
		{"-topo fattree -k 4 -federate 2 -pings 0 -wan-delay -1ms", "-wan-delay"},
		{"-topo leafspine -k 4 -n 2 -pings 0 -discover=false -chaos -chaos-events -3", "-chaos-events"},
		{"-topo leafspine -k 4 -n 2 -pings 0 -discover=false -chaos -chaos-events 0", "-chaos-events"},
		{"-topo fattree -k 4 -federate 1 -pings 0", "-federate"},
		{"-topo fattree -k 4 -federate -2 -pings 0", "-federate"},
		{"-topo fattree -k 4 -federate 2 -pings 0 -gateways 0", "-gateways"},
		{"-topo fattree -k 4 -federate 2 -pings 0 -tenants 2", "-tenants"},
		{"-topo fattree -k 4 -federate 2 -pings 0 -shards 2", "-shards"},
		{"-topo fattree -k 4 -federate 2 -pings 0 -fail", "-fail"},
		{"-topo fattree -k 4 -federate 2 -pings 0 -chaos -loss 0.05", "-loss"},
		{"-topo fattree -k 4 -federate 2 -pings 0 -trace out.json", "-trace"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(emuBin, strings.Fields(tc.args)...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("dumbnet-emu %s: err = %v, want a non-zero exit", tc.args, err)
			}
			if msg := stderr.String(); !strings.Contains(msg, tc.flag+" ") {
				t.Fatalf("dumbnet-emu %s: stderr %q does not name %s", tc.args, msg, tc.flag)
			}
		})
	}
}
