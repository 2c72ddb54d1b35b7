package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dumbnet/internal/packet"
	"dumbnet/internal/trace"
)

// TestModes writes a small recorder dump — one failed link with its full
// recovery story, a hop and a drop — and runs the summarizer on it in each
// mode. Every mode must exit 0 and print something; the default and
// -recovery modes must find the one complete timeline.
func TestModes(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("needs the go command to build the summarizer")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dumbnet-trace")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	h1, h2 := packet.MACFromUint64(1), packet.MACFromUint64(2)
	recs := []trace.Record{
		{At: 1000, Kind: trace.KindScenario, Op: uint8(trace.ScenarioFailLink), Sw: 3, Sw2: 5},
		{At: 2000, Kind: trace.KindRecovery, Op: uint8(trace.RecoveryDetect), Sw: 3, Port: 2},
		{At: 3000, Kind: trace.KindRecovery, Op: uint8(trace.RecoveryNotify), Sw: 3, Port: 2, Src: h1},
		{At: 3500, Kind: trace.KindRecovery, Op: uint8(trace.RecoveryReroute), Sw: 3, Port: 2, Src: h1, Dst: h2},
		{At: 4000, Dur: 500, Kind: trace.KindHop, Sw: 4, Port: 7, Src: h1, Dst: h2},
		{At: 4200, Kind: trace.KindDrop, Op: uint8(trace.DropImpairLoss), Src: h1, Dst: h2},
		{At: 5000, Kind: trace.KindRecovery, Op: uint8(trace.RecoveryFirstPacket), Sw: 3, Port: 2, Src: h1, Dst: h2},
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, recs); err != nil {
		t.Fatal(err)
	}
	dump := filepath.Join(dir, "dump.json")
	if err := os.WriteFile(dump, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		flag, want string
	}{
		{"", "recovery timelines: 1/1 complete"},
		{"-recovery", "recovery timelines: 1/1 complete"},
		{"-full", ""},
		{"-top", "records replayed"},
	} {
		args := []string{dump}
		if tc.flag != "" {
			args = []string{tc.flag, dump}
		}
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("dumbnet-trace %s: %v", tc.flag, err)
		}
		if len(out) == 0 || !strings.Contains(string(out), tc.want) {
			t.Errorf("dumbnet-trace %s: output lacks %q:\n%s", tc.flag, tc.want, out)
		}
	}
}
