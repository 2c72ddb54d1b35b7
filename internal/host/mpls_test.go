package host_test

import (
	"testing"

	"dumbnet/internal/core"
	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
)

// Full-system test of the MPLS deployment mode (§5.3): hosts encode label
// stacks, switches pop labels, and the whole control plane (path queries,
// patches, failover) runs unchanged on top.

func deployMPLS(t *testing.T) *core.Network {
	t.Helper()
	tp, err := topo.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Host.UseMPLS = true
	return deploy(t, tp, cfg)
}

func TestMPLSEndToEnd(t *testing.T) {
	n := deployMPLS(t)
	hosts := n.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	got := collectData(n.Agent(dst))
	if err := n.Agent(src).SendData(dst, []byte("over mpls")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if len(*got) != 1 || (*got)[0] != "over mpls" {
		t.Fatalf("delivered = %v", *got)
	}
	if n.Agent(src).Stats().PathQueries == 0 {
		t.Fatal("controller query did not happen over MPLS")
	}
}

func TestMPLSFailover(t *testing.T) {
	n := deployMPLS(t)
	hosts := n.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	got := collectData(n.Agent(dst))
	_ = n.Agent(src).SendData(dst, []byte("warm"))
	n.Run()
	srcAt, _ := n.Topo.HostAt(src)
	if err := n.Fab.FailLink(1, srcAt.Switch); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if err := n.Agent(src).SendData(dst, []byte("post-failure")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if len(*got) != 2 {
		t.Fatalf("delivered %d of 2: %v", len(*got), *got)
	}
}

func TestMPLSAndNativeHostsInterop(t *testing.T) {
	// A sender in MPLS mode and a receiver in native mode still talk: the
	// receiving NIC accepts both encodings.
	tp, _ := topo.Testbed()
	n := deploy(t, tp, core.DefaultConfig()) // all native
	// Flip one sender to MPLS by rebuilding its config... the encoding is
	// per-agent config, so emulate by sending a hand-built MPLS frame.
	src, dst := n.Hosts()[0], n.Hosts()[1]
	tags, err := n.Topo.HostPath(src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := collectData(n.Agent(dst))
	f := &packet.Frame{Dst: dst, Src: src, Tags: tags, InnerType: packet.EtherTypeIPv4, Payload: []byte("mixed")}
	buf, _ := f.EncodeMPLS()
	n.Fab.HostLink(src).SendFrom(n.Agent(src), buf)
	n.Run()
	if len(*got) != 1 || (*got)[0] != "mixed" {
		t.Fatalf("delivered = %v", *got)
	}
}
