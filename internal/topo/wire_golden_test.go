package topo

import (
	"encoding/binary"
	"encoding/hex"
	"testing"

	"dumbnet/internal/packet"
)

// The wire bytes of a topology, a path graph and a patch carrying every op
// kind, recorded from the encoders. They must not change: controllers
// replicate these payloads, and hosts parse them from MsgPathResponse and
// MsgTopoPatch bodies.
const (
	goldenTopologyHex  = "d0b10100000002000000010004000201010000000201020202000000001100000002000400030101000000010102020200000000220302020000000023"
	goldenPathGraphHex = "d0b301020000000011020000000022000200000001000000020003000000010000000300000002d0b201000000030000000100020000000201000000030300000002000200000001010000000303000000030002000000010100000002020000000202000000001100000001020200000000220000000202"
	goldenPatchHex     = "d0b4010000000000000007000301000000030602000000010200000004050402000000000100000005010200000000020003040209"
)

// goldenTopology is two 4-port switches joined port 1 to port 1, a host on
// port 2 of each and a third on port 3 of switch 2.
func goldenTopology(t testing.TB) *Topology {
	t.Helper()
	tp := New()
	for _, err := range []error{
		tp.AddSwitch(2, 4),
		tp.AddSwitch(1, 4),
		tp.Connect(1, 1, 2, 1),
		tp.AttachHost(packet.MACFromUint64(0x22), 2, 2),
		tp.AttachHost(packet.MACFromUint64(0x11), 1, 2),
		tp.AttachHost(packet.MACFromUint64(0x23), 2, 3),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return tp
}

func goldenPathGraph() *PathGraph {
	g := NewSubgraph()
	g.AddEdge(1, 1, 2, 1)
	g.AddEdge(1, 3, 3, 1)
	g.AddEdge(3, 2, 2, 3)
	g.AddHost(HostAttach{Host: packet.MACFromUint64(0x22), Switch: 2, Port: 2})
	g.AddHost(HostAttach{Host: packet.MACFromUint64(0x11), Switch: 1, Port: 2})
	return &PathGraph{
		Src:     packet.MACFromUint64(0x11),
		Dst:     packet.MACFromUint64(0x22),
		Primary: SwitchPath{1, 2},
		Backup:  SwitchPath{1, 3, 2},
		Graph:   g,
	}
}

func TestTopoWireGolden(t *testing.T) {
	tp := goldenTopology(t)
	if got := hex.EncodeToString(tp.Marshal()); got != goldenTopologyHex {
		t.Errorf("topology bytes:\n got %s\nwant %s", got, goldenTopologyHex)
	}
	if got, err := UnmarshalTopology(tp.Marshal()); err != nil || !got.Equal(tp) {
		t.Errorf("topology decode: %v", err)
	}

	pg := goldenPathGraph()
	if got := hex.EncodeToString(pg.Marshal()); got != goldenPathGraphHex {
		t.Errorf("path graph bytes:\n got %s\nwant %s", got, goldenPathGraphHex)
	}
	if got, err := UnmarshalPathGraph(pg.Marshal()); err != nil || string(got.Marshal()) != string(pg.Marshal()) {
		t.Errorf("path graph decode: %v", err)
	}

	p := samplePatch()
	if got := hex.EncodeToString(p.Marshal()); got != goldenPatchHex {
		t.Errorf("patch bytes:\n got %s\nwant %s", got, goldenPatchHex)
	}
	if got, err := UnmarshalPatch(p.Marshal()); err != nil || string(got.Marshal()) != string(p.Marshal()) {
		t.Errorf("patch decode: %v", err)
	}
}

// A patch writes a hello's controller path at full length, unlike a control
// message, so an over-long one reaches the decoder, which refuses it.
func TestPatchWireKeepsLongCtrlPath(t *testing.T) {
	long := make(packet.Path, packet.MaxPathLen+1)
	p := &Patch{Ops: []PatchOp{{Kind: OpHello, CtrlPath: long}}}
	b := p.Marshal()
	// magic(2) version(1) epoch(8) count(2) kind(1) host(6) switch(4) port(1) ctrl(6)
	if n := binary.BigEndian.Uint16(b[31:]); int(n) != len(long) {
		t.Fatalf("hello path length on the wire = %d, want %d", n, len(long))
	}
	if _, err := UnmarshalPatch(b); err != ErrBadTopology {
		t.Fatalf("over-long hello path: err = %v, want ErrBadTopology", err)
	}
}
