package topo

import (
	"testing"
	"testing/quick"

	"dumbnet/internal/packet"
)

func samplePatch() *Patch {
	return &Patch{
		Version: 7,
		Ops: []PatchOp{
			{Kind: OpLinkDown, Switch: 3, Port: 6},
			{Kind: OpLinkUp, A: 1, PA: 2, B: 4, PB: 5},
			{Kind: OpHello,
				Attach:   HostAttach{Host: packet.MACFromUint64(1), Switch: 5, Port: 1},
				Ctrl:     packet.MACFromUint64(2),
				CtrlPath: packet.Path{4, 2, 9},
			},
		},
	}
}

func TestPatchRoundTrip(t *testing.T) {
	in := samplePatch()
	out, err := UnmarshalPatch(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.Version != in.Version || len(out.Ops) != len(in.Ops) {
		t.Fatalf("shape mismatch: %+v", out)
	}
	for i := range in.Ops {
		a, b := in.Ops[i], out.Ops[i]
		if a.Kind != b.Kind || a.Switch != b.Switch || a.Port != b.Port ||
			a.A != b.A || a.B != b.B || a.PA != b.PA || a.PB != b.PB ||
			a.Attach != b.Attach || a.Ctrl != b.Ctrl {
			t.Fatalf("op %d mismatch: %+v vs %+v", i, a, b)
		}
		if string(a.CtrlPath) != string(b.CtrlPath) {
			t.Fatalf("op %d ctrl path mismatch", i)
		}
	}
}

func TestPatchUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalPatch(nil); err == nil {
		t.Fatal("nil accepted")
	}
	b := samplePatch().Marshal()
	if _, err := UnmarshalPatch(b[:len(b)-1]); err == nil {
		t.Fatal("truncated accepted")
	}
	if _, err := UnmarshalPatch(append(b, 0)); err == nil {
		t.Fatal("trailing accepted")
	}
	bad := samplePatch()
	bad.Ops[0].Kind = PatchOpKind(99)
	if _, err := UnmarshalPatch(bad.Marshal()); err == nil {
		t.Fatal("unknown op kind accepted")
	}
	// Kinds 3 (a host attachment) and 5 (a switch removal) are retired: a
	// patch holding either, in the layout it once had, is refused too.
	for _, c := range []struct {
		kind PatchOpKind
		body []byte
	}{
		{3, []byte{0, 0, 0, 0, 0, 9, 0, 0, 0, 2, 3}}, // host MAC, switch, port
		{5, []byte{0, 0, 0, 8, 0}},                   // switch, port
	} {
		old := (&Patch{Version: 1}).Marshal()
		old[len(old)-1] = 1 // one op
		old = append(append(old, byte(c.kind)), c.body...)
		if _, err := UnmarshalPatch(old); err == nil {
			t.Errorf("op kind %d accepted", c.kind)
		}
	}
}

func TestPatchApply(t *testing.T) {
	s := NewSubgraph()
	s.AddEdge(3, 6, 4, 1)
	s.AddEdge(3, 7, 5, 1)
	p := &Patch{Ops: []PatchOp{
		{Kind: OpLinkDown, Switch: 3, Port: 6},
		{Kind: OpLinkUp, A: 10, PA: 1, B: 11, PB: 1},
		{Kind: OpHello}, // must be a no-op for the cache
	}}
	p.Apply(s)
	if _, err := s.PortToward(3, 4); err == nil {
		t.Fatal("link-down op not applied")
	}
	if _, err := s.PortToward(10, 11); err != nil {
		t.Fatal("link-up op not applied")
	}
	if _, err := s.PortToward(3, 5); err != nil {
		t.Fatal("a link the patch did not name was removed")
	}
}

// Property: link-down/link-up op pairs round-trip through serialization
// regardless of field values.
func TestPatchOpProperty(t *testing.T) {
	f := func(version uint64, sw uint32, port uint8, a, b uint32, pa, pb uint8) bool {
		in := &Patch{
			Version: version,
			Ops: []PatchOp{
				{Kind: OpLinkDown, Switch: SwitchID(sw), Port: Port(port)},
				{Kind: OpLinkUp, A: SwitchID(a), PA: Port(pa), B: SwitchID(b), PB: Port(pb)},
			},
		}
		out, err := UnmarshalPatch(in.Marshal())
		if err != nil {
			return false
		}
		return out.Version == version &&
			out.Ops[0].Switch == SwitchID(sw) && out.Ops[0].Port == Port(port) &&
			out.Ops[1].A == SwitchID(a) && out.Ops[1].PB == Port(pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
