package topo

import (
	"bytes"
	"errors"
	"testing"

	"dumbnet/internal/packet"
)

func TestAddSwitchValidation(t *testing.T) {
	tp := New()
	if err := tp.AddSwitch(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSwitch(1, 4); !errors.Is(err, ErrDupSwitch) {
		t.Fatalf("dup: %v", err)
	}
	if err := tp.AddSwitch(2, 0); !errors.Is(err, ErrPortCount) {
		t.Fatalf("zero ports: %v", err)
	}
	if err := tp.AddSwitch(2, 300); !errors.Is(err, ErrPortCount) {
		t.Fatalf("too many ports: %v", err)
	}
	if tp.NumSwitches() != 1 {
		t.Fatalf("NumSwitches = %d", tp.NumSwitches())
	}
}

func TestConnectAndNeighbors(t *testing.T) {
	tp := New()
	for i := 1; i <= 3; i++ {
		if err := tp.AddSwitch(SwitchID(i), 4); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.Connect(1, 1, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := tp.Connect(1, 2, 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := tp.Connect(1, 1, 3, 2); !errors.Is(err, ErrPortWired) {
		t.Fatalf("rewire: %v", err)
	}
	if err := tp.Connect(9, 1, 1, 3); !errors.Is(err, ErrNoSwitch) {
		t.Fatalf("missing switch: %v", err)
	}
	if err := tp.Connect(1, 9, 2, 3); !errors.Is(err, ErrBadPort) {
		t.Fatalf("bad port: %v", err)
	}
	if err := tp.Connect(1, 3, 1, 3); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("self loop: %v", err)
	}

	nbs := tp.Neighbors(1)
	if len(nbs) != 2 || nbs[0] != (Neighbor{Sw: 2, Port: 1}) || nbs[1] != (Neighbor{Sw: 3, Port: 2}) {
		t.Fatalf("neighbors = %+v", nbs)
	}
	if tp.NumLinks() != 2 {
		t.Fatalf("NumLinks = %d", tp.NumLinks())
	}
	p, err := tp.PortToward(2, 1)
	if err != nil || p != 2 {
		t.Fatalf("PortToward = %d, %v", p, err)
	}
	if _, err := tp.PortToward(2, 3); !errors.Is(err, ErrNoLink) {
		t.Fatalf("non-adjacent: %v", err)
	}
}

func TestAttachDetachHost(t *testing.T) {
	tp := New()
	if err := tp.AddSwitch(1, 4); err != nil {
		t.Fatal(err)
	}
	h := packet.MACFromUint64(42)
	if err := tp.AttachHost(h, 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := tp.AttachHost(h, 1, 4); !errors.Is(err, ErrDupHost) {
		t.Fatalf("dup host: %v", err)
	}
	at, err := tp.HostAt(h)
	if err != nil || at.Switch != 1 || at.Port != 3 {
		t.Fatalf("HostAt = %+v, %v", at, err)
	}
	ep, err := tp.EndpointAt(1, 3)
	if err != nil || ep.Kind != EndpointHost || ep.Host != h {
		t.Fatalf("EndpointAt = %+v, %v", ep, err)
	}
	if err := tp.DetachHost(h); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.HostAt(h); !errors.Is(err, ErrNoHost) {
		t.Fatalf("after detach: %v", err)
	}
	ep, _ = tp.EndpointAt(1, 3)
	if ep.Kind != EndpointNone {
		t.Fatalf("port not freed: %+v", ep)
	}
}

func TestDisconnectAndRemoveSwitch(t *testing.T) {
	tp := New()
	for i := 1; i <= 3; i++ {
		_ = tp.AddSwitch(SwitchID(i), 4)
	}
	_ = tp.Connect(1, 1, 2, 1)
	_ = tp.Connect(2, 2, 3, 1)
	h := packet.MACFromUint64(1)
	_ = tp.AttachHost(h, 2, 3)

	if err := tp.Disconnect(1, 1); err != nil {
		t.Fatal(err)
	}
	if tp.NumLinks() != 1 {
		t.Fatalf("NumLinks = %d", tp.NumLinks())
	}
	// Far side must be unwired too.
	ep, _ := tp.EndpointAt(2, 1)
	if ep.Kind != EndpointNone {
		t.Fatalf("far side still wired: %+v", ep)
	}
	if err := tp.Disconnect(1, 1); !errors.Is(err, ErrNoLink) {
		t.Fatalf("double disconnect: %v", err)
	}

	if err := tp.RemoveSwitch(2); err != nil {
		t.Fatal(err)
	}
	if tp.HasSwitch(2) || tp.NumLinks() != 0 || tp.NumHosts() != 0 {
		t.Fatalf("remove switch left state: links=%d hosts=%d", tp.NumLinks(), tp.NumHosts())
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneEqualValidate(t *testing.T) {
	tp, err := Testbed()
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	c := tp.Clone()
	if !tp.Equal(c) || !c.Equal(tp) {
		t.Fatal("clone not equal")
	}
	// Mutate the clone; originals must diverge.
	if err := c.Disconnect(1, 1); err != nil {
		t.Fatal(err)
	}
	if tp.Equal(c) {
		t.Fatal("mutated clone still equal")
	}
	if err := tp.Validate(); err != nil {
		t.Fatalf("original corrupted: %v", err)
	}
}

func TestConnected(t *testing.T) {
	tp, _ := Line(4, 4)
	if !tp.Connected() {
		t.Fatal("line should be connected")
	}
	// Cut the middle.
	if err := tp.Disconnect(2, 2); err != nil {
		t.Fatal(err)
	}
	if tp.Connected() {
		t.Fatal("cut line should be disconnected")
	}
	if New().Connected() != true {
		t.Fatal("empty topology is trivially connected")
	}
}

func TestHostsSorted(t *testing.T) {
	tp, _ := Line(2, 4)
	hosts := tp.Hosts()
	if len(hosts) != 2 {
		t.Fatalf("hosts = %d", len(hosts))
	}
	if bytes.Compare(hosts[0].Host[:], hosts[1].Host[:]) >= 0 {
		t.Fatal("hosts not sorted")
	}
}

func TestSwitchIDsSorted(t *testing.T) {
	tp := New()
	for _, id := range []SwitchID{5, 1, 3} {
		_ = tp.AddSwitch(id, 2)
	}
	ids := tp.SwitchIDs()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 3 || ids[2] != 5 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestPortCount(t *testing.T) {
	tp := New()
	_ = tp.AddSwitch(7, 48)
	n, err := tp.PortCount(7)
	if err != nil || n != 48 {
		t.Fatalf("PortCount = %d, %v", n, err)
	}
	if _, err := tp.PortCount(8); !errors.Is(err, ErrNoSwitch) {
		t.Fatalf("missing: %v", err)
	}
}
