package stp

import (
	"testing"

	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// sink collects frames delivered to a host NIC.
type sink struct {
	link   *sim.Link
	frames [][]byte
}

func (s *sink) Receive(port int, frame []byte) { s.frames = append(s.frames, frame) }

func rawFrame(dst, src packet.MAC, payload string) []byte {
	buf := make([]byte, 14+len(payload))
	copy(buf[0:6], dst[:])
	copy(buf[6:12], src[:])
	buf[12], buf[13] = 0x08, 0x00
	copy(buf[14:], payload)
	return buf
}

// dataFrames counts non-BPDU frames.
func dataFrames(frames [][]byte) int {
	n := 0
	for _, f := range frames {
		if len(f) >= 14 && (uint16(f[12])<<8|uint16(f[13])) != EtherTypeBPDU {
			n++
		}
	}
	return n
}

// buildLoop deploys a triangle of switches (1-2, 2-3, 1-3): the smallest
// topology where STP must block a port to prevent broadcast storms.
func buildLoop(t *testing.T) (*sim.Engine, *EthernetFabric, *sink, *sink, packet.MAC, packet.MAC) {
	t.Helper()
	tp := topo.New()
	for i := 1; i <= 3; i++ {
		if err := tp.AddSwitch(packet.SwitchID(i), 4); err != nil {
			t.Fatal(err)
		}
	}
	_ = tp.Connect(1, 1, 2, 1)
	_ = tp.Connect(2, 2, 3, 1)
	_ = tp.Connect(1, 2, 3, 2)
	m1, m2 := packet.MACFromUint64(1), packet.MACFromUint64(2)
	_ = tp.AttachHost(m1, 1, 3)
	_ = tp.AttachHost(m2, 3, 3)
	eng := sim.NewEngine(1)
	f, err := BuildEthernet(eng, tp, sim.LinkConfig{PropDelay: sim.Microsecond}, sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	h1, h2 := &sink{}, &sink{}
	if h1.link, err = f.AttachHost(m1, h1, sim.LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if h2.link, err = f.AttachHost(m2, h2, sim.LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	return eng, f, h1, h2, m1, m2
}

func TestConvergenceOnLoop(t *testing.T) {
	eng, f, _, _, _, _ := buildLoop(t)
	eng.RunFor(sim.Second)
	if !f.Domain.Converged() {
		t.Fatal("no root agreement after 1s")
	}
	// Root must be the lowest bridge ID.
	for id, b := range f.Domain.Bridges {
		if b.RootID() != 1 {
			t.Fatalf("bridge %d thinks root is %d", id, b.RootID())
		}
	}
	if !f.Domain.Bridges[1].IsRoot() {
		t.Fatal("bridge 1 should be root")
	}
	// Exactly one switch port in the triangle must be blocked.
	blocked := 0
	for _, b := range f.Domain.Bridges {
		for port := 1; port <= 2; port++ { // inter-switch ports
			if b.Role(port) == RoleBlocked {
				blocked++
			}
		}
	}
	if blocked != 1 {
		t.Fatalf("blocked ports = %d, want 1", blocked)
	}
}

func TestBroadcastDoesNotStorm(t *testing.T) {
	eng, _, h1, h2, m1, _ := buildLoop(t)
	eng.RunFor(sim.Second) // converge
	h1.link.SendFrom(h1, rawFrame(packet.BroadcastMAC, m1, "storm?"))
	eng.RunFor(sim.Second)
	if got := dataFrames(h2.frames); got != 1 {
		t.Fatalf("h2 received %d copies of the broadcast, want 1", got)
	}
	if got := dataFrames(h1.frames); got != 0 {
		t.Fatalf("broadcast echoed to sender %d times", got)
	}
}

func TestUnicastAfterConvergence(t *testing.T) {
	eng, _, h1, h2, m1, m2 := buildLoop(t)
	eng.RunFor(sim.Second)
	h1.link.SendFrom(h1, rawFrame(m2, m1, "ping"))
	eng.RunFor(100 * sim.Millisecond)
	if dataFrames(h2.frames) != 1 {
		t.Fatal("unicast not delivered")
	}
	// Reply is unicast-forwarded thanks to learning.
	h2.link.SendFrom(h2, rawFrame(m1, m2, "pong"))
	eng.RunFor(100 * sim.Millisecond)
	if dataFrames(h1.frames) != 1 {
		t.Fatal("reply not delivered")
	}
}

func TestReconvergenceAfterFailure(t *testing.T) {
	eng, f, h1, h2, m1, m2 := buildLoop(t)
	eng.RunFor(sim.Second)
	// Establish traffic, then cut the direct 1-3 link (on the tree, since
	// root is 1: 1-2 and 1-3 forward, 2-3 blocked at one end).
	h1.link.SendFrom(h1, rawFrame(m2, m1, "before"))
	eng.RunFor(100 * sim.Millisecond)
	if dataFrames(h2.frames) != 1 {
		t.Fatal("pre-failure traffic failed")
	}
	if err := f.FailLink(1, 3); err != nil {
		t.Fatal(err)
	}
	// Give the protocol time to reconverge (several hello rounds).
	eng.RunFor(2 * sim.Second)
	if !f.Domain.Converged() {
		t.Fatal("no reconvergence after failure")
	}
	h1.link.SendFrom(h1, rawFrame(m2, m1, "after"))
	eng.RunFor(200 * sim.Millisecond)
	if dataFrames(h2.frames) != 2 {
		t.Fatalf("post-failure traffic failed: %d", dataFrames(h2.frames))
	}
}

func TestReconvergenceTimeBounded(t *testing.T) {
	// Recovery should take on the order of maxAge + a few hellos, far less
	// than a second with RSTP-scale timers.
	eng, f, h1, h2, m1, m2 := buildLoop(t)
	eng.RunFor(sim.Second)
	h1.link.SendFrom(h1, rawFrame(m2, m1, "prime"))
	eng.RunFor(100 * sim.Millisecond)
	if err := f.FailLink(1, 3); err != nil {
		t.Fatal(err)
	}
	failAt := eng.Now()
	var recovered sim.Time = -1
	for elapsed := 50 * sim.Millisecond; elapsed <= 2*sim.Second; elapsed += 50 * sim.Millisecond {
		eng.RunUntil(failAt + elapsed)
		before := dataFrames(h2.frames)
		h1.link.SendFrom(h1, rawFrame(m2, m1, "probe"))
		eng.RunFor(20 * sim.Millisecond)
		if dataFrames(h2.frames) > before {
			recovered = eng.Now() - failAt
			break
		}
	}
	if recovered < 0 {
		t.Fatal("never recovered")
	}
	if recovered > sim.Second {
		t.Fatalf("recovery took %v, want < 1s", recovered.Duration())
	}
}

func TestLeafSpineSTPBlocksRedundantPaths(t *testing.T) {
	tp, _ := topo.LeafSpine(2, 3, 1, 8)
	eng := sim.NewEngine(1)
	f, err := BuildEthernet(eng, tp, sim.LinkConfig{PropDelay: sim.Microsecond}, sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(2 * sim.Second)
	if !f.Domain.Converged() {
		t.Fatal("leaf-spine did not converge")
	}
	// A leaf-spine with 2 spines and 3 leaves has 6 links but a spanning
	// tree uses only 4: exactly 2 switch-side port pairs must be blocked.
	blocked := 0
	for _, b := range f.Domain.Bridges {
		for port := 1; port <= 8; port++ {
			if b.sw.LinkAt(port) != nil && b.Role(port) == RoleBlocked {
				blocked++
			}
		}
	}
	if blocked != 2 {
		t.Fatalf("blocked = %d switch ports, want 2", blocked)
	}
}

func TestBPDUCodec(t *testing.T) {
	in := bpdu{Root: 1, Cost: 7, Bridge: 9, Port: 3}
	out, ok := decodeBPDU(encodeBPDU(in))
	if !ok || out != in {
		t.Fatalf("round trip: %+v %v", out, ok)
	}
	if _, ok := decodeBPDU([]byte{1, 2, 3}); ok {
		t.Fatal("short frame decoded")
	}
	if _, ok := decodeBPDU(rawFrame(packet.MACFromUint64(1), packet.MACFromUint64(2), "data-frame-payload")); ok {
		t.Fatal("data frame decoded as BPDU")
	}
}

func TestBPDUBetterOrdering(t *testing.T) {
	base := bpdu{Root: 5, Cost: 5, Bridge: 5, Port: 5}
	cases := []struct {
		v      bpdu
		better bool
	}{
		{bpdu{Root: 4, Cost: 9, Bridge: 9, Port: 9}, true},
		{bpdu{Root: 5, Cost: 4, Bridge: 9, Port: 9}, true},
		{bpdu{Root: 5, Cost: 5, Bridge: 4, Port: 9}, true},
		{bpdu{Root: 5, Cost: 5, Bridge: 5, Port: 4}, true},
		{bpdu{Root: 6, Cost: 0, Bridge: 0, Port: 0}, false},
		{base, false},
	}
	for i, c := range cases {
		if c.v.better(base) != c.better {
			t.Fatalf("case %d: better(%+v) = %v", i, c.v, !c.better)
		}
	}
}

// TestParallelLinksWiredByCable: the two ports of each cable share one
// link, also where parallel cables pair the lower-ID end's lowest port with
// the far end's highest.
func TestParallelLinksWiredByCable(t *testing.T) {
	tp := topo.New()
	for id := topo.SwitchID(1); id <= 2; id++ {
		if err := tp.AddSwitch(id, 4); err != nil {
			t.Fatal(err)
		}
	}
	cables := [][2]topo.Port{{1, 3}, {2, 1}} // switch 1 port, switch 2 port
	for _, c := range cables {
		if err := tp.Connect(1, c[0], 2, c[1]); err != nil {
			t.Fatal(err)
		}
	}
	f, err := BuildEthernet(sim.NewEngine(1), tp, sim.LinkConfig{PropDelay: sim.Microsecond}, sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cables {
		if la, lb := f.Switches[1].LinkAt(int(c[0])), f.Switches[2].LinkAt(int(c[1])); la == nil || la != lb {
			t.Fatalf("cable 1:%d-2:%d: links %p and %p", c[0], c[1], la, lb)
		}
	}
	if l, err := f.LinkBetween(2, 1); err != nil || l != f.Switches[1].LinkAt(1) {
		t.Fatalf("LinkBetween(2, 1) = %p, %v; want the link on switch 1 port 1", l, err)
	}
}
