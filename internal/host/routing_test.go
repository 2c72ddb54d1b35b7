package host_test

import (
	"testing"

	"dumbnet/internal/host"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
)

func flowN(i int) host.FlowKey {
	return host.FlowKey{Dst: packet.MACFromUint64(uint64(i)), SrcPort: uint16(i), DstPort: 80, Proto: 6}
}

func TestStickyChooserStability(t *testing.T) {
	c := host.NewStickyChooser()
	f := flowN(1)
	first := c.Choose(0, f, 8)
	for now := sim.Time(0); now < 100; now += 10 {
		if got := c.Choose(now, f, 8); got != first {
			t.Fatalf("sticky choice moved: %d -> %d", first, got)
		}
	}
	if first < 0 || first >= 8 {
		t.Fatalf("out of range: %d", first)
	}
}

func TestStickyChooserSpreadsFlows(t *testing.T) {
	c := host.NewStickyChooser()
	used := map[int]bool{}
	for i := 0; i < 64; i++ {
		used[c.Choose(0, flowN(i), 4)] = true
	}
	if len(used) < 3 {
		t.Fatalf("64 flows landed on only %d of 4 paths", len(used))
	}
}

func TestChoosersSinglePathAlwaysZero(t *testing.T) {
	choosers := []host.Policy{
		host.NewStickyChooser(),
		host.NewFlowletChooser(sim.Millisecond),
		host.NewRoundRobinChooser(),
		host.SinglePathChooser{},
	}
	for _, c := range choosers {
		if got := c.Choose(0, flowN(1), 1); got != 0 {
			t.Fatalf("%T chose %d with one path", c, got)
		}
	}
}

func TestFlowletChooserBumpsAfterIdleGap(t *testing.T) {
	c := host.NewFlowletChooser(100 * sim.Microsecond)
	f := flowN(7)
	// Back-to-back packets: same flowlet, same path.
	p1 := c.Choose(0, f, 16)
	p2 := c.Choose(50*sim.Microsecond, f, 16)
	if p1 != p2 {
		t.Fatalf("burst split across paths: %d vs %d", p1, p2)
	}
	if c.FlowletID(f) != 0 {
		t.Fatalf("flowlet id = %d", c.FlowletID(f))
	}
	// A gap beyond the timeout starts a new flowlet.
	c.Choose(300*sim.Microsecond, f, 16)
	if c.FlowletID(f) != 1 {
		t.Fatalf("flowlet id after gap = %d", c.FlowletID(f))
	}
}

func TestFlowletChooserEventuallyUsesManyPaths(t *testing.T) {
	c := host.NewFlowletChooser(10 * sim.Microsecond)
	f := flowN(3)
	used := map[int]bool{}
	now := sim.Time(0)
	for i := 0; i < 64; i++ {
		used[c.Choose(now, f, 4)] = true
		now += 50 * sim.Microsecond // every packet starts a new flowlet
	}
	if len(used) < 3 {
		t.Fatalf("flowlets used only %d of 4 paths", len(used))
	}
}

func TestFlowletUnknownFlowID(t *testing.T) {
	c := host.NewFlowletChooser(sim.Millisecond)
	if c.FlowletID(flowN(42)) != 0 {
		t.Fatal("unknown flow should report id 0")
	}
}

func TestRoundRobinCycles(t *testing.T) {
	c := host.NewRoundRobinChooser()
	f := flowN(1)
	seen := make([]int, 0, 6)
	for i := 0; i < 6; i++ {
		seen = append(seen, c.Choose(0, f, 3))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("sequence = %v", seen)
		}
	}
}

func TestSinglePathChooser(t *testing.T) {
	c := host.SinglePathChooser{}
	for i := 0; i < 5; i++ {
		if c.Choose(sim.Time(i), flowN(i), 7) != 0 {
			t.Fatal("single path must always pick 0")
		}
	}
}
