package fabric_test

import (
	"errors"
	"testing"

	"dumbnet/internal/fabric"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

type sink struct{ frames int }

func (s *sink) Receive(port int, frame []byte) { s.frames++ }

func buildTestbedFabric(t *testing.T) (*sim.Engine, *fabric.Fabric, *topo.Topology) {
	t.Helper()
	tp, err := topo.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	fb, err := fabric.Build(eng, tp, fabric.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng, fb, tp
}

func TestBuildCreatesAllSwitchesAndLinks(t *testing.T) {
	_, fb, tp := buildTestbedFabric(t)
	for _, id := range tp.SwitchIDs() {
		sw := fb.Switch(id)
		if sw == nil {
			t.Fatalf("switch %d missing", id)
		}
		ports, _ := tp.PortCount(id)
		if sw.Ports() != ports {
			t.Fatalf("switch %d ports %d want %d", id, sw.Ports(), ports)
		}
	}
	if got := len(fb.Links()); got != tp.NumLinks() {
		t.Fatalf("links = %d, want %d", got, tp.NumLinks())
	}
}

func TestLinkBetweenSymmetric(t *testing.T) {
	_, fb, tp := buildTestbedFabric(t)
	for _, id := range tp.SwitchIDs() {
		for _, nb := range tp.Neighbors(id) {
			l1, err := fb.LinkBetween(id, nb.Sw)
			if err != nil {
				t.Fatalf("LinkBetween(%d,%d): %v", id, nb.Sw, err)
			}
			l2, err := fb.LinkBetween(nb.Sw, id)
			if err != nil || l1 != l2 {
				t.Fatalf("asymmetric link lookup %d<->%d", id, nb.Sw)
			}
		}
	}
	if _, err := fb.LinkBetween(3, 4); !errors.Is(err, topo.ErrNoLink) {
		t.Fatalf("non-adjacent lookup: %v", err)
	}
}

func TestFailAndRestoreLink(t *testing.T) {
	eng, fb, _ := buildTestbedFabric(t)
	if err := fb.FailLink(1, 3); err != nil {
		t.Fatal(err)
	}
	l, _ := fb.LinkBetween(1, 3)
	if l.Up() {
		t.Fatal("link still up")
	}
	if err := fb.RestoreLink(1, 3); err != nil {
		t.Fatal(err)
	}
	if !l.Up() {
		t.Fatal("link still down")
	}
	if err := fb.FailLink(3, 4); !errors.Is(err, topo.ErrNoLink) {
		t.Fatalf("fail non-adjacent: %v", err)
	}
	eng.Run()
}

// TestLostInFlightCounted cuts a switch link while a frame is on the wire:
// the loss shows in DropCounters, its Total and the fabric's registry.
func TestLostInFlightCounted(t *testing.T) {
	eng, fb, _ := buildTestbedFabric(t)
	l, _ := fb.LinkBetween(1, 3)
	l.SendFrom(fb.Switch(1), make([]byte, 100))
	eng.After(100*sim.Nanosecond, func() { _ = fb.FailLink(1, 3) })
	eng.Run()
	if d := fb.Drops(); d.LinkLostInFlight != 1 || d.Total() != 1 {
		t.Fatalf("drops %+v (total %d), want one frame lost in flight", d, d.Total())
	}
	e, ok := eng.Metrics().Snapshot(int64(eng.Now())).Get("fabric/drops/link-lost-in-flight")
	if !ok || e.Value != 1 {
		t.Fatalf("registry fabric/drops/link-lost-in-flight = %v (registered %v), want 1", e.Value, ok)
	}
}

func TestAttachHostWiresUplink(t *testing.T) {
	eng, fb, tp := buildTestbedFabric(t)
	h := &sink{}
	mac := tp.Hosts()[0].Host
	l, err := fb.AttachHost(mac, h)
	if err != nil {
		t.Fatal(err)
	}
	if fb.HostLink(mac) != l {
		t.Fatal("HostLink mismatch")
	}
	// A frame sent toward the host's port reaches it.
	at, _ := tp.HostAt(mac)
	f := &packet.Frame{Dst: mac, Src: packet.MACFromUint64(99),
		Tags: packet.Path{at.Port}, InnerType: packet.EtherTypeIPv4}
	// Inject via the far side of an adjacent switch link... simplest: send
	// from the host up and bounce through its own switch port.
	probe := &packet.Frame{Dst: mac, Src: mac, Tags: packet.Path{at.Port}, InnerType: packet.EtherTypeIPv4}
	buf, _ := probe.Encode()
	l.SendFrom(h, buf)
	eng.Run()
	if h.frames != 1 {
		t.Fatalf("host received %d frames", h.frames)
	}
	_ = f
}

func TestAttachUnknownHostFails(t *testing.T) {
	_, fb, _ := buildTestbedFabric(t)
	if _, err := fb.AttachHost(packet.MACFromUint64(0xDEAD), &sink{}); err == nil {
		t.Fatal("unknown host attached")
	}
}

// TestParallelLinksWiredByCable: the two ports of each cable share one
// link, also where parallel cables pair the lower-ID end's lowest port with
// the far end's highest; LinkBetween names the cable on the lower-ID end's
// lowest port from either side.
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
	fb, err := fabric.Build(sim.NewEngine(1), tp, fabric.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cables {
		if la, lb := fb.Switch(1).LinkAt(int(c[0])), fb.Switch(2).LinkAt(int(c[1])); la == nil || la != lb {
			t.Fatalf("cable 1:%d-2:%d: links %p and %p", c[0], c[1], la, lb)
		}
	}
	if l, err := fb.LinkBetween(2, 1); err != nil || l != fb.Switch(1).LinkAt(1) {
		t.Fatalf("LinkBetween(2, 1) = %p, %v; want the link on switch 1 port 1", l, err)
	}
	if n := len(fb.Links()); n != len(cables) {
		t.Fatalf("%d links, want %d", n, len(cables))
	}
}

// TestHostLinkIsPortLink: a host's uplink is the link on its attachment
// switch's port, nil before AttachHost and for a MAC the topology lacks;
// after a run with loss on every cable, Drops equals the sum over the
// switch links, those uplinks and the switches.
func TestHostLinkIsPortLink(t *testing.T) {
	ft, err := topo.FatTree(4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := topo.LeafSpine(2, 4, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, tp := range map[string]*topo.Topology{"fat-tree": ft, "leaf-spine": ls} {
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			fb, err := fabric.Build(eng, tp, fabric.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			hosts := tp.Hosts()
			sinks := make([]*sink, len(hosts))
			for i, at := range hosts {
				if fb.HostLink(at.Host) != nil {
					t.Fatalf("host %v has an uplink before AttachHost", at.Host)
				}
				sinks[i] = &sink{}
				l, err := fb.AttachHost(at.Host, sinks[i])
				if err != nil {
					t.Fatal(err)
				}
				if got := fb.HostLink(at.Host); got != l || got != fb.Switch(at.Switch).LinkAt(int(at.Port)) {
					t.Fatalf("host %v: HostLink %p, AttachHost %p, port link %p", at.Host, got, l, fb.Switch(at.Switch).LinkAt(int(at.Port)))
				}
			}
			if fb.HostLink(packet.MACFromUint64(0xDEAD)) != nil {
				t.Fatal("a MAC the topology lacks has an uplink")
			}

			lossy := sim.Impairment{LossProb: 0.2}
			fb.ImpairAllLinks(lossy)
			for _, at := range hosts {
				fb.HostLink(at.Host).Impair(lossy)
			}
			for i, src := range hosts {
				dst := hosts[(i+len(hosts)/2)%len(hosts)]
				tags, err := tp.HostPath(src.Host, dst.Host, nil)
				if err != nil {
					t.Fatal(err)
				}
				for range 20 {
					f := &packet.Frame{Dst: dst.Host, Src: src.Host, Tags: tags, InnerType: packet.EtherTypeIPv4}
					buf, err := f.Encode()
					if err != nil {
						t.Fatal(err)
					}
					fb.HostLink(src.Host).SendFrom(sinks[i], buf)
				}
			}
			eng.Run()

			var want fabric.DropCounters
			add := func(l *sim.Link) {
				for _, s := range []sim.LinkStats{l.StatsFrom(true), l.StatsFrom(false)} {
					want.LinkQueue += s.Drops
					want.LinkDownTx += s.DownTx
					want.LinkLostInFlight += s.LostInFlight
					want.ImpairLost += s.ImpairLost
					want.ImpairCorrupt += s.ImpairCorrupt
				}
			}
			for _, c := range tp.Links() {
				add(fb.Switch(c.A).LinkAt(int(c.PA)))
			}
			var uplinkLost uint64
			for _, at := range hosts {
				l := fb.Switch(at.Switch).LinkAt(int(at.Port))
				add(l)
				uplinkLost += l.StatsFrom(true).ImpairLost + l.StatsFrom(false).ImpairLost
			}
			for _, id := range tp.SwitchIDs() {
				s := fb.Switch(id).Stats()
				want.SwNoPort += s.DropNoPort
				want.SwLinkDown += s.DropLinkDown
				want.SwBadFrame += s.DropBadFrame
				want.SwEndOfPath += s.DropEndOfPath
				want.SwSwitchDown += s.DropSwitchDown
			}
			if got := fb.Drops(); got != want {
				t.Fatalf("Drops() = %+v, sum over the links and switches %+v", got, want)
			}
			if uplinkLost == 0 || want.ImpairLost == uplinkLost {
				t.Fatalf("uplinks lost %d of %d impairment drops: the run must lose frames on both kinds of link", uplinkLost, want.ImpairLost)
			}
		})
	}
}
