package router_test

import (
	"bytes"
	"errors"
	"testing"

	"dumbnet/internal/core"
	"dumbnet/internal/host"
	"dumbnet/internal/packet"
	"dumbnet/internal/router"
	"dumbnet/internal/topo"
)

func TestPrefixContains(t *testing.T) {
	p := router.Prefix{Addr: 0x0A000000, Bits: 8} // 10.0.0.0/8
	if !p.Contains(0x0A010203) {
		t.Fatal("10.1.2.3 should match 10/8")
	}
	if p.Contains(0x0B000001) {
		t.Fatal("11.0.0.1 should not match 10/8")
	}
	if !(router.Prefix{Bits: 0}).Contains(0xFFFFFFFF) {
		t.Fatal("default route matches everything")
	}
}

func TestIPHeaderCodec(t *testing.T) {
	buf := router.EncodeIP(0x0A000001, 0x0B000002, []byte("body"))
	src, dst, body, err := router.DecodeIP(buf)
	if err != nil || src != 0x0A000001 || dst != 0x0B000002 || !bytes.Equal(body, []byte("body")) {
		t.Fatalf("round trip: %x %x %q %v", src, dst, body, err)
	}
	if _, _, _, err := router.DecodeIP([]byte{1, 2}); !errors.Is(err, router.ErrShortPacket) {
		t.Fatalf("short: %v", err)
	}
}

// deployRouted builds a testbed where host[0] of each "subnet" group talks
// through a router host.
func deployRouted(t *testing.T) (*core.Network, *router.Router, map[router.IP]packet.MAC, map[router.IP]packet.MAC) {
	t.Helper()
	tp, err := topo.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.New(tp)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	hosts := n.Hosts()
	// Subnet A: 10.0.0.x = hosts[0..2]; subnet B: 11.0.0.x = hosts[10..12];
	// router: hosts[20].
	subA := map[router.IP]packet.MAC{}
	subB := map[router.IP]packet.MAC{}
	for i := 0; i < 3; i++ {
		subA[router.IP(0x0A000001+i)] = hosts[i]
		subB[router.IP(0x0B000001+i)] = hosts[10+i]
	}
	r := router.New(n.Agent(hosts[20]))
	r.AddSubnet(router.Prefix{Addr: 0x0A000000, Bits: 8}, subA)
	r.AddSubnet(router.Prefix{Addr: 0x0B000000, Bits: 8}, subB)
	return n, r, subA, subB
}

func TestRouterForwardsAcrossSubnets(t *testing.T) {
	n, r, subA, subB := deployRouted(t)
	srcMAC := subA[0x0A000001]
	dstMAC := subB[0x0B000001]
	var got []byte
	var gotFrom packet.MAC
	n.Agent(dstMAC).OnData = func(from packet.MAC, it uint16, payload []byte) {
		_, _, body, err := router.DecodeIP(payload)
		if err == nil {
			got, gotFrom = append([]byte(nil), body...), from
		}
	}
	// Host in subnet A sends an IP packet to 11.0.0.1 via the gateway.
	pkt := router.EncodeIP(0x0A000001, 0x0B000001, []byte("cross-subnet"))
	if err := n.Agent(srcMAC).Send(r.MAC(), packet.EtherTypeIPv4, pkt, host.FlowKey{Dst: r.MAC()}); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if string(got) != "cross-subnet" {
		t.Fatalf("delivered = %q", got)
	}
	if gotFrom != r.MAC() {
		t.Fatalf("delivered from %v, want router %v", gotFrom, r.MAC())
	}
	if r.Stats().Forwarded != 1 {
		t.Fatalf("stats = %+v", r.Stats())
	}
}

func TestRouterDropsUnroutable(t *testing.T) {
	n, r, subA, _ := deployRouted(t)
	srcMAC := subA[0x0A000001]
	// 12.0.0.1 matches no subnet.
	pkt := router.EncodeIP(0x0A000001, 0x0C000001, nil)
	_ = n.Agent(srcMAC).Send(r.MAC(), packet.EtherTypeIPv4, pkt, host.FlowKey{Dst: r.MAC()})
	n.Run()
	if r.Stats().NoRoute != 1 {
		t.Fatalf("stats = %+v", r.Stats())
	}
	// Known prefix, unknown host.
	pkt = router.EncodeIP(0x0A000001, 0x0B0000FF, nil)
	_ = n.Agent(srcMAC).Send(r.MAC(), packet.EtherTypeIPv4, pkt, host.FlowKey{Dst: r.MAC()})
	n.Run()
	if r.Stats().NoARP != 1 {
		t.Fatalf("stats = %+v", r.Stats())
	}
}

func TestLongestPrefixWins(t *testing.T) {
	_, r, _, subB := deployRouted(t)
	// Add a more specific /24 overriding part of 11/8.
	special := packet.MACFromUint64(0xBEEF)
	r.AddSubnet(router.Prefix{Addr: 0x0B000100, Bits: 24}, map[router.IP]packet.MAC{0x0B000101: special})
	mac, err := r.Lookup(0x0B000101)
	if err != nil || mac != special {
		t.Fatalf("lookup = %v, %v", mac, err)
	}
	// The /8 still serves everything else.
	mac, err = r.Lookup(0x0B000001)
	if err != nil || mac != subB[0x0B000001] {
		t.Fatalf("fallback lookup = %v, %v", mac, err)
	}
}

func TestShortcutBypassesRouter(t *testing.T) {
	n, r, subA, subB := deployRouted(t)
	srcMAC := subA[0x0A000001]
	dstIP := router.IP(0x0B000002)
	// §6.3: ask the router once, then source-route directly.
	dstMAC, err := r.Shortcut(dstIP)
	if err != nil {
		t.Fatal(err)
	}
	if dstMAC != subB[dstIP] {
		t.Fatalf("shortcut MAC = %v", dstMAC)
	}
	var got []byte
	n.Agent(dstMAC).OnData = func(from packet.MAC, it uint16, payload []byte) {
		_, _, body, _ := router.DecodeIP(payload)
		got = append([]byte(nil), body...)
	}
	fwdBefore := r.Stats().Forwarded
	pkt := router.EncodeIP(0x0A000001, uint32AsIP(dstIP), []byte("direct"))
	if err := n.Agent(srcMAC).Send(dstMAC, packet.EtherTypeIPv4, pkt, host.FlowKey{Dst: dstMAC}); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if string(got) != "direct" {
		t.Fatalf("delivered = %q", got)
	}
	if r.Stats().Forwarded != fwdBefore {
		t.Fatal("shortcut traffic still crossed the router")
	}
	if r.Stats().Shortcuts != 1 {
		t.Fatalf("stats = %+v", r.Stats())
	}
}

func uint32AsIP(ip router.IP) router.IP { return ip }
