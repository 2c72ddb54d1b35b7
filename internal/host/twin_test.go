package host_test

import (
	"math/rand"
	"slices"
	"testing"

	"dumbnet/internal/host"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// TestRouteOverHigherPortTwinSurvivesPatch caches routes from a host on
// leaf 4 to one on leaf 3 of a leaf-spine whose spine 1 and leaf 3 are
// joined twice (1:1–3:3 and 1:5–3:5), one of them over the higher-port
// twin, then applies a topology patch that touches neither cable: the
// re-validation keeps that route as it was.
func TestRouteOverHigherPortTwinSurvivesPatch(t *testing.T) {
	tp, err := topo.LeafSpine(2, 2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Connect(1, 5, 3, 5); err != nil {
		t.Fatal(err)
	}
	hosts := tp.Hosts() // two on leaf 3, then two on leaf 4
	src, dst := hosts[2], hosts[0]
	cfg := host.DefaultConfig()
	cfg.DisableHostFlood = true
	eng := sim.NewEngine(1)
	a := host.New(eng, src.Host, cfg)
	a.SetBootstrap(src, packet.MACFromUint64(99), packet.Path{src.Port})
	wire, _, err := topo.WritePathGraph(tp, src.Host, dst.Host, topo.PathGraphOptions{}, rand.New(rand.NewSource(1)), topo.NewDenseScratch())
	if err != nil {
		t.Fatal(err)
	}
	injectControl(t, eng, a, packet.MsgPathResponse, &packet.Blob{Seq: 1, Body: wire})
	overTwin := func() packet.Path {
		if e := a.Table().Lookup(dst.Host); e != nil {
			for _, cp := range e.Paths {
				if slices.Contains(cp.Hops, topo.PortRef{Switch: 1, Port: 5}) {
					return cp.Tags
				}
			}
		}
		return nil
	}
	before := overTwin()
	if before == nil {
		t.Fatal("no cached route leaves spine 1 by the higher-port twin")
	}
	injectControl(t, eng, a, packet.MsgTopoPatch, &packet.Blob{Body: (&topo.Patch{Version: 1}).Marshal()})
	if after := overTwin(); !slices.Equal(after, before) {
		t.Fatalf("route over the twin %v became %v across the patch", before, after)
	}
}
