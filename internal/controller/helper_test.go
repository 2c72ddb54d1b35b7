package controller_test

import (
	"fmt"
	"testing"

	"dumbnet/internal/core"
	"dumbnet/internal/host"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// newBareAgent creates a host agent with no uplink — sufficient for
// controllers driven through an OracleTransport or pure replication tests.
func newBareAgent(eng *sim.Engine, mac packet.MAC) *host.Agent {
	return host.New(eng, mac, host.DefaultConfig())
}

// undiscovered deploys tp with no controller view and no bootstrapped
// hosts, its controller's discovery scanning maxPorts ports per switch,
// for tests that bring the network up by discovery.
func undiscovered(t *testing.T, tp *topo.Topology, maxPorts int) *core.Network {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Controller.Discovery.MaxPorts = maxPorts
	n, err := core.New(tp, core.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// sameTopologyStructure reports whether two topologies have identical
// switch sets, link sets and host attachments, ignoring per-switch port
// counts (discovery caps every switch at MaxPorts, so counts differ from
// generator values).
func sameTopologyStructure(a, b *topo.Topology) error {
	aIDs, bIDs := a.SwitchIDs(), b.SwitchIDs()
	if len(aIDs) != len(bIDs) {
		return fmt.Errorf("switch count %d vs %d", len(aIDs), len(bIDs))
	}
	for i := range aIDs {
		if aIDs[i] != bIDs[i] {
			return fmt.Errorf("switch sets differ at %d: %d vs %d", i, aIDs[i], bIDs[i])
		}
	}
	for _, id := range aIDs {
		an := a.Neighbors(id)
		bn := b.Neighbors(id)
		if len(an) != len(bn) {
			return fmt.Errorf("switch %d degree %d vs %d", id, len(an), len(bn))
		}
		for i := range an {
			if an[i] != bn[i] {
				return fmt.Errorf("switch %d link %d: %+v vs %+v", id, i, an[i], bn[i])
			}
		}
	}
	ah, bh := a.Hosts(), b.Hosts()
	if len(ah) != len(bh) {
		return fmt.Errorf("host count %d vs %d", len(ah), len(bh))
	}
	for i := range ah {
		if ah[i] != bh[i] {
			return fmt.Errorf("host %d: %+v vs %+v", i, ah[i], bh[i])
		}
	}
	return nil
}
