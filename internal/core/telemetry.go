package core

import (
	"dumbnet/internal/host"
	"dumbnet/internal/packet"
	"dumbnet/internal/telemetry"
)

// Online telemetry wiring: one telemetry.Consumer per simulation engine
// (shard), each subscribed to that engine's flight recorder through a
// non-blocking tap and flushed by an in-sim periodic event; a telemetry.Hub
// merges them into the fabric view the controller republishes. Agents get
// their own shard's scoreboard (host.LinkHealth), which the "telemetry"
// routing policy consults to steer flows off flagged links — the closed
// loop.

// applyPendingTelemetry starts telemetry requested at construction
// (WithTelemetry) once the network has booted. Running last (after
// replication and tenancy) means the tenant resolver sees the carved
// slices.
func (n *Network) applyPendingTelemetry() error {
	if n.pendingTelemetry == nil {
		return nil
	}
	cfg := *n.pendingTelemetry
	n.pendingTelemetry = nil
	_, err := n.EnableTelemetry(cfg)
	return err
}

// EnableTelemetry attaches streaming trace analytics to the booted network:
// per-shard consumers over (possibly newly installed) flight recorders, the
// merged hub on the controller, and shard-local scoreboards on every agent.
// Idempotent — a second call returns the existing hub. The periodic flush
// events keep the event queue non-empty forever, so drains become
// time-bounded (as with replication heartbeats).
//
// Prefer constructing with WithTelemetry(cfg), which applies this
// automatically after Bootstrap/Discover.
func (n *Network) EnableTelemetry(cfg telemetry.Config) (*telemetry.Hub, error) {
	if !n.booted {
		return nil, ErrNotDeployed
	}
	if n.hub != nil {
		return n.hub, nil
	}
	hub := telemetry.NewHub(cfg)
	if n.vnet != nil {
		hub.SetTenantResolver(n.tenantLabel)
	}
	if n.simGroup != nil {
		for i := 0; i < n.simGroup.NumShards(); i++ {
			hub.Attach(n.simGroup.Shard(i))
		}
	} else {
		hub.Attach(n.Eng)
	}
	for _, a := range n.agents {
		if c := hub.ConsumerFor(a.Engine()); c != nil {
			a.SetLinkHealth(c.Board())
		}
	}
	for _, c := range n.controllers() {
		c.SetTelemetry(hub)
	}
	hub.Start()
	n.hub = hub
	n.perpetual = true
	return hub, nil
}

// Telemetry returns the hub (nil when telemetry is off).
func (n *Network) Telemetry() *telemetry.Hub { return n.hub }

// tenantLabel resolves the heavy-hitter sketch's tenant dimension: the
// source's tenant, falling back to the destination's (an untenanted pair
// gets the empty label).
func (n *Network) tenantLabel(src, dst packet.MAC) string {
	if n.vnet == nil {
		return ""
	}
	if id, ok := n.vnet.TenantOf(src); ok {
		return string(id)
	}
	if id, ok := n.vnet.TenantOf(dst); ok {
		return string(id)
	}
	return ""
}

// TelemetryChooserOf returns the agent's telemetry chooser when the
// "telemetry" policy is installed on mac, or nil (test/demo accessor).
func (n *Network) TelemetryChooserOf(mac MAC) *host.TelemetryChooser {
	a := n.agents[mac]
	if a == nil {
		return nil
	}
	tc, _ := a.Chooser.(*host.TelemetryChooser)
	return tc
}
