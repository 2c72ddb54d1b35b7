package federation

import (
	"sync/atomic"

	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
)

// WANLink is one metro/WAN interconnect: a high-latency sim.Link whose two
// ends live on different member fabrics' shard engines (it is the
// cross-shard link that sets the group's lookahead). Each end terminates at
// a wanEnd node glued to that fabric's border gateway.
type WANLink struct {
	// ID orders links deterministically; gateway selection iterates by ID.
	ID int
	// A and B are the member fabric indices the link connects (A < B).
	A, B int
	// GwA and GwB are the border gateways terminating each end.
	GwA, GwB *Gateway
	// Link is the underlying simulated cable.
	Link *sim.Link

	endA, endB *wanEnd
}

// Peer returns the fabric index on the far side of fab (-1 when fab is not
// an endpoint).
func (w *WANLink) Peer(fab int) int {
	switch fab {
	case w.A:
		return w.B
	case w.B:
		return w.A
	}
	return -1
}

// gatewayFor returns the gateway terminating the link inside fab.
func (w *WANLink) gatewayFor(fab int) *Gateway {
	if fab == w.A {
		return w.GwA
	}
	return w.GwB
}

// farGateway returns the gateway on the opposite side of fab.
func (w *WANLink) farGateway(fab int) *Gateway {
	if fab == w.A {
		return w.GwB
	}
	return w.GwA
}

// sendFrom transmits a raw envelope from g's side of the link. The buffer
// is owned by the link after the call.
func (w *WANLink) sendFrom(g *Gateway, buf []byte) {
	if g == w.GwA {
		w.Link.SendFrom(w.endA, buf)
		return
	}
	w.Link.SendFrom(w.endB, buf)
}

// wanEnd is the sim.Node terminating one side of one WAN link. It is a
// dedicated node rather than the gateway's host agent: agents decode
// DumbNet frame formats, while the WAN wire carries raw envelopes. Receive
// runs on the owning fabric's shard engine.
type wanEnd struct {
	gw *Gateway
}

// Receive owns the WAN buffer: unless the gateway sent it on toward another
// fabric, it goes back to the frame pool once the envelope is consumed.
func (e *wanEnd) Receive(port int, frame []byte) {
	if !e.gw.fromWAN(frame) {
		packet.PutBuffer(frame)
	}
}

// GatewayStats counts a gateway's envelope dispositions.
type GatewayStats struct {
	// Relayed counts envelopes accepted from local hosts and put on a WAN
	// link; Delivered counts envelopes handed to local destination hosts;
	// Transited counts envelopes forwarded fabric-to-fabric through this
	// gateway.
	Relayed, Delivered, Transited uint64
	// Failovers counts selections that skipped the first-choice WAN link
	// because it was down, flagged, or ended at a crashed gateway.
	Failovers uint64
	// DropDown counts envelopes eaten while the gateway was crashed;
	// DropNoPath counts envelopes with no usable WAN link; DropBad counts
	// malformed or TTL-exhausted envelopes.
	DropDown, DropNoPath, DropBad uint64
}

// Gateway is one fabric's border: an existing fabric host designated to
// relay federation envelopes between its fabric and the WAN links
// terminating at it. All datapath activity (RelayOut from local dispatch,
// fromWAN from link delivery) runs on the gateway's own shard engine;
// Crash/Restart and cross-shard health reads go through atomics.
type Gateway struct {
	fabric int
	mac    packet.MAC
	hub    *RegionalHub
	links  []*WANLink // attached WAN links in ID order

	down atomic.Bool

	// deliver injects an envelope into the local fabric toward a local
	// destination host; installed by the embedding layer (core), which owns
	// the host agents. env is valid only for the duration of the call.
	deliver func(dst packet.MAC, env []byte)

	stats GatewayStats
}

// NewGateway declares host mac of the given fabric a border gateway.
func NewGateway(fabric int, mac packet.MAC, hub *RegionalHub) *Gateway {
	return &Gateway{fabric: fabric, mac: mac, hub: hub}
}

// MAC returns the gateway's host address.
func (g *Gateway) MAC() packet.MAC { return g.mac }

// Links returns the WAN links terminating at this gateway, in ID order.
func (g *Gateway) Links() []*WANLink { return g.links }

// Stats returns the envelope disposition counters. Read while the
// simulation is parked.
func (g *Gateway) Stats() GatewayStats { return g.stats }

// SetDeliver installs the local-fabric injection hook. The envelope handed
// to fn is a WAN buffer that is recycled when fn returns.
func (g *Gateway) SetDeliver(fn func(dst packet.MAC, env []byte)) { g.deliver = fn }

// attach registers a WAN link terminating here (links arrive in ID order).
func (g *Gateway) attach(w *WANLink) { g.links = append(g.links, w) }

// Down reports whether the gateway is crashed. Safe from any shard.
func (g *Gateway) Down() bool { return g.down.Load() }

// Crash power-fails the gateway: every envelope touching it is eaten until
// Restart. Bumps the federation health generation so cached regional
// routes through this gateway go stale (never-widen).
func (g *Gateway) Crash() {
	if !g.down.Swap(true) && g.hub != nil {
		g.hub.noteGatewayDown(1)
	}
}

// Restart brings a crashed gateway back.
func (g *Gateway) Restart() {
	if g.down.Swap(false) && g.hub != nil {
		g.hub.noteGatewayDown(-1)
	}
}

// pickLink chooses the WAN link for an envelope leaving g toward dstFab:
// the first link by ID that heads the right way, is up, ends at a live
// gateway, and is not telemetry-flagged. If only flagged links remain they
// are used anyway (a flag steers, a failure forbids); choosing anything
// but the first-choice candidate counts as a failover. With no direct link
// to dstFab, any live link leaving the fabric is used (transit; the TTL
// bounds wandering).
func (g *Gateway) pickLink(dstFab int) *WANLink {
	var flagged, transit *WANLink
	skipped := false
	for _, w := range g.links {
		peer := w.Peer(g.fabric)
		if !w.Link.Up() || w.farGateway(g.fabric).Down() {
			skipped = true
			continue
		}
		if peer != dstFab {
			if transit == nil {
				transit = w
			}
			continue
		}
		if g.hub != nil && g.hub.WANFlagged(w.ID) {
			skipped = true
			if flagged == nil {
				flagged = w
			}
			continue
		}
		if skipped {
			g.stats.Failovers++
		}
		return w
	}
	if flagged != nil {
		g.stats.Failovers++
		return flagged
	}
	if transit != nil {
		if skipped {
			g.stats.Failovers++
		}
		return transit
	}
	return nil
}

// RelayOut accepts an envelope from a local host (core's kindFedRelay
// dispatch) and puts it on a WAN link in a pooled buffer of its own; env,
// a slice of the host's receive buffer, is not retained. Runs on the
// gateway's shard engine.
func (g *Gateway) RelayOut(env []byte) {
	if g.Down() {
		g.stats.DropDown++
		return
	}
	e, ok := DecodeEnvelope(env)
	if !ok {
		g.stats.DropBad++
		return
	}
	w := g.pickLink(e.DstFabric)
	if w == nil {
		g.stats.DropNoPath++
		return
	}
	g.stats.Relayed++
	buf := packet.GetBuffer(len(env))
	copy(buf, env)
	w.sendFrom(g, buf)
}

// fromWAN handles an envelope arriving off a WAN link: deliver locally
// when this is the destination fabric, otherwise forward toward it. Runs
// on the gateway's shard engine. It reports whether the frame buffer was
// passed on to the next WAN link; otherwise the caller still owns it.
func (g *Gateway) fromWAN(frame []byte) (forwarded bool) {
	if g.Down() {
		g.stats.DropDown++
		return false
	}
	e, ok := DecodeEnvelope(frame)
	if !ok {
		g.stats.DropBad++
		return false
	}
	if e.DstFabric == g.fabric {
		if g.deliver != nil {
			g.stats.Delivered++
			g.deliver(e.Dst, frame)
		}
		return false
	}
	if !decTTL(frame) {
		g.stats.DropBad++
		return false
	}
	w := g.pickLink(e.DstFabric)
	if w == nil {
		g.stats.DropNoPath++
		return false
	}
	g.stats.Transited++
	w.sendFrom(g, frame)
	return true
}

// NewWANLink wires a WAN link between two gateways on their respective
// shard engines. Call while the group is idle (cross-shard links cannot be
// registered mid-window); cfg.PropDelay must be positive, and the smallest
// WAN delay becomes the group's lookahead.
func NewWANLink(id int, ga, gb *Gateway, engA, engB *sim.Engine, cfg sim.LinkConfig) *WANLink {
	w := &WANLink{ID: id, A: ga.fabric, B: gb.fabric, GwA: ga, GwB: gb}
	w.endA = &wanEnd{gw: ga}
	w.endB = &wanEnd{gw: gb}
	w.Link = sim.NewLinkBetween(engA, w.endA, 0, engB, w.endB, 0, cfg)
	ga.attach(w)
	gb.attach(w)
	return w
}
