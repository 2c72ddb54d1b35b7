package federation

import (
	"sync/atomic"

	"dumbnet/internal/telemetry"
)

// RegionalHub rolls the member fabrics' flag counters up into one
// federation-wide count and adds the plane the members cannot see: WAN-link
// health. Each member's full telemetry view stays on its own hub
// (core.Network.Telemetry). Per-link flags are raised on failure (via
// Link.Watch) or by the operator/telemetry pipeline (FlagWAN) and steer
// gateway selection toward alternates; every health transition bumps a
// generation counter that the Regional resolver folds into its
// cache-freshness vector, so a flagged or downed WAN link invalidates every
// cached inter-fabric route at once.
//
// Link watch callbacks fire on whichever shard engine performs the flip —
// a failure on the near shard, a restore on the far one — so all mutable
// state here is atomic. The roll-up methods (Flagged, Raised, Cleared)
// follow the telemetry.Hub contract: driver goroutine only, simulation
// parked.
type RegionalHub struct {
	members []*telemetry.Hub // per-fabric hubs; nil when a member runs without telemetry

	flags        []atomic.Bool // by WAN link ID
	gen          atomic.Uint64
	wanRaised    atomic.Uint64
	wanCleared   atomic.Uint64
	gatewaysDown atomic.Int64
}

// NewRegionalHub returns a hub tracking nWAN WAN links.
func NewRegionalHub(nWAN int) *RegionalHub {
	return &RegionalHub{flags: make([]atomic.Bool, nWAN)}
}

// AddMember registers one member fabric's telemetry hub (nil is allowed:
// the member then contributes nothing to the rolled-up counters).
func (h *RegionalHub) AddMember(hub *telemetry.Hub) {
	h.members = append(h.members, hub)
}

// WatchWAN subscribes the hub to a WAN link's up/down transitions: a
// failure raises the link's flag, a restore clears it.
func (h *RegionalHub) WatchWAN(w *WANLink) {
	id := w.ID
	w.Link.Watch(func(up bool) {
		if up {
			h.ClearWAN(id)
		} else {
			h.FlagWAN(id)
		}
	})
}

// FlagWAN raises a WAN link's health flag (idempotent). Gateway selection
// steers inter-fabric flows off flagged links while an alternate exists.
func (h *RegionalHub) FlagWAN(id int) {
	if !h.flags[id].Swap(true) {
		h.wanRaised.Add(1)
		h.gen.Add(1)
	}
}

// ClearWAN clears a WAN link's health flag (idempotent).
func (h *RegionalHub) ClearWAN(id int) {
	if h.flags[id].Swap(false) {
		h.wanCleared.Add(1)
		h.gen.Add(1)
	}
}

// WANFlagged reports one WAN link's flag. Safe from any shard.
func (h *RegionalHub) WANFlagged(id int) bool {
	if id < 0 || id >= len(h.flags) {
		return false
	}
	return h.flags[id].Load()
}

// WANFlaggedCount counts currently flagged WAN links.
func (h *RegionalHub) WANFlaggedCount() int {
	n := 0
	for i := range h.flags {
		if h.flags[i].Load() {
			n++
		}
	}
	return n
}

// Gen returns the federation health generation: it advances on every WAN
// flag transition and gateway crash/restart, and invalidates the Regional
// resolver's cached routes.
func (h *RegionalHub) Gen() uint64 { return h.gen.Load() }

// noteGatewayDown records a gateway crash (+1) or restart (-1) and bumps
// the health generation.
func (h *RegionalHub) noteGatewayDown(delta int64) {
	h.gatewaysDown.Add(delta)
	h.gen.Add(1)
}

// GatewaysDown counts currently crashed gateways.
func (h *RegionalHub) GatewaysDown() int { return int(h.gatewaysDown.Load()) }

// The rolled-up federation scoreboard. Each method sums the member hubs and
// adds the WAN plane.

// Flagged counts flagged subjects across every member plus flagged WAN
// links.
func (h *RegionalHub) Flagged() int {
	n := h.WANFlaggedCount()
	for _, m := range h.members {
		if m != nil {
			n += m.Flagged()
		}
	}
	return n
}

// Raised totals flag raises (member subjects + WAN links).
func (h *RegionalHub) Raised() uint64 {
	n := h.wanRaised.Load()
	for _, m := range h.members {
		if m != nil {
			n += m.Raised()
		}
	}
	return n
}

// Cleared totals flag clears (member subjects + WAN links).
func (h *RegionalHub) Cleared() uint64 {
	n := h.wanCleared.Load()
	for _, m := range h.members {
		if m != nil {
			n += m.Cleared()
		}
	}
	return n
}
