package host

import (
	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
)

// Stage-1 failure handling on the host (paper §4.2): when a link event
// arrives — either the switch's hop-limited hardware broadcast or another
// host's flood — the agent deduplicates it, patches its TopoCache, fails
// over affected PathTable entries, and floods the event on to every host it
// knows, peer-to-peer style. No controller involvement.

// maxSeenEvents caps the link-event dedup set; the oldest entry is evicted
// first.
const maxSeenEvents = 4096

// handleHostFlood processes a host-flooded copy of a link event.
func (a *Agent) handleHostFlood(blob *packet.Blob) {
	t, msg, err := packet.DecodeControl(blob.Body)
	if err != nil || t != packet.MsgLinkEvent {
		a.stats.BadFrames++
		return
	}
	a.handleLinkEvent(msg.(*packet.LinkEvent))
}

// handleLinkEvent applies a link event, the switch's broadcast or a host's
// flooded copy, once, and floods it on.
func (a *Agent) handleLinkEvent(ev *packet.LinkEvent) {
	key := eventKey{PortRef: topo.PortRef{Switch: ev.Switch, Port: ev.Port}, seq: ev.Seq, up: ev.Up}
	if a.seenEvents[key] {
		a.stats.EventsDup++
		return
	}
	a.seenEvents[key] = true
	a.stats.EventsSeen++
	a.eventOrder = append(a.eventOrder, key)
	for len(a.seenEvents) > maxSeenEvents {
		delete(a.seenEvents, a.eventOrder[a.eventHead])
		a.eventHead++
		a.stats.EventsEvicted++
	}
	// Compact the FIFO slice once the dead prefix dominates, keeping its
	// footprint proportional to the live dedup set.
	if a.eventHead > 64 && a.eventHead > len(a.eventOrder)/2 {
		a.eventOrder = append(a.eventOrder[:0], a.eventOrder[a.eventHead:]...)
		a.eventHead = 0
	}

	a.eng.Tracer().Recovery(int64(a.eng.Now()), trace.RecoveryNotify, ev.Switch, ev.Port, ev.Up, a.mac, packet.MAC{})

	if !ev.Up {
		// Patch the cache and fail over the PathTable immediately; an
		// alternative path is likely already cached (§4.3).
		a.cache.RemoveEdgeByPort(ev.Switch, ev.Port)
		dead, rerouted := a.table.DropLink(ev.Switch, ev.Port)
		for _, dst := range dead {
			// Try detours from the cache; otherwise re-query lazily on
			// the next send.
			if p := a.table.peer(dst); a.fillFromCache(p) {
				a.stats.FailoverHits++
				p.entry.Rerouted = true
				rerouted++
			}
		}
		if rerouted > 0 {
			// One record per host per event, regardless of how many
			// destinations moved: per-destination records would surface the
			// PathTable's map iteration order and break trace determinism.
			a.eng.Tracer().Recovery(int64(a.eng.Now()), trace.RecoveryReroute, ev.Switch, ev.Port, ev.Up, a.mac, packet.MAC{})
		}
	}
	// Link-up events only matter to the controller, which re-probes and
	// patches the topology (stage 2); hosts just forward the news.

	if a.OnLinkEvent != nil {
		a.OnLinkEvent(ev)
	}
	if !a.cfg.DisableHostFlood {
		a.floodLinkEvent(ev)
	}
}

// floodLinkEvent forwards the event to every host in the TopoCache (the
// peer-to-peer flood of §4.2). Receivers deduplicate, so the flood
// terminates after one round.
func (a *Agent) floodLinkEvent(ev *packet.LinkEvent) {
	inner, err := packet.EncodeControl(packet.MsgLinkEvent, ev)
	if err != nil {
		return
	}
	body, err := packet.EncodeControl(packet.MsgHostFlood, &packet.Blob{Seq: a.nextSeq(), Body: inner})
	if err != nil {
		return
	}
	for _, at := range a.cache.Hosts() {
		if at.Host == a.mac {
			continue
		}
		tags, _, ok := a.route(a.table.peer(at.Host), FlowKey{Dst: at.Host})
		if !ok {
			continue
		}
		a.stats.FloodsSent++
		_ = a.SendFrame(at.Host, tags, packet.EtherTypeControl, body)
	}
	// Always tell the controller directly if we know it and it is not
	// already among the cached hosts.
	if !a.ctrl.IsZero() {
		if _, err := a.cache.HostAt(a.ctrl); err != nil {
			a.stats.FloodsSent++
			_ = a.SendFrame(a.ctrl, a.ctrlPath, packet.EtherTypeControl, body)
		}
	}
}

// handleTopoPatch applies a stage-2 controller patch.
func (a *Agent) handleTopoPatch(blob *packet.Blob) {
	p, err := topo.UnmarshalPatch(blob.Body)
	if err != nil {
		a.stats.BadFrames++
		return
	}
	if p.Version != 0 && p.Version <= a.patchVersion {
		return // stale
	}
	if p.Version != 0 {
		a.patchVersion = p.Version
	}
	// Interpret hello ops addressed to us.
	for _, op := range p.Ops {
		if op.Kind == topo.OpHello && op.Attach.Host == a.mac {
			a.attach = op.Attach
			a.ctrl = op.Ctrl
			a.ctrlPath = op.CtrlPath.Clone()
			a.cache.AddHost(op.Attach)
		}
	}
	p.Apply(a.cache)
	a.stats.PatchesAppled++
	// Cached multicast trees may cross links this patch removed; drop them
	// all and let senders re-fetch against the patched view.
	clear(a.mcastTrees)
	// Re-validate cached routes: recompute entries whose paths vanished
	// from the cache (a patch may remove links not seen via stage 1).
	for _, p := range a.table.peers {
		e := p.entry
		if e == nil {
			continue
		}
		valid := e.Paths[:0]
		for _, cp := range e.Paths {
			if a.routeStillValid(cp) {
				valid = append(valid, cp)
			}
		}
		e.Paths = valid
		if len(e.Paths) == 0 {
			a.fillFromCache(p)
		}
	}
	if a.OnPatch != nil {
		a.OnPatch(p)
	}
}

// routeStillValid reports whether each hop's port still holds a cable to
// the next hop's switch.
func (a *Agent) routeStillValid(cp CachedPath) bool {
	for i := 0; i+1 < len(cp.Hops); i++ {
		far, ok := a.cache.CableAt(cp.Hops[i].Switch, cp.Hops[i].Port)
		if !ok || far.Switch != cp.Hops[i+1].Switch {
			return false
		}
	}
	return true // also an application-installed route without hop refs
}
