package host

import (
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
)

// Recovery hardening beyond the paper's stage-1/stage-2 story: controller
// replica failover (when the primary stops answering path queries the host
// rotates through a bootstrap-advertised replica list) and blackhole
// detection (a cached path whose sends keep vanishing with no link event is
// invalidated, its hops negatively cached, and the route re-queried).

// handleCtrlList installs the controller replica set advertised by the
// controller (MsgCtrlList). Stale advertisements (lower Seq) are ignored.
func (a *Agent) handleCtrlList(m *packet.CtrlList) {
	if m.Seq != 0 && m.Seq <= a.ctrlListSeq {
		return
	}
	a.ctrlListSeq = m.Seq
	a.ctrlList = a.ctrlList[:0]
	a.ctrlIdx = -1
	for _, r := range m.Replicas {
		if r.MAC == a.ctrl {
			a.ctrlIdx = len(a.ctrlList)
		}
		a.ctrlList = append(a.ctrlList, packet.CtrlReplica{MAC: r.MAC, Path: r.Path.Clone()})
	}
}

// CtrlReplicas returns the advertised controller replica set.
func (a *Agent) CtrlReplicas() []packet.CtrlReplica { return a.ctrlList }

// failoverController rotates to the next replica in the advertised list.
func (a *Agent) failoverController() {
	if len(a.ctrlList) == 0 {
		return
	}
	a.ctrlIdx = (a.ctrlIdx + 1) % len(a.ctrlList)
	r := a.ctrlList[a.ctrlIdx]
	a.ctrl = r.MAC
	a.ctrlPath = r.Path.Clone()
	a.stats.CtrlFailovers++
	a.eng.Tracer().Ctrl(int64(a.eng.Now()), trace.CtrlFailover, a.mac, a.ctrl, 0)
}

// Path-request retry and blackhole-detection constants.
const (
	// RequestBudget is how many attempts a path query gets per controller
	// before failing over to the next advertised replica (and, once every
	// replica's budget is spent, abandoning the query).
	RequestBudget = 6
	// requestTimeout is the base controller path-request retry interval;
	// retries back off exponentially from it (with jitter) up to
	// requestBackoffMax.
	requestTimeout    = 5 * sim.Millisecond
	requestBackoffMax = 80 * sim.Millisecond
	// blackholeThreshold consecutive sends to a destination with no
	// return traffic for blackholeWindow trigger blackhole handling
	// (invalidate the path, mark its hops suspect, re-query).
	blackholeThreshold = 8
	blackholeWindow    = 10 * sim.Millisecond
	// suspectTTL is how long blackhole-suspected hops are avoided when
	// synthesizing paths from the TopoCache.
	suspectTTL = sim.Second
)

// retryDelay computes the backoff before retry `attempt+1`: exponential from
// requestTimeout, capped at requestBackoffMax, with ±25% jitter drawn from
// the engine's seeded source. The exponent restarts per controller so a
// fresh replica gets fast retries again.
func (a *Agent) retryDelay(attempt int) sim.Time {
	d := requestTimeout
	for i := 0; i < attempt%RequestBudget; i++ {
		d *= 2
		if d >= requestBackoffMax {
			break
		}
	}
	if d > requestBackoffMax {
		d = requestBackoffMax
	}
	if j := int64(d / 4); j > 0 {
		d += sim.Time(a.eng.Rand().Int63n(2*j+1) - j)
	}
	return d
}

// noteRx records return traffic from p: the path toward it is evidently
// alive, so the blackhole counter resets and the detector (re)arms.
func (a *Agent) noteRx(p *peer) {
	p.sends = 0
	p.lastRx = a.eng.Now()
}

// noteSend counts a data send toward p and triggers blackhole handling once
// blackholeThreshold consecutive sends have gone unanswered for longer than
// blackholeWindow. Only destinations we have heard from at least once are
// eligible — one-way traffic proves nothing about the return of silence.
func (a *Agent) noteSend(p *peer, hops []topo.PortRef) {
	p.lastHops = hops
	if p.lastRx == never {
		return // not armed: never heard from p
	}
	p.sends++
	if p.sends < blackholeThreshold || a.eng.Now()-p.lastRx < blackholeWindow {
		return
	}
	a.onBlackhole(p)
}

// onBlackhole invalidates the suspect path, negatively caches its hops for
// suspectTTL, tries a local detour from the TopoCache, and re-queries the
// controller in the background.
func (a *Agent) onBlackhole(p *peer) {
	a.stats.Blackholes++
	a.eng.Tracer().Recovery(int64(a.eng.Now()), trace.RecoveryBlackhole, 0, 0, false, a.mac, p.mac)
	expiry := a.eng.Now() + suspectTTL
	for _, h := range p.lastHops {
		a.suspect[h] = expiry
	}
	// Replace the poisoned entry; fillFromCache filters suspect hops.
	if a.fillFromCache(p) {
		a.stats.FailoverHits++
	}
	if !a.ctrl.IsZero() {
		a.query(p)
	}
	// Disarm until p is heard from again, so one silent destination
	// cannot poison every detour in a cascade.
	p.sends = 0
	p.lastRx = never
	p.lastHops = nil
}

// pathSuspect reports whether a path crosses a currently-suspect hop,
// opportunistically expiring stale suspicion.
func (a *Agent) pathSuspect(cp *CachedPath) bool {
	if len(a.suspect) == 0 {
		return false
	}
	now := a.eng.Now()
	for _, h := range cp.Hops {
		if exp, ok := a.suspect[h]; ok {
			if now < exp {
				return true
			}
			delete(a.suspect, h)
		}
	}
	return false
}

// filterSuspects removes paths crossing suspect hops. If every path would
// be removed the original set is returned unchanged — connectivity beats
// caution when there is no clean alternative.
func (a *Agent) filterSuspects(paths []CachedPath) []CachedPath {
	if len(a.suspect) == 0 || len(paths) == 0 {
		return paths
	}
	clean := make([]CachedPath, 0, len(paths))
	for i := range paths {
		if !a.pathSuspect(&paths[i]) {
			clean = append(clean, paths[i])
		}
	}
	if len(clean) == 0 {
		return paths
	}
	return clean
}
