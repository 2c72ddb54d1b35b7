package host

import (
	"slices"

	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
)

// The two-level path cache (paper §5.2, Figure 4): the TopoCache aggregates
// controller-issued path graphs into a partial topology; the PathTable is
// the per-destination fast path, caching k shortest paths plus the backup
// path and remembering which path each flow uses.

// CachedPath is one ready-to-use route.
type CachedPath struct {
	Tags packet.Path
	Hops []topo.PortRef // for invalidation on link events
}

// TableEntry is the PathTable record for one destination.
type TableEntry struct {
	Paths  []CachedPath // k shortest, index-addressed by the route chooser
	Backup *CachedPath  // the failure-disjoint backup (§4.3)
	// Rerouted marks an entry repaired by failure recovery; the next send
	// through it clears the flag and closes the recovery timeline with a
	// first-packet record.
	Rerouted bool
}

// PathTable is the agent's peer table: one record per destination, keyed by
// packet.MAC.Uint64, holding its cached routes and all else the agent keeps
// about it, so a send looks its destination up once and a receive its source.
type PathTable struct {
	a     *Agent // the owning agent, nil for a standalone table
	peers map[uint64]*peer
}

// never is a peer's last-echo and last-heard time before there was one: far
// enough back that no interval reaches it, and not 0, which is a time a
// frame can be handled at.
const never sim.Time = -1 << 62

// peer is the agent's record of one destination. Invalidate clears the
// route and keeps the rest: blackhole arming and the echo rate limit
// outlive a dropped route.
type peer struct {
	a        *Agent
	mac      packet.MAC
	entry    *TableEntry        // cached routes, nil when there are none
	q        pathQuery          // the open path query, when q.open
	lastEcho sim.Time           // last congestion echo sent to it (never: none)
	bulkRx   map[uint32]*bulkRx // inbound bulk transfers from it, by ID

	// Return-traffic liveness for blackhole detection (noteRx, noteSend).
	sends    int            // consecutive sends since the last frame from it
	lastRx   sim.Time       // virtual time we last heard from it (never: not armed)
	lastHops []topo.PortRef // hops of the most recently used path
}

// NewPathTable creates an empty table. How many paths an entry holds is
// up to whoever installs it (the agent installs up to kPaths).
func NewPathTable() *PathTable {
	return &PathTable{peers: make(map[uint64]*peer)}
}

// peer returns dst's record, creating it when there is none.
func (t *PathTable) peer(dst packet.MAC) *peer {
	k := dst.Uint64()
	p := t.peers[k]
	if p == nil {
		p = &peer{a: t.a, mac: dst, lastEcho: never, lastRx: never}
		t.peers[k] = p
	}
	return p
}

// Lookup returns the entry for dst, or nil.
func (t *PathTable) Lookup(dst packet.MAC) *TableEntry {
	if p := t.peers[dst.Uint64()]; p != nil {
		return p.entry
	}
	return nil
}

// Install replaces the entry for dst.
func (t *PathTable) Install(dst packet.MAC, e *TableEntry) { t.peer(dst).entry = e }

// Invalidate removes the entry for dst; the rest of its record stays.
func (t *PathTable) Invalidate(dst packet.MAC) {
	if p := t.peers[dst.Uint64()]; p != nil {
		p.entry = nil
	}
}

// Len reports the number of destinations cached.
func (t *PathTable) Len() int { return len(t.Destinations()) }

// Destinations lists cached destinations (order unspecified).
func (t *PathTable) Destinations() []packet.MAC {
	out := make([]packet.MAC, 0, len(t.peers))
	for _, p := range t.peers {
		if p.entry != nil {
			out = append(out, p.mac)
		}
	}
	return out
}

// DropLink removes every cached path crossing (sw, port), promoting the
// backup when the primary set empties. It returns the destinations whose
// entries became unusable (caller should recompute or re-query those) and
// how many surviving entries it rerouted — entries that lost paths but
// still have a usable route. Rerouted entries are flagged so the next send
// through them records the recovery timeline's first-packet span.
func (t *PathTable) DropLink(sw packet.SwitchID, port packet.Tag) (dead []packet.MAC, rerouted int) {
	link := topo.PortRef{Switch: sw, Port: port}
	for _, p := range t.peers {
		e := p.entry
		if e == nil {
			continue
		}
		before := len(e.Paths)
		kept := e.Paths[:0]
		for _, cp := range e.Paths {
			if !slices.Contains(cp.Hops, link) {
				kept = append(kept, cp)
			}
		}
		e.Paths = kept
		changed := len(e.Paths) < before
		if e.Backup != nil && slices.Contains(e.Backup.Hops, link) {
			e.Backup = nil
		}
		if len(e.Paths) == 0 {
			if e.Backup != nil {
				// Fail over to the backup path immediately (§5.2:
				// "caching backup paths allows the hosts to failover
				// fast").
				e.Paths = append(e.Paths, *e.Backup)
				e.Backup = nil
			} else {
				p.entry = nil
				dead = append(dead, p.mac)
				continue
			}
		}
		if changed {
			e.Rerouted = true
			rerouted++
		}
	}
	return dead, rerouted
}

// routesFromView computes up to k cached paths from the local view.
func routesFromView(view *topo.Subgraph, src, dst packet.MAC, k int) ([]CachedPath, error) {
	sat, err := view.HostAt(src)
	if err != nil {
		return nil, err
	}
	dat, err := view.HostAt(dst)
	if err != nil {
		return nil, err
	}
	sps, err := topo.KShortestPaths(view, sat.Switch, dat.Switch, k)
	if err != nil {
		return nil, err
	}
	out := make([]CachedPath, 0, len(sps))
	for _, sp := range sps {
		cp, err := cachedPathFor(view, sp, dst)
		if err != nil {
			return nil, err
		}
		out = append(out, cp)
	}
	return out, nil
}

// cachedPathFor converts a switch path into tags plus hop references.
func cachedPathFor(view *topo.Subgraph, sp topo.SwitchPath, dst packet.MAC) (CachedPath, error) {
	tags, err := view.TagsForSwitchPath(sp, dst)
	if err != nil {
		return CachedPath{}, err
	}
	hops := make([]topo.PortRef, 0, len(tags))
	for i, sw := range sp {
		hops = append(hops, topo.PortRef{Switch: sw, Port: tags[i]})
	}
	return CachedPath{Tags: tags, Hops: hops}, nil
}

// fillFromCache replaces p's entry with one computed from the TopoCache
// (none when the cache has no route), reporting success.
func (a *Agent) fillFromCache(p *peer) bool {
	p.entry = nil
	paths, err := routesFromView(a.cache, a.mac, p.mac, kPaths)
	if err != nil || len(paths) == 0 {
		return false
	}
	p.entry = &TableEntry{Paths: a.filterSuspects(paths)}
	return true
}

// InstallRoute lets an application install a custom route for dst (§6.1).
// When VerifyPaths is set, the route must walk to dst within the TopoCache
// view or it is rejected — the "path verifier" that keeps application
// routing inside policy.
func (a *Agent) InstallRoute(dst packet.MAC, tags packet.Path) error {
	if a.cfg.VerifyPaths {
		if err := a.VerifyRoute(dst, tags); err != nil {
			a.stats.VerifyFails++
			return err
		}
	}
	p := a.table.peer(dst)
	if p.entry == nil {
		p.entry = &TableEntry{}
	}
	e := p.entry
	// Deduplicate: replace an identical cached path instead of shadowing
	// it (keeps the k-path set diverse for multi-path choosers).
	kept := e.Paths[:0]
	for _, p := range e.Paths {
		if string(p.Tags) != string(tags) {
			kept = append(kept, p)
		}
	}
	e.Paths = append([]CachedPath{{Tags: tags.Clone()}}, kept...)
	return nil
}

// VerifyRoute checks a tag path against the TopoCache: it must start at our
// switch and terminate at dst's cached attachment (Table 2 "Path Verify").
func (a *Agent) VerifyRoute(dst packet.MAC, tags packet.Path) error {
	if a.attach.Host.IsZero() {
		return ErrNoController
	}
	if _, _, err := topo.FollowTags(a.cache, a.attach.Host, dst, tags, nil); err != nil {
		return ErrVerifyFailed
	}
	return nil
}

// pathQuery is one open path request, from the first request until
// closeQuery ends it. It lives in its peer's record by value, and the record
// is its retry timer, so neither a query nor a retry allocates.
type pathQuery struct {
	open    bool
	ctrl    packet.MAC // controller the last attempt went to
	start   sim.Time   // first-send time, for the query-to-answer latency
	attempt int
	retryAt sim.Time         // when the last attempt's retry timer fires
	packets []pendingPacket  // sends queued until the route installs
	waiters []pendingResolve // route reservations (ResolveRoute misses)
}

// RunEvent is the retry timer. It acts only at the open query's recorded
// deadline: any other firing is left over from an earlier query, so every
// query gets exactly one retry chain.
func (p *peer) RunEvent() {
	if !p.q.open || p.a.eng.Now() != p.q.retryAt {
		return
	}
	p.q.attempt++
	p.a.sendPathRequest(p)
}

// query opens p's path query (sending its first request) unless one is
// open already.
func (a *Agent) query(p *peer) {
	if p.q.open {
		return
	}
	p.q = pathQuery{open: true, start: a.eng.Now()}
	a.sendPathRequest(p)
}

// closeQuery ends p's open query, if any: its queued packets are sent (ok)
// or dropped, then its route reservations resolved (ok) or refused. The
// record lets go of it first, so a send may re-open one afresh.
func (a *Agent) closeQuery(p *peer, ok bool) {
	q := p.q
	p.q = pathQuery{}
	if ok {
		for _, pk := range q.packets {
			_ = a.Send(p.mac, pk.innerType, pk.payload, pk.flow)
		}
	} else {
		a.stats.NoRouteDrops += uint64(len(q.packets))
	}
	for _, w := range q.waiters {
		if ok {
			w.w.RouteResolved(a.route(p, w.flow))
		} else {
			w.w.RouteResolved(nil, nil, false)
		}
	}
}

// sendPathRequest sends attempt q.attempt of p's query, or abandons it once
// every controller in the rotation has had its budget.
func (a *Agent) sendPathRequest(p *peer) {
	q := &p.q
	// Each controller in the rotation (the current one plus every
	// advertised replica) gets one budget's worth of attempts; after that
	// the query is abandoned and queued packets are dropped.
	if q.attempt >= RequestBudget*(1+len(a.ctrlList)) {
		a.stats.QueriesAbandoned++
		a.closeQuery(p, false)
		return
	}
	if q.attempt > 0 && q.attempt%RequestBudget == 0 && q.ctrl == a.ctrl {
		// This query exhausted its budget against the current controller
		// and nobody else has rotated yet: fail over to the next replica.
		a.failoverController()
	}
	q.ctrl = a.ctrl
	seq := a.nextSeq()
	body, err := packet.EncodeControl(packet.MsgPathRequest, &packet.PathRequest{
		Src: a.mac, Dst: p.mac, Seq: seq,
	})
	if err != nil {
		return
	}
	a.stats.PathQueries++
	op := trace.CtrlPathRequest
	if q.attempt > 0 {
		a.stats.QueryRetries++
		op = trace.CtrlPathRetry
	}
	a.eng.Tracer().Ctrl(int64(a.eng.Now()), op, a.mac, p.mac, seq)
	_ = a.SendFrame(a.ctrl, a.ctrlPath, packet.EtherTypeControl, body)
	d := a.retryDelay(q.attempt)
	q.retryAt = a.eng.Now() + d
	a.eng.AfterEvent(d, p)
}

// handlePathResponse integrates a controller-issued path graph: the body is
// read straight into the TopoCache, and only once all of it has checked out.
// The answer closes dst's open query, if any: with the new route when one
// is usable, as a failure otherwise.
func (a *Agent) handlePathResponse(blob *packet.Blob) {
	pg, err := topo.DecodePathGraph(blob.Body, a.cache)
	if err != nil {
		a.stats.BadFrames++
		return
	}
	a.stats.PathResponses++
	a.eng.Tracer().Ctrl(int64(a.eng.Now()), trace.CtrlPathResponse, a.mac, pg.Dst, blob.Seq)
	dst := pg.Dst
	p := a.table.peer(dst)
	if p.q.open {
		// Query-to-answer latency as the host saw it: cache-hit answers
		// shorten this directly, warm-up makes it near-constant.
		a.reqLat.Observe(int64(a.eng.Now() - p.q.start))
	}

	entry := &TableEntry{}
	if paths, err := routesFromView(a.cache, a.mac, dst, kPaths); err == nil {
		entry.Paths = a.filterSuspects(paths)
	}
	if len(pg.Backup) > 0 {
		if bp, err := cachedPathFor(a.cache, pg.Backup, dst); err == nil {
			entry.Backup = &bp
		}
	}
	if len(entry.Paths) == 0 {
		// Fall back to the primary path as delivered.
		if pp, err := cachedPathFor(a.cache, pg.Primary, dst); err == nil {
			entry.Paths = append(entry.Paths, pp)
		}
	}
	if len(entry.Paths) == 0 {
		// Nothing usable arrived: the query fails as if abandoned (a later
		// Send re-opens one).
		a.closeQuery(p, false)
		return
	}
	p.entry = entry
	a.eng.Tracer().Ctrl(int64(a.eng.Now()), trace.CtrlRouteInstall, a.mac, dst, blob.Seq)
	a.closeQuery(p, true)
}

// RoutesReady reports whether the PathTable can serve dst right now.
func (a *Agent) RoutesReady(dst packet.MAC) bool {
	return a.table.Lookup(dst) != nil
}

// WarmUp proactively requests a path graph for dst without sending data.
func (a *Agent) WarmUp(dst packet.MAC) error {
	if a.RoutesReady(dst) {
		return nil
	}
	if a.ctrl.IsZero() {
		return ErrNoController
	}
	a.query(a.table.peer(dst))
	return nil
}
