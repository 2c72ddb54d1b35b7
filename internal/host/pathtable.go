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

// PathTable maps destination MAC to cached routes.
type PathTable struct {
	entries map[packet.MAC]*TableEntry
}

// NewPathTable creates an empty table. How many paths an entry holds is
// up to whoever installs it (the agent installs up to kPaths).
func NewPathTable() *PathTable {
	return &PathTable{entries: make(map[packet.MAC]*TableEntry)}
}

// Lookup returns the entry for dst, or nil.
func (t *PathTable) Lookup(dst packet.MAC) *TableEntry { return t.entries[dst] }

// Install replaces the entry for dst.
func (t *PathTable) Install(dst packet.MAC, e *TableEntry) { t.entries[dst] = e }

// Invalidate removes the entry for dst.
func (t *PathTable) Invalidate(dst packet.MAC) { delete(t.entries, dst) }

// Len reports the number of destinations cached.
func (t *PathTable) Len() int { return len(t.entries) }

// Destinations lists cached destinations (order unspecified).
func (t *PathTable) Destinations() []packet.MAC {
	out := make([]packet.MAC, 0, len(t.entries))
	for m := range t.entries {
		out = append(out, m)
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
	for dst, e := range t.entries {
		before := len(e.Paths)
		kept := e.Paths[:0]
		for _, p := range e.Paths {
			if !slices.Contains(p.Hops, link) {
				kept = append(kept, p)
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
				delete(t.entries, dst)
				dead = append(dead, dst)
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

// fillTableFromCache recomputes the PathTable entry for dst from the
// TopoCache, reporting success.
func (a *Agent) fillTableFromCache(dst packet.MAC) bool {
	paths, err := routesFromView(a.cache, a.mac, dst, kPaths)
	if err != nil || len(paths) == 0 {
		return false
	}
	a.table.Install(dst, &TableEntry{Paths: a.filterSuspects(paths)})
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
	e := a.table.Lookup(dst)
	if e == nil {
		e = &TableEntry{}
	}
	// Deduplicate: replace an identical cached path instead of shadowing
	// it (keeps the k-path set diverse for multi-path choosers).
	kept := e.Paths[:0]
	for _, p := range e.Paths {
		if string(p.Tags) != string(tags) {
			kept = append(kept, p)
		}
	}
	e.Paths = append([]CachedPath{{Tags: tags.Clone()}}, kept...)
	a.table.Install(dst, e)
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

// pathQuery is one open path request: everything the agent keeps about a
// destination it has asked the controller for, from the first request until
// closeQuery ends it. It is also its own retry timer — each attempt
// schedules the record itself, so a retry costs no closure, and a timer
// whose record is no longer the destination's open query (answered or
// abandoned since) does nothing. Records are never recycled: a closed one
// may still have its timer pending.
type pathQuery struct {
	a       *Agent
	dst     packet.MAC
	ctrl    packet.MAC // controller the last attempt went to
	start   sim.Time   // first-send time, for the query-to-answer latency
	attempt int
	packets []pendingPacket  // sends queued until the route installs
	waiters []pendingResolve // route reservations (ResolveRoute misses)
}

// RunEvent is the retry timer: re-send the query if it is still open.
func (q *pathQuery) RunEvent() {
	if q.a.queries[q.dst] != q {
		return
	}
	q.attempt++
	q.a.sendPathRequest(q)
}

// query returns dst's open path query, opening one (and sending its first
// request) when there is none.
func (a *Agent) query(dst packet.MAC) *pathQuery {
	if q := a.queries[dst]; q != nil {
		return q
	}
	q := &pathQuery{a: a, dst: dst, start: a.eng.Now()}
	a.queries[dst] = q
	a.sendPathRequest(q)
	return q
}

// closeQuery ends q, the open query for its destination: its queued
// packets are sent (ok) or dropped, then its route reservations are
// resolved (ok) or refused. The query leaves the map first, so a send that
// re-opens one for the same destination gets a fresh record.
func (a *Agent) closeQuery(q *pathQuery, ok bool) {
	delete(a.queries, q.dst)
	if ok {
		for _, p := range q.packets {
			_ = a.Send(q.dst, p.innerType, p.payload, p.flow)
		}
	} else {
		a.stats.NoRouteDrops += uint64(len(q.packets))
	}
	for _, p := range q.waiters {
		if ok {
			p.w.RouteResolved(a.routeForHops(q.dst, p.flow))
		} else {
			p.w.RouteResolved(nil, nil, false)
		}
	}
}

// sendPathRequest sends attempt q.attempt of q, or abandons q once every
// controller in the rotation has had its budget.
func (a *Agent) sendPathRequest(q *pathQuery) {
	// Each controller in the rotation (the current one plus every
	// advertised replica) gets one budget's worth of attempts; after that
	// the query is abandoned and queued packets are dropped.
	if q.attempt >= RequestBudget*(1+len(a.ctrlList)) {
		a.stats.QueriesAbandoned++
		a.closeQuery(q, false)
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
		Src: a.mac, Dst: q.dst, Seq: seq,
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
	a.eng.Tracer().Ctrl(int64(a.eng.Now()), op, a.mac, q.dst, seq)
	_ = a.SendFrame(a.ctrl, a.ctrlPath, packet.EtherTypeControl, body)
	a.eng.AfterEvent(a.retryDelay(q.attempt), q)
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
	q := a.queries[dst]
	if q != nil {
		// Query-to-answer latency as the host saw it: cache-hit answers
		// shorten this directly, warm-up makes it near-constant.
		a.reqLat.Observe(int64(a.eng.Now() - q.start))
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
		if q != nil {
			a.closeQuery(q, false)
		}
		return
	}
	a.table.Install(dst, entry)
	a.eng.Tracer().Ctrl(int64(a.eng.Now()), trace.CtrlRouteInstall, a.mac, dst, blob.Seq)
	if q != nil {
		a.closeQuery(q, true)
	}
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
	a.query(dst)
	return nil
}
