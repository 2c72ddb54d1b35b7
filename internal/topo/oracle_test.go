package topo

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"

	"dumbnet/internal/packet"
)

// The reference implementations of the routing algorithms: the map-based
// walks the shipped code ran before the dense kernels replaced them, kept
// verbatim so the kernels in dense.go can be held to the same answers — the
// same paths, the same tie-breaks, the same rng draws.

// oracleView is all the map kernels need from a graph.
type oracleView interface {
	Neighbors(id SwitchID) []Neighbor
}

// Distances returns BFS hop counts from src to every reachable switch.
func OracleDistances(v oracleView, src SwitchID) map[SwitchID]int {
	dist := map[SwitchID]int{src: 0}
	queue := []SwitchID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range v.Neighbors(cur) {
			if _, ok := dist[nb.Sw]; !ok {
				dist[nb.Sw] = dist[cur] + 1
				queue = append(queue, nb.Sw)
			}
		}
	}
	return dist
}

// oracleShortestPath returns one shortest switch path from src to dst: BFS
// from dst, then a downhill walk. A non-nil rng breaks ties between
// equal-cost next hops uniformly; with a nil rng the first neighbor wins.
func oracleShortestPath(v oracleView, src, dst SwitchID, rng *rand.Rand) (SwitchPath, error) {
	if src == dst {
		return SwitchPath{src}, nil
	}
	dist := OracleDistances(v, dst)
	if _, ok := dist[src]; !ok {
		return nil, ErrNoPath
	}
	path := SwitchPath{src}
	cur := src
	for cur != dst {
		var candidates []SwitchID
		want := dist[cur] - 1
		for _, nb := range v.Neighbors(cur) {
			if d, ok := dist[nb.Sw]; ok && d == want {
				candidates = append(candidates, nb.Sw)
			}
		}
		if len(candidates) == 0 {
			return nil, ErrNoPath
		}
		next := candidates[0]
		if rng != nil && len(candidates) > 1 {
			next = candidates[rng.Intn(len(candidates))]
		}
		path = append(path, next)
		cur = next
	}
	return path, nil
}

// oracleWeightedShortestPath runs Dijkstra with per-link weights given by
// cost (1 when cost returns 0 or less), smallest ID first among equals.
func oracleWeightedShortestPath(v oracleView, src, dst SwitchID, cost func(a, b SwitchID) float64) (SwitchPath, error) {
	type qitem struct {
		sw   SwitchID
		dist float64
	}
	dist := map[SwitchID]float64{src: 0}
	prev := map[SwitchID]SwitchID{}
	visited := map[SwitchID]bool{}
	for {
		best := qitem{dist: -1}
		for sw, d := range dist {
			if visited[sw] {
				continue
			}
			if best.dist < 0 || d < best.dist || (d == best.dist && sw < best.sw) {
				best = qitem{sw: sw, dist: d}
			}
		}
		if best.dist < 0 {
			return nil, ErrNoPath
		}
		if best.sw == dst {
			break
		}
		visited[best.sw] = true
		for _, nb := range v.Neighbors(best.sw) {
			if visited[nb.Sw] {
				continue
			}
			w := cost(best.sw, nb.Sw)
			if w <= 0 {
				w = 1
			}
			nd := best.dist + w
			if d, ok := dist[nb.Sw]; !ok || nd < d {
				dist[nb.Sw] = nd
				prev[nb.Sw] = best.sw
			}
		}
	}
	var rev SwitchPath
	for cur := dst; ; {
		rev = append(rev, cur)
		if cur == src {
			break
		}
		p, ok := prev[cur]
		if !ok {
			return nil, ErrNoPath
		}
		cur = p
	}
	out := make(SwitchPath, len(rev))
	for i, sw := range rev {
		out[len(rev)-1-i] = sw
	}
	return out, nil
}

// oracleKShortestPaths is Yen's algorithm over the unweighted view: up to k
// loop-free paths in ascending length order, equal lengths by lessPath.
func oracleKShortestPaths(v oracleView, src, dst SwitchID, k int) ([]SwitchPath, error) {
	first, err := oracleShortestPath(v, src, dst, nil)
	if err != nil {
		return nil, err
	}
	paths := []SwitchPath{first}
	if k <= 1 {
		return paths, nil
	}
	seen := map[string]bool{pathKey(first): true}
	var candidates []SwitchPath
	for len(paths) < k {
		last := paths[len(paths)-1]
		for i := 0; i < len(last)-1; i++ {
			spur := last[i]
			root := last[:i+1].Clone()
			// Hide the links previous paths sharing this root took out of
			// the spur node, and the root's own nodes.
			removedEdges := map[[2]SwitchID]bool{}
			for _, p := range paths {
				if len(p) > i && p[:i+1].Equal(root) && len(p) > i+1 {
					removedEdges[[2]SwitchID{p[i], p[i+1]}] = true
					removedEdges[[2]SwitchID{p[i+1], p[i]}] = true
				}
			}
			removedNodes := map[SwitchID]bool{}
			for _, sw := range root[:len(root)-1] {
				removedNodes[sw] = true
			}
			fv := filteredView{v: v, edges: removedEdges, nodes: removedNodes}
			spurPath, err := oracleShortestPath(fv, spur, dst, nil)
			if err != nil {
				continue
			}
			total := append(root[:len(root)-1].Clone(), spurPath...)
			if key := pathKey(total); !seen[key] {
				seen[key] = true
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			if len(candidates[a]) != len(candidates[b]) {
				return len(candidates[a]) < len(candidates[b])
			}
			return lessPath(candidates[a], candidates[b])
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths, nil
}

// pathKey returns the big-endian byte encoding of a path — the hash-set key
// oracleKShortestPaths dedups with.
func pathKey(p SwitchPath) string {
	b := make([]byte, 4*len(p))
	for i, sw := range p {
		binary.BigEndian.PutUint32(b[4*i:], uint32(sw))
	}
	return string(b)
}

func lessPath(a, b SwitchPath) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// filteredView hides a set of edges and nodes from an underlying view.
type filteredView struct {
	v     oracleView
	edges map[[2]SwitchID]bool
	nodes map[SwitchID]bool
}

func (f filteredView) Neighbors(id SwitchID) []Neighbor {
	if f.nodes[id] {
		return nil
	}
	var out []Neighbor
	for _, nb := range f.v.Neighbors(id) {
		if f.nodes[nb.Sw] || f.edges[[2]SwitchID{id, nb.Sw}] {
			continue
		}
		out = append(out, nb)
	}
	return out
}

// oraclePathGraph is Algorithm 1 as it was shipped before WritePathGraph:
// the same dense node set, induced into a Subgraph in ascending node order
// and each node's port order (a later write to a link's port wins), then
// marshalled. The writer must produce these bytes.
func oraclePathGraph(t *Topology, src, dst MAC, opts PathGraphOptions, rng *rand.Rand) ([]byte, error) {
	opts = opts.withDefaults()
	sc := NewDenseScratch()
	sat, err := t.HostAt(src)
	if err != nil {
		return nil, err
	}
	dat, err := t.HostAt(dst)
	if err != nil {
		return nil, err
	}
	g, si, di, err := densePair(t, sc, sat.Switch, dat.Switch)
	if err != nil {
		return nil, err
	}
	if err := g.primaryBackupInto(sc, si, di, opts.BackupPenalty, rng); err != nil {
		return nil, err
	}
	primary := g.idsOf(sc.path)
	var backup SwitchPath
	if len(sc.pathB) > 0 {
		backup = g.idsOf(sc.pathB)
	}
	nodes := pathGraphNodes(g, sc, opts)
	sub := newOracleSubgraph()
	for i := int32(0); i < int32(len(g.ids)); i++ {
		if !nodes.Has(i) {
			continue
		}
		for e := g.start[i]; e < g.start[i+1]; e++ {
			nb := g.nbr[e]
			if !nodes.Has(nb) {
				continue
			}
			rp, ok := g.PortBetween(nb, i)
			if !ok {
				return nil, ErrNoLink
			}
			sub.AddEdge(g.ids[i], g.port[e], g.ids[nb], rp)
		}
	}
	sub.AddHost(sat)
	sub.AddHost(dat)
	var w packet.Writer
	writeHeader(&w, pathgrafMagic)
	w.MAC(src)
	w.MAC(dst)
	for _, p := range []SwitchPath{primary, backup} {
		w.U16(uint16(len(p)))
		for _, sw := range p {
			w.U32(uint32(sw))
		}
	}
	w.Raw(sub.Marshal())
	return w.Bytes(), nil
}

// oracleUnmarshalPathGraph is the path-graph reader as it was shipped
// before DecodePathGraph: it builds a fresh map subgraph while it reads,
// and a host then merged that into its cache. DecodePathGraph must accept
// exactly what it accepts and leave a cache as that merge did. The
// returned header's Graph is nil; the graph comes back on its own.
func oracleUnmarshalPathGraph(b []byte) (*PathGraph, *oracleSubgraph, error) {
	r := packet.NewReader(b)
	readHeader(&r, pathgrafMagic)
	readPath := func() SwitchPath {
		n := int(r.U16())
		if n > packet.MaxPathLen*4 {
			r.Fail()
		}
		if !r.Ok() {
			return nil
		}
		p := make(SwitchPath, 0, n)
		for i := 0; i < n; i++ {
			p = append(p, SwitchID(r.U32()))
		}
		return p
	}
	pg := &PathGraph{Src: r.MAC(), Dst: r.MAC(), Primary: readPath(), Backup: readPath()}
	readHeader(&r, subgraphMagic)
	n := int(r.U32())
	if n > 1<<22 {
		r.Fail()
	}
	s := newOracleSubgraph()
	for i := 0; i < n && r.Ok(); i++ {
		id := SwitchID(r.U32())
		cnt := int(r.U16())
		if s.adj[id] == nil {
			s.adj[id] = make(map[SwitchID]Port, min(cnt, len(r.Rest())/5))
		}
		for j := 0; j < cnt && r.Ok(); j++ {
			nb := SwitchID(r.U32())
			s.adj[id][nb] = r.U8()
		}
	}
	hn := int(r.U32())
	if hn > 1<<22 {
		r.Fail()
	}
	for i := 0; i < hn && r.Ok(); i++ {
		at := readAttach(&r)
		s.hosts[at.Host] = at
	}
	if !r.Ok() || len(r.Rest()) != 0 {
		return nil, nil, ErrBadTopology
	}
	return pg, s, nil
}

// oracleSubgraph is the TopoCache as it was shipped before Subgraph stored
// sorted rows: nested maps, the switch list and each neighbour list sorted
// on every read. Subgraph must answer every read as it does, after the
// same writes (TestSubgraphMatchesOracle). One change from the shipped
// type: RemoveEdgeByPort took whichever link on the port a map range met
// first; here, as in Subgraph, it takes the one neighborAt names.
type oracleSubgraph struct {
	adj   map[SwitchID]map[SwitchID]Port // adj[a][b] = a's port toward b
	hosts map[MAC]HostAttach
}

func newOracleSubgraph() *oracleSubgraph {
	return &oracleSubgraph{adj: make(map[SwitchID]map[SwitchID]Port), hosts: make(map[MAC]HostAttach)}
}

func (s *oracleSubgraph) AddEdge(a SwitchID, pa Port, b SwitchID, pb Port) {
	if s.adj[a] == nil {
		s.adj[a] = make(map[SwitchID]Port)
	}
	if s.adj[b] == nil {
		s.adj[b] = make(map[SwitchID]Port)
	}
	s.adj[a][b] = pa
	s.adj[b][a] = pb
}

func (s *oracleSubgraph) RemoveEdge(a, b SwitchID) {
	if m := s.adj[a]; m != nil {
		delete(m, b)
	}
	if m := s.adj[b]; m != nil {
		delete(m, a)
	}
}

func (s *oracleSubgraph) RemoveEdgeByPort(sw SwitchID, p Port) bool {
	nb, ok := s.neighborAt(sw, p)
	if ok {
		s.RemoveEdge(sw, nb)
	}
	return ok
}

func (s *oracleSubgraph) RemoveHost(h MAC) { delete(s.hosts, h) }

func (s *oracleSubgraph) AddHost(at HostAttach) {
	s.hosts[at.Host] = at
	if s.adj[at.Switch] == nil {
		s.adj[at.Switch] = make(map[SwitchID]Port)
	}
}

func (s *oracleSubgraph) NumLinks() int {
	n := 0
	for _, m := range s.adj {
		n += len(m)
	}
	return n / 2
}

func (s *oracleSubgraph) SwitchIDs() []SwitchID {
	out := make([]SwitchID, 0, len(s.adj))
	for id := range s.adj {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

func (s *oracleSubgraph) Hosts() []HostAttach {
	out := make([]HostAttach, 0, len(s.hosts))
	for _, at := range s.hosts {
		out = append(out, at)
	}
	slices.SortFunc(out, byHost)
	return out
}

func (s *oracleSubgraph) Neighbors(id SwitchID) []Neighbor {
	m := s.adj[id]
	if len(m) == 0 {
		return nil
	}
	out := make([]Neighbor, 0, len(m))
	for sw, p := range m {
		out = append(out, Neighbor{Sw: sw, Port: p})
	}
	slices.SortFunc(out, func(a, b Neighbor) int { return cmp.Compare(a.Sw, b.Sw) })
	return out
}

func (s *oracleSubgraph) neighborAt(sw SwitchID, p Port) (SwitchID, bool) {
	next, ok := SwitchID(0), false
	for nb, port := range s.adj[sw] {
		if port == p && (!ok || nb < next) {
			next, ok = nb, true
		}
	}
	return next, ok
}

func (s *oracleSubgraph) PortToward(from, to SwitchID) (Port, error) {
	if p, ok := s.adj[from][to]; ok {
		return p, nil
	}
	return 0, ErrNoLink
}

// Merge unions other into s, the incoming port winning on a conflict.
func (s *oracleSubgraph) Merge(other *oracleSubgraph) {
	for a, m := range other.adj {
		if s.adj[a] == nil {
			s.adj[a] = make(map[SwitchID]Port)
		}
		for b, p := range m {
			s.adj[a][b] = p
		}
	}
	for h, at := range other.hosts {
		s.hosts[h] = at
	}
}

func (s *oracleSubgraph) Clone() *oracleSubgraph {
	c := newOracleSubgraph()
	c.Merge(s)
	return c
}

func (s *oracleSubgraph) Marshal() []byte {
	var w packet.Writer
	writeHeader(&w, subgraphMagic)
	ids := s.SwitchIDs()
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		nbs := s.Neighbors(id)
		w.U32(uint32(id))
		w.U16(uint16(len(nbs)))
		for _, nb := range nbs {
			w.U32(uint32(nb.Sw))
			w.U8(nb.Port)
		}
	}
	hosts := s.Hosts()
	w.U32(uint32(len(hosts)))
	for _, h := range hosts {
		writeAttach(&w, h)
	}
	return w.Bytes()
}

// oracleTopology is the Topology as it was shipped before each switch kept
// its wiring in a port-indexed slice: one map per switch, neighbour lists
// built from it and sorted by port, and the ports sorted again by Marshal.
// Topology must answer every read as it does, after the same writes
// (TestTopologyMatchesMapOracle).
type oracleTopology struct {
	switches map[SwitchID]*oracleSwitch
	hosts    map[MAC]HostAttach
}

type oracleSwitch struct {
	ports int
	wired map[Port]Endpoint
}

func newOracleTopology() *oracleTopology {
	return &oracleTopology{switches: make(map[SwitchID]*oracleSwitch), hosts: make(map[MAC]HostAttach)}
}

func (t *oracleTopology) AddSwitch(id SwitchID, ports int) error {
	if ports < 1 || ports > int(packet.MaxPort) {
		return ErrPortCount
	}
	if _, ok := t.switches[id]; ok {
		return ErrDupSwitch
	}
	t.switches[id] = &oracleSwitch{ports: ports, wired: make(map[Port]Endpoint)}
	return nil
}

func (t *oracleTopology) checkPort(id SwitchID, p Port) (*oracleSwitch, error) {
	sw, ok := t.switches[id]
	if !ok {
		return nil, ErrNoSwitch
	}
	if p < 1 || int(p) > sw.ports {
		return nil, ErrBadPort
	}
	return sw, nil
}

func (t *oracleTopology) Connect(a SwitchID, pa Port, b SwitchID, pb Port) error {
	if a == b {
		return ErrSelfLoop
	}
	swa, err := t.checkPort(a, pa)
	if err != nil {
		return err
	}
	swb, err := t.checkPort(b, pb)
	if err != nil {
		return err
	}
	if _, ok := swa.wired[pa]; ok {
		return ErrPortWired
	}
	if _, ok := swb.wired[pb]; ok {
		return ErrPortWired
	}
	swa.wired[pa] = Endpoint{Kind: EndpointSwitch, Switch: b, Port: pb}
	swb.wired[pb] = Endpoint{Kind: EndpointSwitch, Switch: a, Port: pa}
	return nil
}

func (t *oracleTopology) AttachHost(h MAC, id SwitchID, p Port) error {
	sw, err := t.checkPort(id, p)
	if err != nil {
		return err
	}
	if _, ok := t.hosts[h]; ok {
		return ErrDupHost
	}
	if _, ok := sw.wired[p]; ok {
		return ErrPortWired
	}
	sw.wired[p] = Endpoint{Kind: EndpointHost, Host: h}
	t.hosts[h] = HostAttach{Host: h, Switch: id, Port: p}
	return nil
}

func (t *oracleTopology) DetachHost(h MAC) error {
	at, ok := t.hosts[h]
	if !ok {
		return ErrNoHost
	}
	delete(t.switches[at.Switch].wired, at.Port)
	delete(t.hosts, h)
	return nil
}

func (t *oracleTopology) Disconnect(id SwitchID, p Port) error {
	sw, err := t.checkPort(id, p)
	if err != nil {
		return err
	}
	ep, ok := sw.wired[p]
	if !ok {
		return ErrNoLink
	}
	switch ep.Kind {
	case EndpointSwitch:
		delete(t.switches[ep.Switch].wired, ep.Port)
	case EndpointHost:
		delete(t.hosts, ep.Host)
	}
	delete(sw.wired, p)
	return nil
}

func (t *oracleTopology) RemoveSwitch(id SwitchID) error {
	sw, ok := t.switches[id]
	if !ok {
		return ErrNoSwitch
	}
	for p := range sw.wired {
		if err := t.Disconnect(id, p); err != nil {
			return err
		}
	}
	delete(t.switches, id)
	return nil
}

func (t *oracleTopology) EndpointAt(id SwitchID, p Port) (Endpoint, error) {
	sw, err := t.checkPort(id, p)
	if err != nil {
		return Endpoint{}, err
	}
	return sw.wired[p], nil
}

func (t *oracleTopology) Neighbors(id SwitchID) []Neighbor {
	sw := t.switches[id]
	if sw == nil {
		return nil
	}
	var nbs []Neighbor
	for p, ep := range sw.wired {
		if ep.Kind == EndpointSwitch {
			nbs = append(nbs, Neighbor{Sw: ep.Switch, Port: p})
		}
	}
	sort.Slice(nbs, func(i, j int) bool { return nbs[i].Port < nbs[j].Port })
	return nbs
}

func (t *oracleTopology) Links() []Link {
	ids := make([]SwitchID, 0, len(t.switches))
	for id := range t.switches {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var out []Link
	for _, id := range ids {
		for _, nb := range t.Neighbors(id) {
			if id < nb.Sw {
				out = append(out, Link{A: id, PA: nb.Port, B: nb.Sw, PB: t.switches[id].wired[nb.Port].Port})
			}
		}
	}
	return out
}

func (t *oracleTopology) Clone() *oracleTopology {
	c := newOracleTopology()
	for id, sw := range t.switches {
		ns := &oracleSwitch{ports: sw.ports, wired: make(map[Port]Endpoint, len(sw.wired))}
		for p, ep := range sw.wired {
			ns.wired[p] = ep
		}
		c.switches[id] = ns
	}
	for h, at := range t.hosts {
		c.hosts[h] = at
	}
	return c
}

func (t *oracleTopology) Equal(o *oracleTopology) bool {
	if len(t.switches) != len(o.switches) || len(t.hosts) != len(o.hosts) {
		return false
	}
	for id, sw := range t.switches {
		osw, ok := o.switches[id]
		if !ok || osw.ports != sw.ports || len(osw.wired) != len(sw.wired) {
			return false
		}
		for p, ep := range sw.wired {
			if oep, ok := osw.wired[p]; !ok || oep != ep {
				return false
			}
		}
	}
	for h, at := range t.hosts {
		if oat, ok := o.hosts[h]; !ok || oat != at {
			return false
		}
	}
	return true
}

func (t *oracleTopology) Marshal() []byte {
	var w packet.Writer
	writeHeader(&w, topoMagic)
	ids := make([]SwitchID, 0, len(t.switches))
	for id := range t.switches {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		sw := t.switches[id]
		w.U32(uint32(id))
		w.U16(uint16(sw.ports))
		ports := make([]Port, 0, len(sw.wired))
		for p := range sw.wired {
			ports = append(ports, p)
		}
		slices.Sort(ports)
		w.U16(uint16(len(ports)))
		for _, p := range ports {
			ep := sw.wired[p]
			w.U8(p)
			w.U8(uint8(ep.Kind))
			switch ep.Kind {
			case EndpointSwitch:
				w.U32(uint32(ep.Switch))
				w.U8(ep.Port)
			case EndpointHost:
				w.MAC(ep.Host)
			}
		}
	}
	return w.Bytes()
}
