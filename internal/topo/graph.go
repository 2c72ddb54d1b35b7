// Package topo models the physical data-center topology — dumb switches,
// hosts, and links — and implements the routing machinery DumbNet hosts and
// controllers need: shortest paths with randomized equal-cost choice,
// Yen's k-shortest paths, tag-path encoding, path verification, and the
// paper's path-graph construction (Algorithm 1, §4.3).
package topo

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"dumbnet/internal/packet"
)

// SwitchID identifies a switch (the fixed unique ID the hardware replies
// with on an ID-query tag).
type SwitchID = packet.SwitchID

// MAC identifies a host.
type MAC = packet.MAC

// Port is a 1-based switch port number.
type Port = packet.Tag

// EndpointKind says what a switch port is wired to.
type EndpointKind uint8

// Endpoint kinds.
const (
	EndpointNone   EndpointKind = iota // port is unwired
	EndpointSwitch                     // port connects to another switch
	EndpointHost                       // port connects to a host NIC
)

// Endpoint describes the far side of a link.
type Endpoint struct {
	Kind   EndpointKind
	Switch SwitchID // valid when Kind == EndpointSwitch
	Port   Port     // far-side port, valid when Kind == EndpointSwitch
	Host   MAC      // valid when Kind == EndpointHost
}

// switchRec is one dumb switch: its ID, its port count, what each port is
// wired to (entry p-1 for port p; the slice ends at the highest wired port,
// so an unwired port past it costs nothing) and its neighbour row, the
// switch links in port order. A mutation replaces the row rather than edit
// it, so a row a reader already holds never changes under it.
type switchRec struct {
	id    SwitchID
	ports int
	wired []Endpoint
	nbrs  []Neighbor
}

// at returns what port p is wired to.
func (sw *switchRec) at(p Port) Endpoint {
	if int(p) > len(sw.wired) {
		return Endpoint{}
	}
	return sw.wired[p-1]
}

// wire records ep (not EndpointNone) on the unwired port p.
func (sw *switchRec) wire(p Port, ep Endpoint) {
	if n := int(p) - len(sw.wired); n > 0 {
		sw.wired = append(sw.wired, make([]Endpoint, n)...)
	}
	sw.wired[p-1] = ep
	if ep.Kind == EndpointSwitch {
		i := sw.nbrIndex(p)
		sw.nbrs = slices.Concat(sw.nbrs[:i], []Neighbor{{Sw: ep.Switch, Port: p, FarPort: ep.Port}}, sw.nbrs[i:])
	}
}

// unwire clears the wired port p, then trims unwired ports off the end.
func (sw *switchRec) unwire(p Port) {
	if sw.wired[p-1].Kind == EndpointSwitch {
		i := sw.nbrIndex(p)
		sw.nbrs = slices.Concat(sw.nbrs[:i], sw.nbrs[i+1:])
	}
	sw.wired[p-1] = Endpoint{}
	for n := len(sw.wired); n > 0 && sw.wired[n-1].Kind == EndpointNone; n-- {
		sw.wired = sw.wired[:n-1]
	}
}

// nbrIndex returns where port p's entry sits, or would sit, in the row.
func (sw *switchRec) nbrIndex(p Port) int {
	i, _ := slices.BinarySearchFunc(sw.nbrs, p, func(nb Neighbor, p Port) int { return cmp.Compare(nb.Port, p) })
	return i
}

// Neighbor is one cable out of a switch: the switch it reaches and its
// ports at both ends.
type Neighbor struct {
	Sw      SwitchID
	Port    Port // local outgoing port toward Sw
	FarPort Port // the port on Sw the cable arrives at
}

// Link is one switch-to-switch cable: port PA on A to port PB on B.
// Topology.Links lists each cable once, A the lower switch ID; a cable's
// position in that list is its index.
type Link struct {
	A  SwitchID
	PA Port
	B  SwitchID
	PB Port
}

// PortRef names one switch port, and so the directed link leaving it: the
// granularity of link-failure notifications, path hops and telemetry
// subjects. Port 0 names the switch itself, and the zero PortRef the whole
// fabric.
type PortRef struct {
	Switch SwitchID
	Port   Port
}

func (r PortRef) String() string {
	switch {
	case r == PortRef{}:
		return "fabric"
	case r.Port == 0:
		return fmt.Sprintf("sw%d", r.Switch)
	default:
		return fmt.Sprintf("sw%d:p%d", r.Switch, r.Port)
	}
}

// HostAttach records where a host plugs into the fabric.
type HostAttach struct {
	Host   MAC
	Switch SwitchID
	Port   Port
}

// Topology is the full fabric graph: its switches ascending by ID (a
// switch's position is its Dense index) and its host attachments ascending
// by MAC. It is not safe for concurrent mutation; any number of readers
// may share a topology nobody is mutating.
type Topology struct {
	switches []switchRec
	hostTable
	// gen counts mutations; it is the invalidation token for everything
	// derived from this topology (the two caches below, the controller's
	// path-graph cache).
	gen uint64
	// dense and cables are the derived caches, dropped by every mutation
	// and rebuilt by the first read after it. Concurrent readers may all be
	// that first read: each builds the same value and the first to publish
	// wins.
	dense  atomic.Pointer[DenseGraph]
	cables atomic.Pointer[cableTable]
}

// cableTable is one generation's cables: cable c is links[c], and its A→B
// and B→A directed edges in that generation's Dense snapshot are
// edges[c][0] and edges[c][1].
type cableTable struct {
	links []Link
	edges [][2]int32
}

// mutated invalidates the derived caches.
func (t *Topology) mutated() {
	t.gen++
	t.dense.Store(nil)
	t.cables.Store(nil)
}

// Generation returns the mutation counter. Any change to switches, links or
// host attachments bumps it, so equal generations on the same Topology value
// guarantee an identical graph.
func (t *Topology) Generation() uint64 { return t.gen }

// Dense returns the index-compressed CSR snapshot of the switch graph for
// the current generation, rebuilding it lazily after mutations. The snapshot
// is immutable and shared by every reader of this generation, and so are the
// hop-count rows its readers fill (DistTo).
func (t *Topology) Dense() *DenseGraph {
	if g := t.dense.Load(); g != nil {
		return g
	}
	g := &DenseGraph{}
	g.snapshot(t, 2*t.NumLinks())
	g.rows = make([]atomic.Pointer[[]int32], len(g.ids))
	return publish(&t.dense, g)
}

// publish installs v as the derived value unless a concurrent reader already
// installed its own (equal) one, and returns whichever is installed.
func publish[T any](p *atomic.Pointer[T], v *T) *T {
	if p.CompareAndSwap(nil, v) {
		return v
	}
	return p.Load()
}

// Errors reported by topology operations.
var (
	ErrDupSwitch   = errors.New("topo: switch already exists")
	ErrNoSwitch    = errors.New("topo: no such switch")
	ErrBadPort     = errors.New("topo: port out of range")
	ErrPortWired   = errors.New("topo: port already wired")
	ErrDupHost     = errors.New("topo: host already attached")
	ErrNoHost      = errors.New("topo: no such host")
	ErrNoLink      = errors.New("topo: no such link")
	ErrNoPath      = errors.New("topo: no path")
	ErrBadTopology = errors.New("topo: malformed serialized topology")
	ErrPathInvalid = errors.New("topo: path does not reach destination")
	ErrSelfLoop    = errors.New("topo: switch linked to itself on same port")
	ErrPortCount   = errors.New("topo: invalid port count")
)

// New returns an empty topology.
func New() *Topology { return &Topology{} }

// find locates switch id: its index, or where it would be inserted.
func (t *Topology) find(id SwitchID) (int, bool) {
	i := search(t.switches, uint64(id), func(sw *switchRec) uint64 { return uint64(sw.id) })
	return i, i < len(t.switches) && t.switches[i].id == id
}

// sw returns switch id's record, nil when there is none. The pointer is
// valid until a switch is added or removed.
func (t *Topology) sw(id SwitchID) *switchRec {
	if i, ok := t.find(id); ok {
		return &t.switches[i]
	}
	return nil
}

// AddSwitch creates a switch with the given ID and port count.
func (t *Topology) AddSwitch(id SwitchID, ports int) error {
	if ports < 1 || ports > int(packet.MaxPort) {
		return ErrPortCount
	}
	i, ok := t.find(id)
	if ok {
		return ErrDupSwitch
	}
	t.switches = slices.Insert(t.switches, i, switchRec{id: id, ports: ports})
	t.mutated()
	return nil
}

// NumSwitches reports the number of switches.
func (t *Topology) NumSwitches() int { return len(t.switches) }

// NumLinks reports the number of switch-to-switch links (each counted once).
func (t *Topology) NumLinks() int {
	n := 0
	for i := range t.switches {
		n += len(t.switches[i].nbrs)
	}
	return n / 2
}

// Links lists every switch-to-switch cable once, in ascending A, then PA:
// the cable table, where a cable's position is its index for this
// generation (Connected, CableEdges). The table is built by the first call
// after a mutation and shared by every reader until the next one, so
// callers must not modify it.
func (t *Topology) Links() []Link { return t.cableTable().links }

// CableEdges returns cable c's two directed edges in this generation's
// Dense snapshot: A→B, leaving A by port PA, and B→A, leaving B by port PB.
func (t *Topology) CableEdges(c int) (ab, ba int32) {
	e := t.cableTable().edges[c]
	return e[0], e[1]
}

// cableTable returns this generation's cable table, building it on first
// use. A neighbour row and its switch's CSR edges share port order, and a
// switch's dense index is its position in t.switches.
func (t *Topology) cableTable() *cableTable {
	if ct := t.cables.Load(); ct != nil {
		return ct
	}
	g := t.Dense()
	n := t.NumLinks()
	ct := &cableTable{links: make([]Link, 0, n), edges: make([][2]int32, 0, n)}
	for i := range t.switches {
		sw := &t.switches[i]
		for k, nb := range sw.nbrs {
			if sw.id < nb.Sw {
				j, _ := t.find(nb.Sw)
				ct.links = append(ct.links, Link{A: sw.id, PA: nb.Port, B: nb.Sw, PB: nb.FarPort})
				ct.edges = append(ct.edges, [2]int32{g.start[i] + int32(k), g.start[j] + int32(t.switches[j].nbrIndex(nb.FarPort))})
			}
		}
	}
	return publish(&t.cables, ct)
}

// SwitchIDs returns all switch IDs in ascending order.
func (t *Topology) SwitchIDs() []SwitchID {
	ids := make([]SwitchID, len(t.switches))
	for i := range t.switches {
		ids[i] = t.switches[i].id
	}
	return ids
}

// HasSwitch reports whether id exists.
func (t *Topology) HasSwitch(id SwitchID) bool { return t.sw(id) != nil }

// PortCount returns the number of ports on a switch.
func (t *Topology) PortCount(id SwitchID) (int, error) {
	sw := t.sw(id)
	if sw == nil {
		return 0, ErrNoSwitch
	}
	return sw.ports, nil
}

// checkPort validates a (switch, port) pair and returns the switch.
func (t *Topology) checkPort(id SwitchID, p Port) (*switchRec, error) {
	sw := t.sw(id)
	if sw == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoSwitch, id)
	}
	if p < 1 || int(p) > sw.ports {
		return nil, fmt.Errorf("%w: switch %d port %d", ErrBadPort, id, p)
	}
	return sw, nil
}

// Connect wires switch a port pa to switch b port pb.
func (t *Topology) Connect(a SwitchID, pa Port, b SwitchID, pb Port) error {
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
	if swa.at(pa).Kind != EndpointNone {
		return fmt.Errorf("%w: switch %d port %d", ErrPortWired, a, pa)
	}
	if swb.at(pb).Kind != EndpointNone {
		return fmt.Errorf("%w: switch %d port %d", ErrPortWired, b, pb)
	}
	swa.wire(pa, Endpoint{Kind: EndpointSwitch, Switch: b, Port: pb})
	swb.wire(pb, Endpoint{Kind: EndpointSwitch, Switch: a, Port: pa})
	t.mutated()
	return nil
}

// AttachHost wires a host NIC to a switch port.
func (t *Topology) AttachHost(h MAC, id SwitchID, p Port) error {
	sw, err := t.checkPort(id, p)
	if err != nil {
		return err
	}
	if _, ok := t.hostTable.find(h); ok {
		return fmt.Errorf("%w: %v", ErrDupHost, h)
	}
	if sw.at(p).Kind != EndpointNone {
		return fmt.Errorf("%w: switch %d port %d", ErrPortWired, id, p)
	}
	sw.wire(p, Endpoint{Kind: EndpointHost, Host: h})
	t.hostTable.set(HostAttach{Host: h, Switch: id, Port: p})
	t.mutated()
	return nil
}

// DetachHost removes a host and frees its port.
func (t *Topology) DetachHost(h MAC) error {
	at, err := t.HostAt(h)
	if err != nil {
		return err
	}
	t.sw(at.Switch).unwire(at.Port)
	t.hostTable.remove(h)
	t.mutated()
	return nil
}

// Disconnect removes the link on (id, p); the far side is unwired too.
func (t *Topology) Disconnect(id SwitchID, p Port) error {
	sw, err := t.checkPort(id, p)
	if err != nil {
		return err
	}
	ep := sw.at(p)
	switch ep.Kind {
	case EndpointNone:
		return ErrNoLink
	case EndpointSwitch:
		t.sw(ep.Switch).unwire(ep.Port)
	case EndpointHost:
		t.hostTable.remove(ep.Host)
	}
	sw.unwire(p)
	t.mutated()
	return nil
}

// RemoveSwitch deletes a switch and every link touching it.
func (t *Topology) RemoveSwitch(id SwitchID) error {
	i, ok := t.find(id)
	if !ok {
		return ErrNoSwitch
	}
	// The last entry is always wired, and Disconnect trims it.
	for sw := &t.switches[i]; len(sw.wired) > 0; {
		if err := t.Disconnect(id, Port(len(sw.wired))); err != nil {
			return err
		}
	}
	t.switches = slices.Delete(t.switches, i, i+1)
	t.mutated()
	return nil
}

// EndpointAt returns what is wired at (id, p).
func (t *Topology) EndpointAt(id SwitchID, p Port) (Endpoint, error) {
	sw, err := t.checkPort(id, p)
	if err != nil {
		return Endpoint{}, err
	}
	return sw.at(p), nil
}

// CableAt returns the far end of the cable on switch sw's port p.
func (t *Topology) CableAt(sw SwitchID, p Port) (PortRef, bool) {
	ep, err := t.EndpointAt(sw, p)
	return PortRef{Switch: ep.Switch, Port: ep.Port}, err == nil && ep.Kind == EndpointSwitch
}

// PortToward returns the local port on from that leads to the adjacent
// switch to, or an error if they are not adjacent.
func (t *Topology) PortToward(from, to SwitchID) (Port, error) {
	for _, nb := range t.Neighbors(from) {
		if nb.Sw == to {
			return nb.Port, nil
		}
	}
	return 0, ErrNoLink
}

// Neighbors returns the switches adjacent to id in deterministic port order.
// The returned slice is the switch's own row: it must not be mutated, and a
// later mutation of the topology replaces the row instead of changing it.
func (t *Topology) Neighbors(id SwitchID) []Neighbor {
	if sw := t.sw(id); sw != nil {
		return sw.nbrs
	}
	return nil
}

// Clone returns a deep copy. Neighbour rows are shared: no mutation edits
// one in place.
func (t *Topology) Clone() *Topology {
	c := &Topology{switches: slices.Clone(t.switches), hostTable: slices.Clone(t.hostTable)}
	for i := range c.switches {
		c.switches[i].wired = slices.Clone(c.switches[i].wired)
	}
	return c
}

// Equal reports whether two topologies have identical switches, wiring and
// host attachments. Wiring slices end at their highest wired port, so
// equal wiring means equal slices.
func (t *Topology) Equal(o *Topology) bool {
	return slices.Equal(t.hostTable, o.hostTable) && slices.EqualFunc(t.switches, o.switches, func(a, b switchRec) bool {
		return a.id == b.id && a.ports == b.ports && slices.Equal(a.wired, b.wired)
	})
}

// Connected reports whether every switch not in crashed can reach every
// other one once each cable in down is cut, both directions. down holds
// cable indices (positions in Links) and crashed dense switch indices
// (positions in Dense), both of this generation; a repeated index changes
// nothing. It is a masked BFS over the Dense snapshot, so the topology is
// neither copied nor mutated.
func (t *Topology) Connected(down []int, crashed []int32) bool {
	g, ct := t.Dense(), t.cableTable()
	sc := scratchPool.Get().(*DenseScratch)
	defer scratchPool.Put(sc)
	m := &sc.mask
	m.nodes.Reset(len(g.ids))
	m.edges.Reset(len(g.nbr))
	for _, i := range crashed {
		m.nodes.Set(i)
	}
	for _, c := range down {
		m.edges.Set(ct.edges[c][0])
		m.edges.Set(ct.edges[c][1])
	}
	for src := range int32(len(g.ids)) {
		if !m.nodes.Has(src) {
			sc.dist, sc.queue = g.bfsInto(sc.dist, sc.queue, src, m)
			for i, d := range sc.dist {
				if d < 0 && !m.nodes.Has(int32(i)) {
					return false
				}
			}
			break
		}
	}
	return true
}

// Validate checks structural invariants: all wiring is symmetric and host
// attachments match switch port records.
func (t *Topology) Validate() error {
	for i := range t.switches {
		id := t.switches[i].id
		for j, ep := range t.switches[i].wired {
			p := Port(j + 1)
			switch ep.Kind {
			case EndpointSwitch:
				far := t.sw(ep.Switch)
				if far == nil {
					return fmt.Errorf("%w: dangling link %d:%d", ErrNoSwitch, id, p)
				}
				if fep := far.at(ep.Port); fep.Kind != EndpointSwitch || fep.Switch != id || fep.Port != p {
					return fmt.Errorf("%w: asymmetric link %d:%d", ErrNoLink, id, p)
				}
			case EndpointHost:
				at, err := t.HostAt(ep.Host)
				if err != nil || at.Switch != id || at.Port != p {
					return fmt.Errorf("%w: host record mismatch at %d:%d", ErrNoHost, id, p)
				}
			}
		}
	}
	for _, at := range t.hostTable {
		sw := t.sw(at.Switch)
		if sw == nil {
			return fmt.Errorf("%w: host %v on missing switch", ErrNoSwitch, at.Host)
		}
		if ep := sw.at(at.Port); ep.Kind != EndpointHost || ep.Host != at.Host {
			return fmt.Errorf("%w: host %v port mismatch", ErrNoHost, at.Host)
		}
	}
	return nil
}
