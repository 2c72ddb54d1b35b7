// Package topo models the physical data-center topology — dumb switches,
// hosts, and links — and implements the routing machinery DumbNet hosts and
// controllers need: shortest paths with randomized equal-cost choice,
// Yen's k-shortest paths, tag-path encoding, path verification, and the
// paper's path-graph construction (Algorithm 1, §4.3).
package topo

import (
	"errors"
	"fmt"
	"slices"
	"sort"
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

// Switch is one dumb switch: an ID, a port count, and per-port wiring.
type Switch struct {
	ID    SwitchID
	Ports int
	wired map[Port]Endpoint
}

// Neighbor is an adjacent switch reachable through a local port.
type Neighbor struct {
	Sw   SwitchID
	Port Port // local outgoing port toward Sw
}

// HostAttach records where a host plugs into the fabric.
type HostAttach struct {
	Host   MAC
	Switch SwitchID
	Port   Port
}

// Topology is the full fabric graph. It is not safe for concurrent mutation;
// any number of readers may share a topology nobody is mutating.
type Topology struct {
	switches map[SwitchID]*Switch
	hosts    map[MAC]HostAttach
	// gen counts mutations; it is the invalidation token for everything
	// derived from this topology (the two caches below, the controller's
	// path-graph cache).
	gen uint64
	// Derived state, dropped by every mutation and rebuilt by the first
	// read after it. Concurrent readers may all be that first read: each
	// builds the same value and the first to publish wins.
	neighbors atomic.Pointer[map[SwitchID][]Neighbor] // per switch, in port order
	dense     atomic.Pointer[DenseGraph]
}

// mutated invalidates every cache derived from the topology.
func (t *Topology) mutated() {
	t.gen++
	t.neighbors.Store(nil)
	t.dense.Store(nil)
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
func New() *Topology {
	return &Topology{
		switches: make(map[SwitchID]*Switch),
		hosts:    make(map[MAC]HostAttach),
	}
}

// AddSwitch creates a switch with the given ID and port count.
func (t *Topology) AddSwitch(id SwitchID, ports int) error {
	if ports < 1 || ports > int(packet.MaxPort) {
		return ErrPortCount
	}
	if _, ok := t.switches[id]; ok {
		return ErrDupSwitch
	}
	t.switches[id] = &Switch{ID: id, Ports: ports, wired: make(map[Port]Endpoint)}
	t.mutated()
	return nil
}

// NumSwitches reports the number of switches.
func (t *Topology) NumSwitches() int { return len(t.switches) }

// NumHosts reports the number of attached hosts.
func (t *Topology) NumHosts() int { return len(t.hosts) }

// NumLinks reports the number of switch-to-switch links (each counted once).
func (t *Topology) NumLinks() int {
	n := 0
	for _, sw := range t.switches {
		for _, ep := range sw.wired {
			if ep.Kind == EndpointSwitch {
				n++
			}
		}
	}
	return n / 2
}

// SwitchIDs returns all switch IDs in ascending order.
func (t *Topology) SwitchIDs() []SwitchID {
	ids := make([]SwitchID, 0, len(t.switches))
	for id := range t.switches {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Hosts returns all host attachments sorted by MAC.
func (t *Topology) Hosts() []HostAttach {
	out := make([]HostAttach, 0, len(t.hosts))
	for _, h := range t.hosts {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := 0; k < 6; k++ {
			if out[i].Host[k] != out[j].Host[k] {
				return out[i].Host[k] < out[j].Host[k]
			}
		}
		return false
	})
	return out
}

// HasSwitch reports whether id exists.
func (t *Topology) HasSwitch(id SwitchID) bool {
	_, ok := t.switches[id]
	return ok
}

// PortCount returns the number of ports on a switch.
func (t *Topology) PortCount(id SwitchID) (int, error) {
	sw, ok := t.switches[id]
	if !ok {
		return 0, ErrNoSwitch
	}
	return sw.Ports, nil
}

// checkPort validates a (switch, port) pair and returns the switch.
func (t *Topology) checkPort(id SwitchID, p Port) (*Switch, error) {
	sw, ok := t.switches[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSwitch, id)
	}
	if p < 1 || int(p) > sw.Ports {
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
	if _, ok := swa.wired[pa]; ok {
		return fmt.Errorf("%w: switch %d port %d", ErrPortWired, a, pa)
	}
	if _, ok := swb.wired[pb]; ok {
		return fmt.Errorf("%w: switch %d port %d", ErrPortWired, b, pb)
	}
	swa.wired[pa] = Endpoint{Kind: EndpointSwitch, Switch: b, Port: pb}
	swb.wired[pb] = Endpoint{Kind: EndpointSwitch, Switch: a, Port: pa}
	t.mutated()
	return nil
}

// AttachHost wires a host NIC to a switch port.
func (t *Topology) AttachHost(h MAC, id SwitchID, p Port) error {
	sw, err := t.checkPort(id, p)
	if err != nil {
		return err
	}
	if _, ok := t.hosts[h]; ok {
		return fmt.Errorf("%w: %v", ErrDupHost, h)
	}
	if _, ok := sw.wired[p]; ok {
		return fmt.Errorf("%w: switch %d port %d", ErrPortWired, id, p)
	}
	sw.wired[p] = Endpoint{Kind: EndpointHost, Host: h}
	t.hosts[h] = HostAttach{Host: h, Switch: id, Port: p}
	t.mutated()
	return nil
}

// DetachHost removes a host and frees its port.
func (t *Topology) DetachHost(h MAC) error {
	at, ok := t.hosts[h]
	if !ok {
		return ErrNoHost
	}
	delete(t.switches[at.Switch].wired, at.Port)
	delete(t.hosts, h)
	t.mutated()
	return nil
}

// Disconnect removes the link on (id, p); the far side is unwired too.
func (t *Topology) Disconnect(id SwitchID, p Port) error {
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
	t.mutated()
	return nil
}

// RemoveSwitch deletes a switch and every link touching it.
func (t *Topology) RemoveSwitch(id SwitchID) error {
	sw, ok := t.switches[id]
	if !ok {
		return ErrNoSwitch
	}
	// Disconnect mutates sw.wired; collect first.
	ports := make([]Port, 0, len(sw.wired))
	for p := range sw.wired {
		ports = append(ports, p)
	}
	for _, p := range ports {
		if err := t.Disconnect(id, p); err != nil {
			return err
		}
	}
	delete(t.switches, id)
	t.mutated()
	return nil
}

// EndpointAt returns what is wired at (id, p).
func (t *Topology) EndpointAt(id SwitchID, p Port) (Endpoint, error) {
	sw, err := t.checkPort(id, p)
	if err != nil {
		return Endpoint{}, err
	}
	ep, ok := sw.wired[p]
	if !ok {
		return Endpoint{Kind: EndpointNone}, nil
	}
	return ep, nil
}

// neighborAt implements attachedView.
func (t *Topology) neighborAt(sw SwitchID, p Port) (SwitchID, bool) {
	ep, err := t.EndpointAt(sw, p)
	return ep.Switch, err == nil && ep.Kind == EndpointSwitch
}

// HostAt returns the attachment point of a host.
func (t *Topology) HostAt(h MAC) (HostAttach, error) {
	at, ok := t.hosts[h]
	if !ok {
		return HostAttach{}, ErrNoHost
	}
	return at, nil
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
// The returned slice must not be mutated.
func (t *Topology) Neighbors(id SwitchID) []Neighbor {
	m := t.neighbors.Load()
	if m == nil {
		m = t.deriveNeighbors()
	}
	return (*m)[id]
}

// deriveNeighbors rebuilds and publishes the adjacency cache.
func (t *Topology) deriveNeighbors() *map[SwitchID][]Neighbor {
	m := make(map[SwitchID][]Neighbor, len(t.switches))
	for id, sw := range t.switches {
		var nbs []Neighbor
		for p, ep := range sw.wired {
			if ep.Kind == EndpointSwitch {
				nbs = append(nbs, Neighbor{Sw: ep.Switch, Port: p})
			}
		}
		sort.Slice(nbs, func(i, j int) bool { return nbs[i].Port < nbs[j].Port })
		m[id] = nbs
	}
	return publish(&t.neighbors, &m)
}

// Clone returns a deep copy.
func (t *Topology) Clone() *Topology {
	c := New()
	for id, sw := range t.switches {
		ns := &Switch{ID: id, Ports: sw.Ports, wired: make(map[Port]Endpoint, len(sw.wired))}
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

// Equal reports whether two topologies have identical switches, wiring and
// host attachments.
func (t *Topology) Equal(o *Topology) bool {
	if len(t.switches) != len(o.switches) || len(t.hosts) != len(o.hosts) {
		return false
	}
	for id, sw := range t.switches {
		osw, ok := o.switches[id]
		if !ok || osw.Ports != sw.Ports || len(osw.wired) != len(sw.wired) {
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

// Connected reports whether every switch can reach every other switch.
func (t *Topology) Connected() bool {
	if len(t.switches) == 0 {
		return true
	}
	sc := scratchPool.Get().(*DenseScratch)
	defer scratchPool.Put(sc)
	return !slices.Contains(t.Dense().DistTo(sc, 0), -1)
}

// Validate checks structural invariants: all wiring is symmetric and host
// attachments match switch port records.
func (t *Topology) Validate() error {
	for id, sw := range t.switches {
		for p, ep := range sw.wired {
			switch ep.Kind {
			case EndpointSwitch:
				far, ok := t.switches[ep.Switch]
				if !ok {
					return fmt.Errorf("%w: dangling link %d:%d", ErrNoSwitch, id, p)
				}
				fep, ok := far.wired[ep.Port]
				if !ok || fep.Kind != EndpointSwitch || fep.Switch != id || fep.Port != p {
					return fmt.Errorf("%w: asymmetric link %d:%d", ErrNoLink, id, p)
				}
			case EndpointHost:
				at, ok := t.hosts[ep.Host]
				if !ok || at.Switch != id || at.Port != p {
					return fmt.Errorf("%w: host record mismatch at %d:%d", ErrNoHost, id, p)
				}
			}
		}
	}
	for h, at := range t.hosts {
		sw, ok := t.switches[at.Switch]
		if !ok {
			return fmt.Errorf("%w: host %v on missing switch", ErrNoSwitch, h)
		}
		ep, ok := sw.wired[at.Port]
		if !ok || ep.Kind != EndpointHost || ep.Host != h {
			return fmt.Errorf("%w: host %v port mismatch", ErrNoHost, h)
		}
	}
	return nil
}
