package topo

import (
	"fmt"
	"math/rand"

	"dumbnet/internal/packet"
)

// Topology generators for the shapes evaluated in the paper: fat-tree and
// k-ary cube (§7.2.1 Fig 8), the leaf-spine testbed (§7), plus small helper
// shapes for tests. Switch IDs are assigned deterministically so runs are
// reproducible.

// hostMAC derives the MAC for the i-th generated host.
func hostMAC(i int) MAC { return packet.MACFromUint64(uint64(i) + 1) }

// FatTree builds a canonical k-ary fat-tree: (k/2)^2 core switches, k pods
// each with k/2 aggregation and k/2 edge switches, and hostsPerEdge hosts on
// every edge switch (at most k/2 for a proper fat-tree; pass 0 for the
// canonical k/2). k must be even and >= 2. Every switch is created with
// `ports` ports (pass 0 to use exactly k).
func FatTree(k, hostsPerEdge, ports int) (*Topology, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topo: fat-tree arity must be even and >= 2, got %d", k)
	}
	if ports == 0 {
		ports = k
	}
	if ports < k {
		return nil, fmt.Errorf("topo: fat-tree needs at least %d ports, got %d", k, ports)
	}
	if hostsPerEdge == 0 {
		hostsPerEdge = k / 2
	}
	if hostsPerEdge > ports-k/2 {
		return nil, fmt.Errorf("topo: %d hosts per edge exceeds free ports", hostsPerEdge)
	}
	t := New()
	half := k / 2
	numCore := half * half

	// ID layout: cores first, then per-pod aggregation, then per-pod edge.
	coreID := func(i int) SwitchID { return SwitchID(1 + i) }
	aggID := func(pod, i int) SwitchID { return SwitchID(1 + numCore + pod*half + i) }
	edgeID := func(pod, i int) SwitchID {
		return SwitchID(1 + numCore + k*half + pod*half + i)
	}

	for i := 0; i < numCore; i++ {
		if err := t.AddSwitch(coreID(i), ports); err != nil {
			return nil, err
		}
	}
	for pod := 0; pod < k; pod++ {
		for i := 0; i < half; i++ {
			if err := t.AddSwitch(aggID(pod, i), ports); err != nil {
				return nil, err
			}
			if err := t.AddSwitch(edgeID(pod, i), ports); err != nil {
				return nil, err
			}
		}
	}

	// Core <-> aggregation: core (a,b) — group a of half cores, index b —
	// connects to aggregation switch a of every pod.
	for a := 0; a < half; a++ {
		for b := 0; b < half; b++ {
			core := coreID(a*half + b)
			for pod := 0; pod < k; pod++ {
				// Core port pod+1; agg uplink port half+b+1.
				if err := t.Connect(core, Port(pod+1), aggID(pod, a), Port(half+b+1)); err != nil {
					return nil, err
				}
			}
		}
	}
	// Aggregation <-> edge within each pod.
	for pod := 0; pod < k; pod++ {
		for a := 0; a < half; a++ {
			for e := 0; e < half; e++ {
				// Agg downlink port e+1; edge uplink port half+a+1.
				if err := t.Connect(aggID(pod, a), Port(e+1), edgeID(pod, e), Port(half+a+1)); err != nil {
					return nil, err
				}
			}
		}
	}
	// Hosts on edge switches, ports 1..hostsPerEdge.
	hn := 0
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			for h := 0; h < hostsPerEdge; h++ {
				hn++
				if err := t.AttachHost(hostMAC(hn), edgeID(pod, e), Port(h+1)); err != nil {
					return nil, err
				}
			}
		}
	}
	return t, nil
}

// Cube builds an n×n×n 3-D grid ("cube") of switches, the second topology in
// the paper's discovery experiments, with hostsPerSwitch hosts on every
// switch. Switches get `ports` ports (0 means just enough: 6 + hosts).
func Cube(n, hostsPerSwitch, ports int) (*Topology, error) {
	return CubeDims([]int{n, n, n}, hostsPerSwitch, ports)
}

// CubeDims builds a general multi-dimensional grid with the given dimension
// sizes (non-wrapping mesh).
func CubeDims(dims []int, hostsPerSwitch, ports int) (*Topology, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("topo: cube needs at least one dimension")
	}
	total := 1
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("topo: bad cube dimension %d", d)
		}
		total *= d
	}
	degree := 2 * len(dims)
	if ports == 0 {
		ports = degree + hostsPerSwitch
	}
	if ports < degree+hostsPerSwitch {
		return nil, fmt.Errorf("topo: cube needs %d ports, got %d", degree+hostsPerSwitch, ports)
	}
	t := New()
	// Linear index <-> coordinates.
	idOf := func(coord []int) SwitchID {
		idx := 0
		for i, c := range coord {
			idx = idx*dims[i] + c
		}
		return SwitchID(idx + 1)
	}
	coord := make([]int, len(dims))
	var walk func(d int) error
	walk = func(d int) error {
		if d == len(dims) {
			return t.AddSwitch(idOf(coord), ports)
		}
		for c := 0; c < dims[d]; c++ {
			coord[d] = c
			if err := walk(d + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	// Links: along each dimension, port pairing (2d+1 "plus" side, 2d+2
	// "minus" side). Hosts occupy ports degree+1 ...
	coord = make([]int, len(dims))
	var wire func(d int) error
	wire = func(d int) error {
		if d == len(dims) {
			id := idOf(coord)
			for dim := range dims {
				if coord[dim]+1 < dims[dim] {
					nc := append([]int(nil), coord...)
					nc[dim]++
					if err := t.Connect(id, Port(2*dim+1), idOf(nc), Port(2*dim+2)); err != nil {
						return err
					}
				}
			}
			return nil
		}
		for c := 0; c < dims[d]; c++ {
			coord[d] = c
			if err := wire(d + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := wire(0); err != nil {
		return nil, err
	}
	for i := 1; i <= total; i++ {
		for h := 0; h < hostsPerSwitch; h++ {
			if err := t.AttachHost(hostMAC((i-1)*hostsPerSwitch+h+1), SwitchID(i), Port(degree+h+1)); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// LeafSpine builds the paper's testbed shape: `spines` spine switches, each
// leaf connected to every spine, and hostsPerLeaf hosts per leaf. The
// paper's testbed is LeafSpine(2, 5, 5, 64): 7 switches, 10 links,
// 25-27 servers.
func LeafSpine(spines, leaves, hostsPerLeaf, ports int) (*Topology, error) {
	if spines < 1 || leaves < 1 {
		return nil, fmt.Errorf("topo: need at least one spine and one leaf")
	}
	need := spines + hostsPerLeaf
	if ports == 0 {
		ports = need
		if leaves > ports {
			ports = leaves
		}
	}
	if ports < need || ports < leaves {
		return nil, fmt.Errorf("topo: leaf-spine needs %d ports, got %d", need, ports)
	}
	t := New()
	spineID := func(i int) SwitchID { return SwitchID(1 + i) }
	leafID := func(i int) SwitchID { return SwitchID(1 + spines + i) }
	for i := 0; i < spines; i++ {
		if err := t.AddSwitch(spineID(i), ports); err != nil {
			return nil, err
		}
	}
	for i := 0; i < leaves; i++ {
		if err := t.AddSwitch(leafID(i), ports); err != nil {
			return nil, err
		}
	}
	for s := 0; s < spines; s++ {
		for l := 0; l < leaves; l++ {
			// Spine port l+1 <-> leaf uplink port hostsPerLeaf+s+1.
			if err := t.Connect(spineID(s), Port(l+1), leafID(l), Port(hostsPerLeaf+s+1)); err != nil {
				return nil, err
			}
		}
	}
	hn := 0
	for l := 0; l < leaves; l++ {
		for h := 0; h < hostsPerLeaf; h++ {
			hn++
			if err := t.AttachHost(hostMAC(hn), leafID(l), Port(h+1)); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// Testbed returns the paper's prototype fabric: a leaf-spine with 2 spines,
// 5 leaves, 5 hosts per leaf and 2 extra hosts on the first two leaves
// (27 servers total), 64-port switches.
func Testbed() (*Topology, error) {
	t, err := LeafSpine(2, 5, 5, 64)
	if err != nil {
		return nil, err
	}
	// Two extra servers to reach the paper's 27. Leaf ports 6-7 carry the
	// spine uplinks, so the extras land on port 8.
	if err := t.AttachHost(hostMAC(26), SwitchID(3), Port(8)); err != nil {
		return nil, err
	}
	if err := t.AttachHost(hostMAC(27), SwitchID(4), Port(8)); err != nil {
		return nil, err
	}
	return t, nil
}

// Line builds a linear chain of n switches with one host on each end switch;
// handy for tests.
func Line(n, ports int) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("topo: line needs >= 1 switch")
	}
	if ports == 0 {
		ports = 4
	}
	t := New()
	for i := 1; i <= n; i++ {
		if err := t.AddSwitch(SwitchID(i), ports); err != nil {
			return nil, err
		}
	}
	for i := 1; i < n; i++ {
		if err := t.Connect(SwitchID(i), 2, SwitchID(i+1), 1); err != nil {
			return nil, err
		}
	}
	if err := t.AttachHost(hostMAC(1), 1, 3); err != nil {
		return nil, err
	}
	if n > 1 {
		if err := t.AttachHost(hostMAC(2), SwitchID(n), 3); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// RandomRegular builds a connected random d-regular-ish graph of n switches
// with hostsPerSwitch hosts each, for robustness tests on irregular
// topologies. The generator first builds a random spanning tree (ensuring
// connectivity), then adds random extra links until the average degree
// reaches d.
func RandomRegular(n, d, hostsPerSwitch, ports int, rng *rand.Rand) (*Topology, error) {
	if n < 2 || d < 2 {
		return nil, fmt.Errorf("topo: random graph needs n >= 2, d >= 2")
	}
	if ports == 0 {
		ports = d + hostsPerSwitch + 2
	}
	t := New()
	for i := 1; i <= n; i++ {
		if err := t.AddSwitch(SwitchID(i), ports); err != nil {
			return nil, err
		}
	}
	// Ports are taken in order, so a switch's next free port is the one
	// past its highest wired port. Links stop at linkBudget, leaving
	// hostsPerSwitch ports free on every switch so the host-attachment
	// phase cannot starve.
	linkBudget := ports - hostsPerSwitch
	next := func(id SwitchID, limit int) (Port, bool) {
		p := len(t.sw(id).wired) + 1
		return Port(p), p <= limit
	}
	// Random spanning tree: connect each node i>1 to a random earlier node
	// that still has a free port.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		a := SwitchID(perm[i] + 1)
		pa, oka := next(a, linkBudget)
		if !oka {
			return nil, fmt.Errorf("topo: out of ports while building spanning tree")
		}
		var b SwitchID
		var pb Port
		found := false
		for _, j := range rng.Perm(i) {
			cand := SwitchID(perm[j] + 1)
			if p, ok := next(cand, linkBudget); ok {
				b, pb, found = cand, p, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("topo: out of ports while building spanning tree")
		}
		if err := t.Connect(a, pa, b, pb); err != nil {
			return nil, err
		}
	}
	// Extra links to reach average degree d.
	want := n * d / 2
	tries := 0
	for t.NumLinks() < want && tries < want*20 {
		tries++
		a := SwitchID(rng.Intn(n) + 1)
		b := SwitchID(rng.Intn(n) + 1)
		if a == b {
			continue
		}
		if _, err := t.PortToward(a, b); err == nil {
			continue // already adjacent
		}
		pa, oka := next(a, linkBudget)
		pb, okb := next(b, linkBudget)
		if !oka || !okb {
			continue
		}
		if err := t.Connect(a, pa, b, pb); err != nil {
			return nil, err
		}
	}
	hn := 0
	for i := 1; i <= n; i++ {
		for h := 0; h < hostsPerSwitch; h++ {
			p, ok := next(SwitchID(i), ports)
			if !ok {
				return nil, fmt.Errorf("topo: out of ports for hosts on switch %d", i)
			}
			hn++
			if err := t.AttachHost(hostMAC(hn), SwitchID(i), p); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}
