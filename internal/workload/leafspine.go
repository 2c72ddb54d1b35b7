package workload

import (
	"math/rand"

	"dumbnet/internal/flowsim"
)

// LeafSpineNet is the flow-level model of the paper's testbed fabric:
// hosts behind leaf switches, every leaf wired to every spine. It maps
// (src, dst, policy) to capacitated link paths for the runner.
type LeafSpineNet struct {
	Net          *flowsim.Network
	Spines       int
	Leaves       int
	HostsPerLeaf int

	hostUp   []flowsim.LinkID          // host -> leaf
	hostDown []flowsim.LinkID          // leaf -> host
	up       map[[2]int]flowsim.LinkID // (leaf, spine): leaf -> spine
	down     map[[2]int]flowsim.LinkID // (spine, leaf): spine -> leaf
}

// NewLeafSpine builds the capacity graph. hostBps is the NIC/access speed,
// fabricBps the leaf-spine uplink speed (the paper caps this at 500 Mbps
// for the HiBench runs).
func NewLeafSpine(spines, leaves, hostsPerLeaf int, hostBps, fabricBps float64) *LeafSpineNet {
	n := &LeafSpineNet{
		Net:          flowsim.NewNetwork(),
		Spines:       spines,
		Leaves:       leaves,
		HostsPerLeaf: hostsPerLeaf,
		up:           make(map[[2]int]flowsim.LinkID),
		down:         make(map[[2]int]flowsim.LinkID),
	}
	hosts := leaves * hostsPerLeaf
	for h := 0; h < hosts; h++ {
		n.hostUp = append(n.hostUp, n.Net.AddLink(hostBps))
		n.hostDown = append(n.hostDown, n.Net.AddLink(hostBps))
	}
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			n.up[[2]int{l, s}] = n.Net.AddLink(fabricBps)
			n.down[[2]int{s, l}] = n.Net.AddLink(fabricBps)
		}
	}
	return n
}

// Hosts returns the number of hosts.
func (n *LeafSpineNet) Hosts() int { return n.Leaves * n.HostsPerLeaf }

// Leaf returns the leaf index of a host.
func (n *LeafSpineNet) Leaf(host int) int { return host / n.HostsPerLeaf }

// PathVia returns the link path from src to dst through the given spine
// (ignored when both hosts share a leaf).
func (n *LeafSpineNet) PathVia(src, dst, spine int) []flowsim.LinkID {
	sl, dl := n.Leaf(src), n.Leaf(dst)
	path := []flowsim.LinkID{n.hostUp[src]}
	if sl != dl {
		path = append(path, n.up[[2]int{sl, spine}], n.down[[2]int{spine, dl}])
	}
	return append(path, n.hostDown[dst])
}

// SinglePathPolicy pins every transfer to spine 0 — the "DumbNet single
// path" baseline of Fig 13 (no load balancing at all).
func (n *LeafSpineNet) SinglePathPolicy() RouteFunc {
	return func(src, dst, flowIdx int) []flowsim.LinkID {
		return n.PathVia(src, dst, 0)
	}
}

// ECMPPolicy hashes each flow to a random spine — conventional per-flow
// ECMP, the no-op-DPDK baseline's routing.
func (n *LeafSpineNet) ECMPPolicy(rng *rand.Rand) RouteFunc {
	return func(src, dst, flowIdx int) []flowsim.LinkID {
		return n.PathVia(src, dst, rng.Intn(n.Spines))
	}
}

// FlowletPolicy spreads successive transfers of a host pair across spines
// round-robin — the flow-level effect of DumbNet's flowlet TE (§6.2), where
// every flowlet re-randomizes among the k cached paths.
func (n *LeafSpineNet) FlowletPolicy() RouteFunc {
	counters := make(map[[2]int]int)
	return func(src, dst, flowIdx int) []flowsim.LinkID {
		key := [2]int{n.Leaf(src), n.Leaf(dst)}
		spine := counters[key] % n.Spines
		counters[key]++
		return n.PathVia(src, dst, spine)
	}
}
