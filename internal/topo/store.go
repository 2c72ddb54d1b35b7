package topo

import (
	"cmp"
	"slices"
)

// search returns the index of the first entry of s whose key is not below
// key: where key sits, or would be inserted. It is the one lookup of every
// sorted store in the package, keyed by switch ID or packet.MAC.Uint64, and
// it inlines, so keyOf is a direct call at every use.
func search[E any](s []E, key uint64, keyOf func(*E) uint64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); keyOf(&s[m]) < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// hostTable is a set of host attachments ascending by MAC: the host store
// Topology and Subgraph both embed, and so their host reads.
type hostTable []HostAttach

// byHost orders host attachments by MAC.
func byHost(a, b HostAttach) int { return cmp.Compare(a.Host.Uint64(), b.Host.Uint64()) }

// find returns h's index, or where it would be inserted.
func (t hostTable) find(h MAC) (int, bool) {
	i := search(t, h.Uint64(), func(at *HostAttach) uint64 { return at.Host.Uint64() })
	return i, i < len(t) && t[i].Host == h
}

// HostAt returns a host's attachment point.
func (t hostTable) HostAt(h MAC) (HostAttach, error) {
	if i, ok := t.find(h); ok {
		return t[i], nil
	}
	return HostAttach{}, ErrNoHost
}

// Hosts returns the attachments in MAC order, so callers that fan frames
// out over the list (the stage-1 host flood) schedule sends in a
// deterministic order.
func (t hostTable) Hosts() []HostAttach { return append(make([]HostAttach, 0, len(t)), t...) }

// NumHosts reports how many hosts are attached.
func (t hostTable) NumHosts() int { return len(t) }

// set records at, replacing the attachment of the same host. It grows by
// plain append: slices.Insert allocates twice per growth under -race.
func (t *hostTable) set(at HostAttach) {
	i, ok := t.find(at.Host)
	if !ok {
		*t = append(*t, HostAttach{})
		copy((*t)[i+1:], (*t)[i:])
	}
	(*t)[i] = at
}

// remove forgets h.
func (t *hostTable) remove(h MAC) {
	if i, ok := t.find(h); ok {
		*t = slices.Delete(*t, i, i+1)
	}
}
