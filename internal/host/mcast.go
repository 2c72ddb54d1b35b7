package host

import (
	"fmt"

	"dumbnet/internal/packet"
)

// Host-side multicast (the sender half of source-routed multicast): the
// agent caches one encoded distribution tree per group — fetched from the
// controller by the application layer, the way unicast path graphs are — and
// stamps the whole tree into every multicast frame it sends. Switches fork
// the frame per branch with no group state; the only thing a host must get
// right is cache hygiene, so two eviction signals exist: a MsgGroupEvent
// flood (membership changed at the controller) drops that group's tree, and
// any topology patch drops all of them — a patched fabric may have lost a
// link some tree still crosses.

// ErrNoTree reports a multicast send with no cached tree for the group; the
// caller should fetch one from the controller and retry.
var ErrNoTree = fmt.Errorf("host: no cached multicast tree for group")

// McastTree returns the cached encoded tree for a group, if any. The bytes
// are shared with the cache and must not be modified.
func (a *Agent) McastTree(group uint32) ([]byte, bool) {
	w, ok := a.mcastTrees[group]
	return w, ok
}

// SetMcastTree caches a group's encoded distribution tree (copied).
func (a *Agent) SetMcastTree(group uint32, wire []byte) {
	a.mcastTrees[group] = append([]byte(nil), wire...)
}

// McastTreeCount reports how many trees are cached (tests and audits).
func (a *Agent) McastTreeCount() int { return len(a.mcastTrees) }

// SendMcast transmits a payload to a multicast group using the cached tree.
// ErrNoTree means the application must fetch a tree first.
func (a *Agent) SendMcast(group uint32, innerType uint16, payload []byte) error {
	return a.SendMcastParts(group, innerType, nil, payload)
}

// SendMcastParts is SendMcast for a two-piece payload (see SendParts): head
// and body are written once, into the frame, and neither is retained.
func (a *Agent) SendMcastParts(group uint32, innerType uint16, head, body []byte) error {
	wire, ok := a.mcastTrees[group]
	if !ok {
		return ErrNoTree
	}
	if a.link == nil {
		return fmt.Errorf("host %v: no uplink", a.mac)
	}
	buf := packet.GetBuffer(packet.EncodedLenMcast(len(wire), len(head)+len(body)))
	n, err := packet.EncodeMcastTo(buf, packet.McastMAC(group), a.mac, 0, wire, innerType, head)
	if err != nil {
		packet.PutBuffer(buf)
		return err
	}
	copy(buf[n:], body)
	a.stats.McastSent++
	a.link.SendFromAfter(a, buf, a.cfg.ProcessDelay+encapDelay)
	return nil
}

// handleGroupEvent processes a flooded group-membership event: the cached
// tree (if any) is stale, so drop it; the next send re-fetches.
func (a *Agent) handleGroupEvent(ev *packet.GroupEvent) {
	a.stats.GroupEventsIn++
	delete(a.mcastTrees, ev.Group)
}
