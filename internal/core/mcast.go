package core

import (
	"errors"
	"fmt"

	"dumbnet/internal/controller"
	"dumbnet/internal/host"
	"dumbnet/internal/mcast"
	"dumbnet/internal/packet"
)

// Core-level multicast: group management plus the collective send
// primitives. Trees live at the controller (per group, per sender,
// generation-invalidated); hosts cache the encoded tree and stamp it into
// every frame; switches replicate statelessly. The probe variant is the
// delivery sensor the chaos battery uses: every receiving member reports in
// through a callback, so exactly-once delivery is directly observable.

// CreateMcastGroup registers a multicast group at the controller. Members
// must be deployed hosts; any member (or any other host) may send to the
// group and is excluded from its own distribution tree.
func (n *Network) CreateMcastGroup(id uint32, members []MAC) error {
	if !n.booted {
		return ErrNotDeployed
	}
	for _, m := range members {
		if n.Agent(m) == nil {
			return ErrNoSuchHost
		}
	}
	return n.Ctrl.Mcast().CreateGroup(mcast.GroupID(id), members)
}

// UpdateMcastGroup replaces a group's member set.
func (n *Network) UpdateMcastGroup(id uint32, members []MAC) error {
	if !n.booted {
		return ErrNotDeployed
	}
	for _, m := range members {
		if n.Agent(m) == nil {
			return ErrNoSuchHost
		}
	}
	return n.Ctrl.Mcast().UpdateGroup(mcast.GroupID(id), members)
}

// Multicast sends an application payload from src to every member of the
// group (runs in virtual time; call Run to drain events).
func (n *Network) Multicast(src MAC, id uint32, payload []byte) error {
	head := [1]byte{kindData}
	return n.mcastSend(src, id, head[:], payload)
}

// MulticastProbe sends a delivery probe: cb fires once per member delivery,
// with the delivering member's MAC — duplicates fire it twice, which is
// exactly what the chaos invariants watch for. Returns immediately; run the
// engine to resolve.
func (n *Network) MulticastProbe(src MAC, id uint32, cb func(member MAC)) error {
	n.mu.Lock()
	n.mcastSeq++
	seq := n.mcastSeq
	n.mcastWait[seq] = cb
	n.mu.Unlock()
	head := seqHead(kindMcastProbe, seq)
	return n.mcastSend(src, id, head[:], nil)
}

// mcastSend transmits a core-protocol message (head, then body) to a group,
// fetching the sender's tree from the controller on a cache miss (the
// in-process analogue of the path-request round trip — and like a real
// fetch, it fails while the controller is down, leaving the host to retry
// later).
func (n *Network) mcastSend(src MAC, id uint32, head, body []byte) error {
	a := n.Agent(src)
	if a == nil {
		return ErrNoSuchHost
	}
	if !n.booted {
		return ErrNotDeployed
	}
	err := a.SendMcastParts(id, packet.EtherTypeIPv4, head, body)
	if err == nil {
		return nil
	}
	if !errors.Is(err, host.ErrNoTree) {
		return err
	}
	if n.Ctrl.Down() {
		return fmt.Errorf("core: multicast tree fetch for group %d: controller down", id)
	}
	ans, err := n.Ctrl.Resolve(controller.RouteQuery{Src: src,
		Group: mcast.GroupID(id), Scope: controller.ScopeTree})
	if err != nil {
		return err
	}
	a.SetMcastTree(id, ans.Wire)
	return a.SendMcastParts(id, packet.EtherTypeIPv4, head, body)
}
