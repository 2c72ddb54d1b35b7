package controller

import (
	"errors"

	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// Switch statistics collection — the §8 "packet statistics" extension. The
// controller source-routes a stats request to any switch exactly like an
// ID query (query tag punts to the switch CPU) and the switch answers with
// its soft-state counters along the embedded return path. No polling
// protocol, no switch configuration.

// ErrStatsTimeout reports an unanswered stats query.
var ErrStatsTimeout = errors.New("controller: stats query timed out")

// statsPending tracks outstanding queries by sequence number.
type statsPending struct {
	cb func(*packet.StatsReply, error)
}

// QuerySwitchStats fetches the counter snapshot of one switch; cb fires in
// virtual time with the reply or ErrStatsTimeout.
func (c *Controller) QuerySwitchStats(sw packet.SwitchID, cb func(*packet.StatsReply, error)) {
	if c.master == nil {
		cb(nil, ErrNoTopology)
		return
	}
	myAt, err := c.master.HostAt(c.MAC())
	if err != nil {
		cb(nil, err)
		return
	}
	r, err := topo.ShortestPath(c.master, myAt.Switch, sw, nil)
	if err != nil {
		cb(nil, err)
		return
	}
	// Forward tags: to the target switch, then the ID query there.
	tags := r.Tags()
	tags[len(tags)-1] = packet.TagIDQuery
	// Return tags: back over the route's own cables, then our access port.
	for i := len(r) - 2; i >= 0; i-- {
		far, _ := c.master.CableAt(r[i].Switch, r[i].Port)
		tags = append(tags, far.Port)
	}
	tags = append(tags, myAt.Port)

	if c.statsWaiting == nil {
		c.statsWaiting = make(map[uint64]statsPending)
	}
	c.statsSeq++
	seq := c.statsSeq
	c.statsWaiting[seq] = statsPending{cb: cb}
	body, err := packet.EncodeControl(packet.MsgStatsRequest, &packet.StatsRequest{
		Origin: c.MAC(),
		Seq:    seq,
	})
	if err != nil {
		delete(c.statsWaiting, seq)
		cb(nil, err)
		return
	}
	if err := c.Agent.SendFrame(packet.BroadcastMAC, tags, packet.EtherTypeControl, body); err != nil {
		delete(c.statsWaiting, seq)
		cb(nil, err)
		return
	}
	c.eng.After(10*sim.Millisecond, func() {
		if p, ok := c.statsWaiting[seq]; ok {
			delete(c.statsWaiting, seq)
			p.cb(nil, ErrStatsTimeout)
		}
	})
}

// handleStatsReply resolves an outstanding query.
func (c *Controller) handleStatsReply(m *packet.StatsReply) bool {
	p, ok := c.statsWaiting[m.Seq]
	if !ok {
		return false
	}
	delete(c.statsWaiting, m.Seq)
	p.cb(m, nil)
	return true
}
