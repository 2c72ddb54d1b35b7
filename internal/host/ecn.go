package host

import (
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
)

// The ECN extension (paper §6.2/§8, named future work): switches mark
// frames that cross congested ports; the receiving host echoes the mark to
// the sender, and a congestion-aware route chooser steers subsequent
// traffic onto another of the k cached paths. Everything below runs on
// hosts — the switch contribution is one stateless flag write.

// ecnEchoInterval rate-limits congestion echoes per source.
const ecnEchoInterval = 500 * sim.Microsecond

// CongestionAware is implemented by route choosers that react to ECN
// echoes.
type CongestionAware interface {
	// OnCongestion reports that the path currently used toward dst passed
	// through a congested port.
	OnCongestion(dst packet.MAC)
}

// handleCE processes a congestion-experienced mark on a frame from p: echo
// it to the sender, rate-limited per source.
func (a *Agent) handleCE(p *peer) {
	a.stats.CEReceived++
	if p.mac == a.mac || p.mac == packet.BroadcastMAC {
		return
	}
	now := a.eng.Now()
	if now-p.lastEcho < ecnEchoInterval {
		return
	}
	tags, _, ok := a.route(p, FlowKey{Dst: p.mac})
	if !ok {
		return // no cached route back; the mark is best-effort
	}
	p.lastEcho = now
	body, err := packet.EncodeControl(packet.MsgCongestion, &packet.Congestion{
		Reporter: a.mac,
		Seq:      a.nextSeq(),
	})
	if err != nil {
		return
	}
	a.stats.CongestionEchoes++
	_ = a.SendFrame(p.mac, tags, packet.EtherTypeControl, body)
}

// handleCongestion processes an incoming echo: tell the chooser to move
// traffic toward the reporter onto another path.
func (a *Agent) handleCongestion(m *packet.Congestion) {
	a.stats.CongestionNotices++
	if ca, ok := a.Chooser.(CongestionAware); ok {
		ca.OnCongestion(m.Reporter)
	}
	if a.OnCongestionNotice != nil {
		a.OnCongestionNotice(m.Reporter)
	}
}

// ECNChooser is a congestion-aware route chooser: flows bind to a path as
// with the sticky default, but every congestion notice for a destination
// bumps that destination's epoch, shifting all its flows to the next of the
// k cached paths. Combined with switch marking it implements the
// congestion-avoiding rerouting the paper leaves as future work. Its
// per-destination state is its own map rather than a slot in the agent's
// peer records: a Policy stands alone, and the ablation experiments and
// the unit tests build one with no agent at all.
type ECNChooser struct {
	// Cooldown bounds how often one destination's epoch may advance, so a
	// burst of echoes causes one reroute, not k.
	Cooldown sim.Time

	dsts  map[packet.MAC]ecnState
	clock func() sim.Time
}

// ecnState is one destination's reroute count and when its cooldown ends.
type ecnState struct {
	epoch uint64
	calm  sim.Time // no bump before this time
}

// NewECNChooser creates a congestion-aware chooser. The clock is supplied
// by the agent when installed via SetPolicy (or manually for tests).
func NewECNChooser(cooldown sim.Time, clock func() sim.Time) *ECNChooser {
	return &ECNChooser{
		Cooldown: cooldown,
		dsts:     make(map[packet.MAC]ecnState),
		clock:    clock,
	}
}

// Choose implements Policy.
func (c *ECNChooser) Choose(now sim.Time, flow FlowKey, nPaths int) int {
	if nPaths <= 1 {
		return 0
	}
	return int((flow.hash() + c.dsts[flow.Dst].epoch) % uint64(nPaths))
}

// OnCongestion implements CongestionAware.
func (c *ECNChooser) OnCongestion(dst packet.MAC) {
	now := sim.Time(0)
	if c.clock != nil {
		now = c.clock()
	}
	s := c.dsts[dst]
	if now < s.calm {
		return
	}
	c.dsts[dst] = ecnState{epoch: s.epoch + 1, calm: now + c.Cooldown}
}

// Epoch exposes a destination's reroute count (for tests/observability).
func (c *ECNChooser) Epoch(dst packet.MAC) uint64 { return c.dsts[dst].epoch }

// SetEpoch pins a destination's epoch — experiments use it to start a flow
// on a known path index before measuring rerouting behaviour.
func (c *ECNChooser) SetEpoch(dst packet.MAC, e uint64) { c.dsts[dst] = ecnState{e, c.dsts[dst].calm} }
