package host

import (
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
)

// The telemetry closed loop, host side. internal/telemetry's per-shard
// consumers publish detector verdicts to a scoreboard; agents on the same
// shard see it through the LinkHealth interface (core wires it via
// SetLinkHealth), and the "telemetry" policy steers flows off flagged
// links. host depends only on this interface — the telemetry package
// depends on host's trace records, not the other way around.

// LinkHealth is the telemetry scoreboard as seen by route choosers.
// Implementations must be safe to call from the agent's engine goroutine
// (telemetry scoreboards are shard-local, so they are).
type LinkHealth interface {
	// LinkFlagged reports whether the directed link (sw out-port) is
	// currently flagged for avoidance.
	LinkFlagged(sw packet.SwitchID, port packet.Tag) bool
}

// SetLinkHealth wires the agent's shard-local telemetry scoreboard.
func (a *Agent) SetLinkHealth(lh LinkHealth) { a.linkHealth = lh }

// LinkHealth returns the wired scoreboard (nil when telemetry is off).
func (a *Agent) LinkHealth() LinkHealth { return a.linkHealth }

// PathAwareChooser is an optional Policy refinement: a chooser that
// wants the candidate paths themselves (to inspect their hops), not just
// how many there are. The agent's route prefers ChoosePath when implemented.
type PathAwareChooser interface {
	Policy
	// ChoosePath returns the index of the path to use. Out-of-range returns
	// fall back to index 0, as with Choose.
	ChoosePath(now sim.Time, flow FlowKey, paths []CachedPath) int
}

// TelemetryChooser is the "telemetry" policy: the ECN chooser's sticky
// per-flow binding (hash + per-destination epoch) refined by the telemetry
// scoreboard — when the bound path crosses a flagged link, the chooser
// walks the other cached paths and picks the one crossing the fewest
// flagged links (first zero-cost candidate wins). ECN echoes still bump the
// destination epoch, so the policy composes both signals: the scoreboard
// gives fabric-wide windowed verdicts, ECN gives per-RTT marks.
type TelemetryChooser struct {
	ECNChooser

	agent   *Agent
	steered uint64 // times the scoreboard moved a flow off its bound path
}

// NewTelemetryChooser creates a scoreboard-aware chooser. The agent (and
// through it the scoreboard and clock) binds at Install time.
func NewTelemetryChooser(cooldown sim.Time) *TelemetryChooser {
	return &TelemetryChooser{ECNChooser: *NewECNChooser(cooldown, nil)}
}

// Install implements Policy: the ECN half takes the agent's clock, the
// scoreboard half keeps the agent.
func (c *TelemetryChooser) Install(a *Agent) {
	c.ECNChooser.Install(a)
	c.agent = a
}

// ChoosePath implements PathAwareChooser: start from the sticky choice and
// move off it only when the scoreboard flags a link it crosses.
func (c *TelemetryChooser) ChoosePath(now sim.Time, flow FlowKey, paths []CachedPath) int {
	base := c.Choose(now, flow, len(paths))
	if len(paths) <= 1 || c.agent == nil || c.agent.linkHealth == nil {
		return base
	}
	lh := c.agent.linkHealth
	best, bestCost := base, pathCost(lh, &paths[base])
	if bestCost == 0 {
		return base
	}
	// Walk the alternatives in sticky order (base+1, base+2, ...) so equal
	// flows land on equal choices deterministically.
	for off := 1; off < len(paths); off++ {
		i := (base + off) % len(paths)
		cost := pathCost(lh, &paths[i])
		if cost < bestCost {
			best, bestCost = i, cost
			if cost == 0 {
				break
			}
		}
	}
	if best != base {
		c.steered++
	}
	return best
}

// pathCost counts flagged links a path crosses.
func pathCost(lh LinkHealth, p *CachedPath) int {
	cost := 0
	for _, hop := range p.Hops {
		if lh.LinkFlagged(hop.Switch, hop.Port) {
			cost++
		}
	}
	return cost
}

// Steered reports how many sends the scoreboard moved off their sticky
// path (tests and the closed-loop demo read this).
func (c *TelemetryChooser) Steered() uint64 { return c.steered }
