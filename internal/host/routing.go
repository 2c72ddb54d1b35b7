package host

import (
	"dumbnet/internal/sim"
)

// Route choosers implement the pluggable routing function of §6.1/§6.2: the
// default binds each flow to one of the k cached paths; the flowlet chooser
// re-randomizes the choice whenever a flow pauses longer than the flowlet
// timeout, spreading bursts over all available paths without reordering
// packets inside a burst.

// StickyChooser hashes each flow to one path and keeps it there — the
// default per-flow binding ("PathTable remembers the previously used choice
// for each flow, and binds a flow to a particular path", §5.2).
type StickyChooser struct {
	bound map[FlowKey]int
}

// NewStickyChooser creates the default chooser.
func NewStickyChooser() *StickyChooser {
	return &StickyChooser{bound: make(map[FlowKey]int)}
}

// Choose implements Policy.
func (c *StickyChooser) Choose(now sim.Time, flow FlowKey, nPaths int) int {
	if nPaths <= 1 {
		return 0
	}
	if idx, ok := c.bound[flow]; ok && idx < nPaths {
		return idx
	}
	idx := int(flow.hash() % uint64(nPaths))
	c.bound[flow] = idx
	return idx
}

// FlowletChooser implements flowlet-based traffic engineering (§6.2): the
// routing function keys on a flowlet ID — the flow key plus a counter that
// advances whenever the inter-packet gap exceeds Timeout — so consecutive
// bursts of the same flow can take different paths while packets within a
// burst stay ordered on one path.
type FlowletChooser struct {
	// Timeout is the idle gap that starts a new flowlet.
	Timeout sim.Time
	state   map[FlowKey]*flowletState
}

type flowletState struct {
	lastSeen sim.Time
	id       uint64
}

// NewFlowletChooser creates a flowlet router with the given idle timeout.
func NewFlowletChooser(timeout sim.Time) *FlowletChooser {
	return &FlowletChooser{Timeout: timeout, state: make(map[FlowKey]*flowletState)}
}

// Choose implements Policy.
func (c *FlowletChooser) Choose(now sim.Time, flow FlowKey, nPaths int) int {
	if nPaths <= 1 {
		return 0
	}
	st, ok := c.state[flow]
	if !ok {
		st = &flowletState{lastSeen: now}
		c.state[flow] = st
	} else {
		if now-st.lastSeen > c.Timeout {
			st.id++ // flowlet expired: bump the flowlet ID (§6.2)
		}
		st.lastSeen = now
	}
	return int((flow.hash() + st.id*0x9E3779B97F4A7C15) % uint64(nPaths))
}

// FlowletID exposes the current flowlet counter (for tests/observability).
func (c *FlowletChooser) FlowletID(flow FlowKey) uint64 {
	if st, ok := c.state[flow]; ok {
		return st.id
	}
	return 0
}

// RoundRobinChooser cycles packets across all paths — packet-level
// spraying, used in ablations to contrast with flowlet TE.
type RoundRobinChooser struct {
	next map[FlowKey]int
}

// NewRoundRobinChooser creates a per-flow round-robin sprayer.
func NewRoundRobinChooser() *RoundRobinChooser {
	return &RoundRobinChooser{next: make(map[FlowKey]int)}
}

// Choose implements Policy.
func (c *RoundRobinChooser) Choose(now sim.Time, flow FlowKey, nPaths int) int {
	if nPaths <= 1 {
		return 0
	}
	idx := c.next[flow] % nPaths
	c.next[flow] = idx + 1
	return idx
}

// SinglePathChooser always uses path 0 — the "DumbNet single path"
// baseline of Fig 13.
type SinglePathChooser struct{}

// Choose implements Policy.
func (SinglePathChooser) Choose(now sim.Time, flow FlowKey, nPaths int) int { return 0 }
