package telemetry

import (
	"strings"

	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
)

// FlagReason is a bitmask of detector verdicts against one subject.
type FlagReason uint8

const (
	ReasonCongestion FlagReason = 1 << iota // sustained over-threshold utilization
	ReasonDropBurst                         // drops-per-window burst
	ReasonBlackhole                         // active link went silent with no alarm
	ReasonHealSLO                           // detect→reroute span exceeded the SLO
)

func (r FlagReason) String() string {
	if r == 0 {
		return "none"
	}
	var parts []string
	if r&ReasonCongestion != 0 {
		parts = append(parts, "congestion")
	}
	if r&ReasonDropBurst != 0 {
		parts = append(parts, "drop-burst")
	}
	if r&ReasonBlackhole != 0 {
		parts = append(parts, "blackhole")
	}
	if r&ReasonHealSLO != 0 {
		parts = append(parts, "heal-slo")
	}
	return strings.Join(parts, "+")
}

// flagState is one subject's active verdicts; sloTTL counts down the
// windows the heal-SLO flag has left.
type flagState struct {
	reasons FlagReason
	sloTTL  int
}

// Scoreboard holds the detector verdicts for one consumer (one shard). It
// implements host.LinkHealth: agents on the same shard call LinkFlagged
// from their route choosers; the consumer raises and clears flags from its
// flush event. Both run on the subject engine's goroutine, so no locking.
type Scoreboard struct {
	flags   map[topo.PortRef]*flagState
	raised  uint64 // 0→flagged transitions
	cleared uint64 // flagged→0 transitions
}

// NewScoreboard returns an empty scoreboard.
func NewScoreboard() *Scoreboard {
	return &Scoreboard{flags: make(map[topo.PortRef]*flagState)}
}

// raise sets reason on key, counting the not-flagged → flagged transition.
func (b *Scoreboard) raise(key topo.PortRef, reason FlagReason) {
	fs, ok := b.flags[key]
	if !ok {
		fs = &flagState{}
		b.flags[key] = fs
		b.raised++
	}
	fs.reasons |= reason
}

// raiseTTL raises reason with a window-count lifetime (heal-SLO flags decay
// rather than being cleared by a symmetric detector).
func (b *Scoreboard) raiseTTL(key topo.PortRef, reason FlagReason, ttl int) {
	b.raise(key, reason)
	if fs := b.flags[key]; fs.sloTTL < ttl {
		fs.sloTTL = ttl
	}
}

// clear drops reason from key, counting the flagged → not-flagged
// transition and deleting empty entries.
func (b *Scoreboard) clear(key topo.PortRef, reason FlagReason) {
	fs, ok := b.flags[key]
	if !ok {
		return
	}
	fs.reasons &^= reason
	if reason&ReasonHealSLO != 0 {
		fs.sloTTL = 0
	}
	if fs.reasons == 0 {
		delete(b.flags, key)
		b.cleared++
	}
}

// has reports whether reason is currently raised on key.
func (b *Scoreboard) has(key topo.PortRef, reason FlagReason) bool {
	fs, ok := b.flags[key]
	return ok && fs.reasons&reason != 0
}

// tick advances window-lifetime flags; called once per completed window.
func (b *Scoreboard) tick() {
	for key, fs := range b.flags {
		if fs.reasons&ReasonHealSLO == 0 {
			continue
		}
		if fs.sloTTL--; fs.sloTTL <= 0 {
			b.clear(key, ReasonHealSLO)
		}
	}
}

// LinkFlagged reports whether the directed link (sw, port) should be
// avoided: flagged itself, tainted by a switch-level flag on sw, or by a
// fabric-wide flag is NOT considered (a global verdict gives no signal for
// choosing between paths). This is the host.LinkHealth method.
func (b *Scoreboard) LinkFlagged(sw packet.SwitchID, port packet.Tag) bool {
	if sw == 0 {
		return false
	}
	if _, ok := b.flags[topo.PortRef{Switch: sw, Port: port}]; ok {
		return true
	}
	if port != 0 {
		if _, ok := b.flags[topo.PortRef{Switch: sw}]; ok {
			return true
		}
	}
	return false
}

// FlaggedCount returns the number of currently flagged subjects.
func (b *Scoreboard) FlaggedCount() int { return len(b.flags) }

// Raised and Cleared count flag lifecycle transitions.
func (b *Scoreboard) Raised() uint64  { return b.raised }
func (b *Scoreboard) Cleared() uint64 { return b.cleared }

// Reasons returns the active verdicts on key (0 if unflagged).
func (b *Scoreboard) Reasons(key topo.PortRef) FlagReason {
	if fs, ok := b.flags[key]; ok {
		return fs.reasons
	}
	return 0
}
