package host

import "dumbnet/internal/sim"

// The agent's fixed bounds, exported to the external tests that fill them.
const (
	MaxSeenEvents      = maxSeenEvents
	MaxPending         = maxPending
	BlackholeThreshold = blackholeThreshold
	BlackholeWindow    = blackholeWindow
	ECNEchoInterval    = ecnEchoInterval
)

// ShortestBudget is the least time a path query can take to walk one
// controller's budget: every retry backoff at its -25 % jitter floor.
func ShortestBudget() sim.Time {
	var total sim.Time
	for i := 0; i < RequestBudget; i++ {
		total += min(requestTimeout<<i, requestBackoffMax) * 3 / 4
	}
	return total
}
