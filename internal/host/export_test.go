package host

// The agent's fixed bounds, exported to the external tests that fill them.
const (
	MaxSeenEvents = maxSeenEvents
	MaxPending    = maxPending
)
