package host

import (
	"fmt"
	"slices"

	"dumbnet/internal/sim"
)

// Policy is the unified host routing-policy interface: every way a host can
// pick among its k cached paths — sticky flows, flowlet TE, packet spraying,
// single-path pinning, ECN-driven rerouting — behind one type. Choose
// picks the path; Install runs when the policy is attached to an agent and
// is where a policy captures agent facilities (the virtual clock, config
// defaults). Congestion-reactive policies additionally implement
// CongestionAware; the agent feeds them ECN echoes exactly as before.
type Policy interface {
	// Choose selects a path index in [0, nPaths) for a flow.
	Choose(now sim.Time, flow FlowKey, nPaths int) int
	// Install binds the policy to its agent. Called once per attachment by
	// Agent.SetPolicy; a policy attached to two agents is a bug (choosers
	// keep per-flow state).
	Install(a *Agent)
}

// Default knobs for policies built by name. Policies built directly
// (NewFlowletChooser, NewECNChooser) take explicit parameters instead.
const (
	// DefaultFlowletTimeout is the idle gap that starts a new flowlet for
	// the "flowlet" policy.
	DefaultFlowletTimeout = 500 * sim.Microsecond
	// DefaultECNCooldown bounds per-destination reroute frequency for the
	// "ecn" policy.
	DefaultECNCooldown = sim.Millisecond
)

// policies is the fixed name → constructor table behind NewPolicy. Each
// constructor returns a fresh instance: policies hold per-flow state and
// are never shared between agents.
var policies = map[string]func() Policy{
	"single":    func() Policy { return SinglePathChooser{} },
	"sticky":    func() Policy { return NewStickyChooser() },
	"rr":        func() Policy { return NewRoundRobinChooser() },
	"flowlet":   func() Policy { return NewFlowletChooser(DefaultFlowletTimeout) },
	"ecn":       func() Policy { return NewECNChooser(DefaultECNCooldown, nil) },
	"telemetry": func() Policy { return NewTelemetryChooser(DefaultECNCooldown) },
}

// NewPolicy builds a fresh instance of a named policy.
func NewPolicy(name string) (Policy, error) {
	factory, ok := policies[name]
	if !ok {
		return nil, fmt.Errorf("host: unknown routing policy %q (have %v)", name, PolicyNames())
	}
	return factory(), nil
}

// PolicyNames lists the policy names, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(policies))
	for n := range policies {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// SetPolicy installs a routing policy on the agent.
func (a *Agent) SetPolicy(p Policy) {
	p.Install(a)
	a.Chooser = p
}

// UsePolicy installs a policy by name and returns the instance.
func (a *Agent) UsePolicy(name string) (Policy, error) {
	p, err := NewPolicy(name)
	if err != nil {
		return nil, err
	}
	a.SetPolicy(p)
	return p, nil
}

// Install implements Policy (no agent facilities needed).
func (c *StickyChooser) Install(*Agent) {}

// Install implements Policy (no agent facilities needed).
func (c *FlowletChooser) Install(*Agent) {}

// Install implements Policy (no agent facilities needed).
func (c *RoundRobinChooser) Install(*Agent) {}

// Install implements Policy (no agent facilities needed).
func (SinglePathChooser) Install(*Agent) {}

// Install implements Policy: the ECN chooser reads the agent's virtual
// clock for its reroute cooldown.
func (c *ECNChooser) Install(a *Agent) { c.clock = a.eng.Now }
