package chaos

import (
	"dumbnet/internal/controller"
	"dumbnet/internal/fabric"
	"dumbnet/internal/host"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
	"dumbnet/internal/vnet"
)

// Target is the deployment surface a chaos scenario drives. core.Network
// implements it; the indirection (rather than importing core) lets core
// offer chaos as a construction option (core.WithChaos) without an import
// cycle, and lets tests drive scenarios against purpose-built harnesses.
type Target interface {
	// clock: the home engine is the controller's shard in a sharded run.
	clock
	// Topology is the deployment's physical graph (the generator
	// blueprint, not the controller's view).
	Topology() *topo.Topology
	// Fabric exposes the links the link battery fails, heals, flaps and
	// impairs, indexed by the blueprint's cable table.
	Fabric() *fabric.Fabric
	// Controller returns the bootstrap (primary) controller.
	Controller() *controller.Controller
	// Group returns the controller replica group, nil when unreplicated.
	Group() *controller.ReplicaGroup
	// Hosts lists non-controller host MACs in deterministic order.
	Hosts() []packet.MAC
	// Agent returns a host's agent (including the controller's).
	Agent(m packet.MAC) *host.Agent
	// Vnet returns the network-virtualization manager, nil when tenancy is
	// off. Tenant-churn scenarios require it.
	Vnet() *vnet.Manager

	Ping(src, dst packet.MAC, cb func(rtt sim.Time)) error
	PingSync(src, dst packet.MAC) (sim.Time, error)

	// CreateMcastGroup registers a multicast group at the controller;
	// MulticastProbe sends a delivery probe whose callback fires once per
	// delivering member. Multicast chaos scenarios (Config.Mcast) use these
	// as their delivery sensor.
	CreateMcastGroup(id uint32, members []packet.MAC) error
	MulticastProbe(src packet.MAC, id uint32, cb func(member packet.MAC)) error

	CrashSwitch(id packet.SwitchID) error
	RestartSwitch(id packet.SwitchID) error
}
