// Package fabric assembles a topo.Topology into a running simulated network:
// one dumb switch per topology switch, one sim.Link per wire, and attachment
// points for host nodes. It is the glue between the static graph model and
// the discrete-event substrate.
package fabric

import (
	"fmt"

	"dumbnet/internal/dswitch"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// Config sets the physical parameters of the fabric.
type Config struct {
	// Switch configures every dumb switch.
	Switch dswitch.Config
	// SwitchLink configures switch-to-switch links.
	SwitchLink sim.LinkConfig
	// HostLink configures host-to-switch links.
	HostLink sim.LinkConfig
}

// DefaultConfig models the paper's testbed: 10 GbE links with sub-µs
// propagation delay.
func DefaultConfig() Config {
	link := sim.LinkConfig{PropDelay: 500 * sim.Nanosecond, BandwidthBps: 10e9}
	return Config{Switch: dswitch.DefaultConfig(), SwitchLink: link, HostLink: link}
}

// Fabric is a live simulated network.
type Fabric struct {
	// Eng is the fabric's home engine: the only engine in a single-shard
	// build, shard 0 of the group in a sharded build (metrics registration
	// and other idle-time bookkeeping live there).
	Eng      *sim.Engine
	Topo     *topo.Topology
	cfg      Config
	switches map[packet.SwitchID]*dswitch.Switch
	// links holds each cable's link, indexed by its position in the
	// topology's cable table (Topo.Links) when the fabric was built.
	links []*sim.Link

	// group and shardOf are set only by BuildSharded.
	group   *sim.ShardGroup
	shardOf map[packet.SwitchID]int
}

// Build instantiates switches and switch-to-switch links for t. Host nodes
// are attached afterwards with AttachHost. The topology is retained (not
// copied): later topology mutations do not affect the running fabric.
func Build(eng *sim.Engine, t *topo.Topology, cfg Config) (*Fabric, error) {
	return build(eng, nil, nil, t, cfg)
}

// BuildSharded instantiates the fabric across the shards of g following the
// partition (switch → shard index, typically from topo.PartitionShards).
// Every switch runs on its shard's engine; links whose endpoints land on
// different shards become cross-shard links and define the group's
// lookahead, so the switch-link propagation delay must be positive.
func BuildSharded(g *sim.ShardGroup, t *topo.Topology, cfg Config, part map[packet.SwitchID]int) (*Fabric, error) {
	if g == nil {
		return nil, fmt.Errorf("fabric: BuildSharded without a shard group")
	}
	for _, id := range t.SwitchIDs() {
		s, ok := part[id]
		if !ok {
			return nil, fmt.Errorf("fabric: switch %d missing from partition", id)
		}
		if s < 0 || s >= g.NumShards() {
			return nil, fmt.Errorf("fabric: switch %d assigned to shard %d of %d", id, s, g.NumShards())
		}
	}
	return build(g.Shard(0), g, part, t, cfg)
}

func build(eng *sim.Engine, g *sim.ShardGroup, part map[packet.SwitchID]int, t *topo.Topology, cfg Config) (*Fabric, error) {
	f := &Fabric{
		Eng:      eng,
		Topo:     t,
		cfg:      cfg,
		switches: make(map[packet.SwitchID]*dswitch.Switch),
		group:    g,
		shardOf:  part,
	}
	for _, id := range t.SwitchIDs() {
		ports, err := t.PortCount(id)
		if err != nil {
			return nil, err
		}
		f.switches[id] = dswitch.New(f.EngineFor(id), id, ports, cfg.Switch)
	}
	cables := t.Links()
	f.links = make([]*sim.Link, len(cables))
	for i, c := range cables {
		a, b := f.switches[c.A], f.switches[c.B]
		l := sim.NewLinkBetween(f.EngineFor(c.A), a, int(c.PA), f.EngineFor(c.B), b, int(c.PB), cfg.SwitchLink)
		a.AttachLink(int(c.PA), l)
		b.AttachLink(int(c.PB), l)
		f.links[i] = l
	}
	f.registerMetrics()
	return f, nil
}

// Group returns the shard group of a sharded build, nil otherwise.
func (f *Fabric) Group() *sim.ShardGroup { return f.group }

// Config returns the physical parameters the fabric was built with.
func (f *Fabric) Config() Config { return f.cfg }

// EngineFor returns the engine that owns a switch: the fabric engine in a
// single-shard build, the switch's shard engine in a sharded one. Hosts and
// any other component wired to the switch must live on this engine.
func (f *Fabric) EngineFor(id packet.SwitchID) *sim.Engine {
	if f.group == nil {
		return f.Eng
	}
	return f.group.Shard(f.shardOf[id])
}

// registerMetrics binds the fabric's aggregate stats into the engine's
// unified registry as lazy collectors: the hot paths keep bumping their
// plain struct counters, and the registry evaluates these sums only at
// snapshot time. Rebuilding a fabric on the same engine re-registers the
// collectors against the new instance (a replaced collector keeps its
// place in the registry's order).
func (f *Fabric) registerMetrics() {
	reg := f.Eng.Metrics()
	// One snapshot walks the fabric once: a snapshot evaluates collectors
	// in registration order, so the first drop collector refreshes d and
	// the nine after it read that walk.
	var d DropCounters
	drop := func(name string, field func(*DropCounters) uint64) {
		reg.CounterFunc("fabric/drops/"+name, func() uint64 { return field(&d) })
	}
	reg.CounterFunc("fabric/drops/link-queue-overflow", func() uint64 {
		d = f.Drops()
		return d.LinkQueue
	})
	drop("link-down-tx", func(d *DropCounters) uint64 { return d.LinkDownTx })
	drop("link-lost-in-flight", func(d *DropCounters) uint64 { return d.LinkLostInFlight })
	drop("impair-lost", func(d *DropCounters) uint64 { return d.ImpairLost })
	drop("impair-corrupt", func(d *DropCounters) uint64 { return d.ImpairCorrupt })
	drop("switch-no-port", func(d *DropCounters) uint64 { return d.SwNoPort })
	drop("switch-link-down", func(d *DropCounters) uint64 { return d.SwLinkDown })
	drop("switch-bad-frame", func(d *DropCounters) uint64 { return d.SwBadFrame })
	drop("switch-end-of-path", func(d *DropCounters) uint64 { return d.SwEndOfPath })
	drop("switch-down", func(d *DropCounters) uint64 { return d.SwSwitchDown })

	sw := func(name string, field func(*dswitch.Stats) uint64) {
		reg.CounterFunc("fabric/switch/"+name, func() uint64 {
			var sum uint64
			for _, s := range f.switches {
				st := s.Stats()
				sum += field(&st)
			}
			return sum
		})
	}
	sw("forwarded", func(s *dswitch.Stats) uint64 { return s.Forwarded })
	sw("id-replies", func(s *dswitch.Stats) uint64 { return s.IDReplies })
	sw("floods-in", func(s *dswitch.Stats) uint64 { return s.FloodsIn })
	sw("floods-out", func(s *dswitch.Stats) uint64 { return s.FloodsOut })
	sw("ecn-marked", func(s *dswitch.Stats) uint64 { return s.ECNMarked })
	sw("alarms-sent", func(s *dswitch.Stats) uint64 { return s.AlarmsSent })
	sw("alarms-squelched", func(s *dswitch.Stats) uint64 { return s.AlarmsSquelch })
}

// Switch returns the live switch instance for an ID.
func (f *Fabric) Switch(id packet.SwitchID) *dswitch.Switch { return f.switches[id] }

// AttachHost wires a host node at its attachment point recorded in the
// topology, returning the host's uplink. In a sharded build the host link
// lives entirely on the attachment switch's shard — the node itself must
// have been built against that shard's engine (EngineFor the attachment
// switch).
func (f *Fabric) AttachHost(mac packet.MAC, node sim.Node) (*sim.Link, error) {
	at, err := f.Topo.HostAt(mac)
	if err != nil {
		return nil, err
	}
	sw, ok := f.switches[at.Switch]
	if !ok {
		return nil, topo.ErrNoSwitch
	}
	eng := f.EngineFor(at.Switch)
	l := sim.NewLink(eng, sw, int(at.Port), node, 1, f.cfg.HostLink)
	sw.AttachLink(int(at.Port), l)
	return l, nil
}

// HostLink returns a host's uplink, read off its attachment switch's port
// (nil before AttachHost).
func (f *Fabric) HostLink(mac packet.MAC) *sim.Link {
	if at, err := f.Topo.HostAt(mac); err == nil {
		return f.switches[at.Switch].LinkAt(int(at.Port))
	}
	return nil
}

// LinkBetween returns the link connecting two adjacent switches: of
// parallel links, the one on the lower-ID switch's lowest port. Code that
// holds a cable index reads Links instead.
func (f *Fabric) LinkBetween(a, b packet.SwitchID) (*sim.Link, error) {
	lo, hi := min(a, b), max(a, b)
	p, err := f.Topo.PortToward(lo, hi)
	if err != nil {
		return nil, err
	}
	return f.switches[lo].LinkAt(int(p)), nil
}

// FailLink injects a failure on the link between two adjacent switches.
func (f *Fabric) FailLink(a, b packet.SwitchID) error {
	l, err := f.LinkBetween(a, b)
	if err != nil {
		return err
	}
	l.Fail()
	return nil
}

// RestoreLink brings a failed switch-to-switch link back up.
func (f *Fabric) RestoreLink(a, b packet.SwitchID) error {
	l, err := f.LinkBetween(a, b)
	if err != nil {
		return err
	}
	l.Restore()
	return nil
}

// Links returns every switch-to-switch link, indexed by cable: entry c is
// the link of cable c of the topology's cable table (Topo.Links) at build
// time. The slice is the fabric's own and must not be modified; appending
// to it copies.
func (f *Fabric) Links() []*sim.Link { return f.links[:len(f.links):len(f.links)] }

// Switches returns the live switches keyed by ID in topology order.
func (f *Fabric) Switches() []*dswitch.Switch {
	out := make([]*dswitch.Switch, 0, len(f.switches))
	for _, id := range f.Topo.SwitchIDs() {
		if sw, ok := f.switches[id]; ok {
			out = append(out, sw)
		}
	}
	return out
}

// CrashSwitch power-fails a switch: all its links drop and frames reaching
// it are discarded until RestartSwitch.
func (f *Fabric) CrashSwitch(id packet.SwitchID) error {
	sw, ok := f.switches[id]
	if !ok {
		return topo.ErrNoSwitch
	}
	sw.Crash()
	return nil
}

// RestartSwitch powers a crashed switch back on, restoring exactly the
// links its crash cut.
func (f *Fabric) RestartSwitch(id packet.SwitchID) error {
	sw, ok := f.switches[id]
	if !ok {
		return topo.ErrNoSwitch
	}
	sw.Restart()
	return nil
}

// ImpairAllLinks installs an impairment model on every switch-to-switch
// link (pass the zero Impairment to clear). Host uplinks stay clean: the
// paper's failure domain is the fabric, not the NIC cable.
func (f *Fabric) ImpairAllLinks(imp sim.Impairment) {
	for _, l := range f.links {
		l.Impair(imp)
	}
}

// DropCounters aggregates every loss class across the fabric: link-level
// queue drops, in-flight losses and impairment losses (both directions of
// every switch link and host uplink) plus the dumb switches' drop classes.
type DropCounters struct {
	LinkQueue        uint64 // transmit-queue overflow drops
	LinkDownTx       uint64 // sends attempted on downed links
	LinkLostInFlight uint64 // frames on the wire when the link went down
	ImpairLost       uint64 // impairment loss
	ImpairCorrupt    uint64 // impairment bit corruption
	SwNoPort         uint64
	SwLinkDown       uint64
	SwBadFrame       uint64
	SwEndOfPath      uint64
	SwSwitchDown     uint64
}

// Total sums every drop class.
func (d DropCounters) Total() uint64 {
	return d.LinkQueue + d.LinkDownTx + d.LinkLostInFlight + d.ImpairLost + d.ImpairCorrupt +
		d.SwNoPort + d.SwLinkDown + d.SwBadFrame + d.SwEndOfPath + d.SwSwitchDown
}

// Drops sums loss counters over the whole fabric.
func (f *Fabric) Drops() DropCounters {
	var d DropCounters
	addLink := func(l *sim.Link) {
		for _, s := range []sim.LinkStats{l.StatsFrom(true), l.StatsFrom(false)} {
			d.LinkQueue += s.Drops
			d.LinkDownTx += s.DownTx
			d.LinkLostInFlight += s.LostInFlight
			d.ImpairLost += s.ImpairLost
			d.ImpairCorrupt += s.ImpairCorrupt
		}
	}
	for _, l := range f.links {
		addLink(l)
	}
	for _, at := range f.Topo.Hosts() {
		if l := f.switches[at.Switch].LinkAt(int(at.Port)); l != nil {
			addLink(l)
		}
	}
	for _, sw := range f.switches {
		s := sw.Stats()
		d.SwNoPort += s.DropNoPort
		d.SwLinkDown += s.DropLinkDown
		d.SwBadFrame += s.DropBadFrame
		d.SwEndOfPath += s.DropEndOfPath
		d.SwSwitchDown += s.DropSwitchDown
	}
	return d
}
