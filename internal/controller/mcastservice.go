package controller

import (
	"errors"
	"sort"

	"dumbnet/internal/gencache"
	"dumbnet/internal/mcast"
	"dumbnet/internal/packet"
	"dumbnet/internal/trace"
)

// The multicast service: the controller-side half of source-routed
// multicast. It owns the group registry (who is in which group) and a cache
// of computed distribution trees, keyed per (group, source). Trees live in a
// generation cache (internal/gencache) stamped with the controller's Epoch
// AND the group's own membership generation, so chaos-driven link churn or
// a membership change can never serve a stale tree; the next lookup
// recomputes over the healed view (the §4.2 repair flow, applied to trees).
// Switches stay dumb throughout: the whole tree travels in the packet, and
// the only control-plane signal is a hop-limited MsgGroupEvent flood telling
// hosts to drop cached trees.

// Errors.
var (
	ErrNoGroup     = errors.New("controller: unknown multicast group")
	ErrGroupExists = errors.New("controller: multicast group already exists")
)

// mcastGroup is one registered group: its member set and a mutation counter
// bumped on every membership change (the group half of treeEpoch).
type mcastGroup struct {
	members []packet.MAC
	gen     uint64
}

// mcastKey identifies one cached tree: a group and the sending host. Trees
// are source-rooted, so each sender gets its own.
type mcastKey struct {
	group mcast.GroupID
	src   packet.MAC
}

// treeEpoch is the tree plane's token: the controller's Epoch plus the
// group's membership generation.
type treeEpoch struct {
	Epoch
	groupGen uint64
}

// McastService computes, caches, and invalidates multicast trees.
type McastService struct {
	c      *Controller
	groups map[mcast.GroupID]*mcastGroup
	trees  *gencache.Cache[mcastKey, treeEpoch, *RouteAnswer]

	notifies *trace.Counter
	// treeSize observes each computed tree's wire size — the deterministic
	// per-compute cost measure (cf. ctrl.route.pgsize).
	treeSize *trace.Histogram
}

func newMcastService(c *Controller) *McastService {
	reg := c.eng.Metrics()
	return &McastService{
		c:      c,
		groups: make(map[mcast.GroupID]*mcastGroup),
		trees: gencache.New[mcastKey, treeEpoch, *RouteAnswer](
			reg.Counter("ctrl.mcast.hit"), reg.Counter("ctrl.mcast.miss"), reg.Counter("ctrl.mcast.invalidated")),
		notifies: reg.Counter("ctrl.mcast.notifies"),
		treeSize: reg.ValueHistogram("ctrl.mcast.treesize"),
	}
}

// Mcast exposes the controller's multicast service.
func (c *Controller) Mcast() *McastService { return c.mcast }

// groupSeed derives the tree builder's equal-cost tie-break seed. Like
// pairSeed it depends only on the identity and the token, so the
// same (group, source, epoch) always yields the same tree — and trees
// re-randomize their equal-cost choices each topology or membership epoch,
// spreading load the way §4.3 intends for unicast.
func groupSeed(group mcast.GroupID, src packet.MAC, version, topoGen, groupGen uint64) int64 {
	h := uint64(1469598103934665603) // FNV-1a
	for _, b := range src {
		h = (h ^ uint64(b)) * 1099511628211
	}
	h = (h ^ uint64(group)) * 1099511628211
	h ^= version * 0x9E3779B97F4A7C15
	h ^= topoGen * 0xBF58476D1CE4E5B9
	h ^= groupGen * 0x94D049BB133111EB
	return int64(h)
}

// CreateGroup registers a multicast group. Members may include future
// senders; each sender is excluded from its own tree at build time.
func (s *McastService) CreateGroup(id mcast.GroupID, members []packet.MAC) error {
	if _, ok := s.groups[id]; ok {
		return ErrGroupExists
	}
	g := &mcastGroup{members: append([]packet.MAC(nil), members...), gen: 1}
	s.groups[id] = g
	s.notifyGroup(id, g.gen)
	return nil
}

// UpdateGroup replaces a group's member set, bumping its generation so every
// cached tree for the group goes stale.
func (s *McastService) UpdateGroup(id mcast.GroupID, members []packet.MAC) error {
	g, ok := s.groups[id]
	if !ok {
		return ErrNoGroup
	}
	g.members = append(g.members[:0], members...)
	g.gen++
	s.notifyGroup(id, g.gen)
	return nil
}

// DeleteGroup unregisters a group and drops its cached trees.
func (s *McastService) DeleteGroup(id mcast.GroupID) error {
	g, ok := s.groups[id]
	if !ok {
		return ErrNoGroup
	}
	delete(s.groups, id)
	s.trees.DeleteFunc(func(k mcastKey, _ *RouteAnswer) bool { return k.group == id })
	s.notifyGroup(id, g.gen+1)
	return nil
}

// Members returns a copy of a group's member set.
func (s *McastService) Members(id mcast.GroupID) ([]packet.MAC, bool) {
	g, ok := s.groups[id]
	if !ok {
		return nil, false
	}
	return append([]packet.MAC(nil), g.members...), true
}

// GroupGen reports a group's membership generation.
func (s *McastService) GroupGen(id mcast.GroupID) (uint64, bool) {
	g, ok := s.groups[id]
	if !ok {
		return 0, false
	}
	return g.gen, true
}

// Groups lists registered group IDs in ascending order.
func (s *McastService) Groups() []mcast.GroupID {
	out := make([]mcast.GroupID, 0, len(s.groups))
	for id := range s.groups {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len reports how many (group, source) trees are currently cached.
func (s *McastService) Len() int { return s.trees.Len() }

// Invalidate drops every cached tree. Generation checks make this
// unnecessary for correctness; benchmarks use it to force cold computes.
func (s *McastService) Invalidate() { s.trees.Clear() }

// lookup answers (group, src) from the tree plane, computing the tree on
// miss or staleness — a topology patch or membership change since it was
// computed is the repair path. A warm hit is a single map probe and
// allocates nothing.
func (s *McastService) lookup(group mcast.GroupID, src packet.MAC) (RouteAnswer, error) {
	if s.c.master == nil {
		return RouteAnswer{}, ErrNoTopology
	}
	g, ok := s.groups[group]
	if !ok {
		return RouteAnswer{}, ErrNoGroup
	}
	tok := treeEpoch{s.c.Epoch(), g.gen}
	if a, ok := s.trees.Get(mcastKey{group, src}, tok); ok {
		return *a, nil
	}
	seed := groupSeed(group, src, tok.version, tok.gen, g.gen)
	tree, err := mcast.BuildTree(tok.top, group, src, g.members, seed, s.c.sc)
	if err != nil {
		return RouteAnswer{}, err
	}
	a := &RouteAnswer{Wire: tree.Wire(), Scope: ScopeTree, tree: tree}
	s.trees.Put(mcastKey{group, src}, tok, a)
	s.treeSize.Observe(int64(len(a.Wire)))
	return *a, nil
}

// notifyGroup floods a MsgGroupEvent through the fabric: the frame ends its
// (empty) tag path at the controller's access switch, which broadcasts it
// hop-limited like a link alarm; every switch forwards and every host drops
// its cached trees for the group. Controllers without an uplink (unit tests,
// crashed access links) just skip the notification — host caches then age
// out through the topology-patch path instead.
func (s *McastService) notifyGroup(id mcast.GroupID, gen uint64) {
	if s.c.down {
		return
	}
	s.notifies.Inc()
	body, err := packet.EncodeControl(packet.MsgGroupEvent, &packet.GroupEvent{
		Group:    uint32(id),
		Gen:      gen,
		HopsLeft: 5,
	})
	if err != nil {
		return
	}
	_ = s.c.Agent.SendFrame(packet.BroadcastMAC, nil, packet.EtherTypeControl, body)
}
