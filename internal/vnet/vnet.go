// Package vnet implements DumbNet's network-virtualization extension
// (paper §6.1): tenants receive restricted topology views — the TopoCache
// "reveals partial or entire network topology based on permission" — and a
// path verifier rejects routes that leave a tenant's slice or touch foreign
// hosts, "to prevent malicious applications from violating the separation".
//
// The Manager keeps permissions, not topology: each tenant holds one
// immutable as-built slice, and every read takes the answering controller's
// master, where a slice cable is live only if wired on the same two ports.
// Link events never reach the manager (they stale cached answers through
// the controller's epoch), and a slice never widens: it never changes, and
// reading it against a master only narrows it. Tenants are created, deleted
// and migrated mid-run under concurrent controller access; each of those
// bumps the tenant's generation.
package vnet

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
)

// TenantID names a virtual network.
type TenantID string

// Errors.
var (
	ErrDupTenant    = errors.New("vnet: tenant already exists")
	ErrNoTenant     = errors.New("vnet: no such tenant")
	ErrForeignHost  = errors.New("vnet: host not in tenant")
	ErrOutsideSlice = errors.New("vnet: route leaves tenant slice")
	ErrNotRoutable  = errors.New("vnet: tenant hosts not mutually reachable")
	ErrTooFewHosts  = errors.New("vnet: tenant needs at least two hosts")
	ErrHostOwned    = errors.New("vnet: host already belongs to a tenant")
)

// ErrUnknownSwitch marks a route tag that resolves nowhere — not even on
// the master view. It wraps ErrOutsideSlice: a hop into the void is a
// fortiori outside the slice, so errors.Is(err, ErrOutsideSlice) holds for
// both flavors of escape.
var ErrUnknownSwitch = fmt.Errorf("vnet: route crosses unknown switch: %w", ErrOutsideSlice)

// Change kinds reported through Manager.OnChange.
const (
	ChangeCreate  = "create"
	ChangeDelete  = "delete"
	ChangeMigrate = "migrate"
)

// Change describes one committed tenant mutation. Members is the
// post-change membership (nil after delete) and Departed lists hosts that
// left the tenant in this mutation; both are MAC-sorted.
type Change struct {
	Kind     string
	Tenant   TenantID
	Members  []packet.MAC
	Departed []packet.MAC
}

// Tenant is one virtual network slice.
type Tenant struct {
	ID TenantID
	// members is the membership, ascending by MAC.
	members []packet.MAC
	// slice is the as-built permission, replaced only by a migration; what
	// of it is live is read against a master (topo.Subgraph.Within).
	slice *topo.Subgraph
	// gen counts lifecycle changes (create, migrate); cached answers carry
	// the gen they were computed under.
	gen uint64
}

// Hosts lists the tenant's member MACs in MAC order.
func (t *Tenant) Hosts() []packet.MAC { return slices.Clone(t.members) }

// Contains reports membership.
func (t *Tenant) Contains(m packet.MAC) bool {
	_, ok := slices.BinarySearchFunc(t.members, m, byMAC)
	return ok
}

// Slice returns the tenant's as-built slice — the most its applications may
// ever see. It is shared: callers must not modify it.
func (t *Tenant) Slice() *topo.Subgraph { return t.slice }

// Generation returns the tenant's mutation counter.
func (t *Tenant) Generation() uint64 { return t.gen }

// byMAC orders MACs by their packet.MAC.Uint64 value, which is byte order.
func byMAC(a, b packet.MAC) int { return cmp.Compare(a.Uint64(), b.Uint64()) }

// managerMetrics are the vnet.* instruments. They default to standalone
// holders so an unwired Manager costs nothing; SetMetrics rebinds them into
// a shared registry.
type managerMetrics struct {
	tenants  *trace.Gauge
	creates  *trace.Counter
	deletes  *trace.Counter
	migrates *trace.Counter
	audits   *trace.Counter
}

func standaloneMetrics() managerMetrics {
	return managerMetrics{
		tenants: &trace.Gauge{}, creates: &trace.Counter{}, deletes: &trace.Counter{},
		migrates: &trace.Counter{}, audits: &trace.Counter{},
	}
}

// Manager carves tenant slices out of a master topology. It lives beside
// the controllers; each consults it, with its own master, when answering
// path requests from tenant-tagged hosts. All methods are safe for
// concurrent use.
type Manager struct {
	mu      sync.RWMutex
	opts    topo.PathGraphOptions
	seed    int64
	tenants []*Tenant // ascending by ID
	byHost  map[packet.MAC]TenantID
	// nextGen is a manager-wide monotonic counter: a recreated tenant never
	// reuses an old (tenant, gen) pair, so cache keys cannot alias across
	// delete/create cycles.
	nextGen uint64
	met     managerMetrics

	// OnChange, when set, observes every committed tenant mutation. It is
	// called outside the manager lock, after the mutation took effect — the
	// deployment layer uses it to flush member host caches. Set it before
	// the first mutation.
	OnChange func(Change)
}

// NewManager creates a manager. The seed drives every equal-cost tie-break
// deterministically: slice construction and per-pair route answers are pure
// functions of (seed, tenant, generation, pair) and the master they read, so
// the same seed reproduces identical slices regardless of call interleaving.
func NewManager(opts topo.PathGraphOptions, seed int64) *Manager {
	return &Manager{
		opts:   opts,
		seed:   seed,
		byHost: make(map[packet.MAC]TenantID),
		met:    standaloneMetrics(),
	}
}

// SetMetrics binds the manager's vnet.* instruments into a registry.
func (m *Manager) SetMetrics(reg *trace.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.met = managerMetrics{
		tenants:  reg.Gauge("vnet.tenants"),
		creates:  reg.Counter("vnet.creates"),
		deletes:  reg.Counter("vnet.deletes"),
		migrates: reg.Counter("vnet.migrates"),
		audits:   reg.Counter("vnet.isolation_audits"),
	}
	m.met.tenants.Set(float64(len(m.tenants)))
}

// find locates tenant id: its index in m.tenants, or where it would be
// inserted. Callers hold mu.
func (m *Manager) find(id TenantID) (int, bool) {
	return slices.BinarySearchFunc(m.tenants, id, func(t *Tenant, id TenantID) int { return cmp.Compare(t.ID, id) })
}

// tenant returns tenant id. Callers hold mu.
func (m *Manager) tenant(id TenantID) (*Tenant, bool) {
	if i, ok := m.find(id); ok {
		return m.tenants[i], true
	}
	return nil, false
}

// tenantSeed mixes the manager seed with a tenant identity and generation
// (FNV-1a from packet.FNVShortBasis, which the pinned digests fix, plus a
// splitmix-style avalanche).
func tenantSeed(seed int64, id TenantID, gen uint64) uint64 {
	h := packet.FNV(packet.FNVShortBasis, id)
	h ^= uint64(seed) * 0x9E3779B97F4A7C15
	h ^= gen * 0xBF58476D1CE4E5B9
	h ^= h >> 31
	return h
}

// pairSeed extends tenantSeed with a host pair: the tie-break seed for one
// slice-restricted route answer. Stable for a fixed generation, so a
// recomputed answer is bit-identical to the cached one — mutating tenant A
// can never perturb tenant B's routes.
func pairSeed(seed int64, id TenantID, gen uint64, src, dst packet.MAC) int64 {
	return int64(packet.FNV(packet.FNV(tenantSeed(seed, id, gen), src[:]), dst[:]))
}

// buildSlice computes the union of path graphs over master between every
// member pair: members can reach each other with detour headroom but see
// nothing else.
func (m *Manager) buildSlice(master *topo.Topology, id TenantID, gen uint64, hosts []packet.MAC) (*topo.Subgraph, error) {
	slice, sc := topo.NewSubgraph(), topo.NewDenseScratch()
	rng := rand.New(rand.NewSource(int64(tenantSeed(m.seed, id, gen))))
	for i := 0; i < len(hosts); i++ {
		for j := i + 1; j < len(hosts); j++ {
			if _, err := topo.BuildPathGraphInto(slice, master, hosts[i], hosts[j], m.opts, rng, sc); err != nil {
				return nil, fmt.Errorf("%w: %v<->%v: %v", ErrNotRoutable, hosts[i], hosts[j], err)
			}
		}
	}
	return slice, nil
}

// notify fires the change hook outside the lock.
func (m *Manager) notify(ch Change) {
	if m.OnChange != nil {
		m.OnChange(ch)
	}
}

// CreateTenant builds a slice over master covering the given hosts. Hosts
// already owned by another tenant are rejected (a host joins at most one
// tenant).
func (m *Manager) CreateTenant(master *topo.Topology, id TenantID, hosts []packet.MAC) (*Tenant, error) {
	m.mu.Lock()
	at, dup := m.find(id)
	if dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("create %q: %w", id, ErrDupTenant)
	}
	if len(hosts) < 2 {
		m.mu.Unlock()
		return nil, fmt.Errorf("create %q: %w", id, ErrTooFewHosts)
	}
	for _, h := range hosts {
		if owner, ok := m.byHost[h]; ok {
			m.mu.Unlock()
			return nil, fmt.Errorf("create %q: host %v owned by %q: %w", id, h, owner, ErrHostOwned)
		}
	}
	members := slices.Clone(hosts)
	slices.SortFunc(members, byMAC)
	members = slices.Compact(members)
	m.nextGen++
	gen := m.nextGen
	slice, err := m.buildSlice(master, id, gen, members)
	if err != nil {
		m.nextGen-- // nothing committed
		m.mu.Unlock()
		return nil, fmt.Errorf("create %q: %w", id, err)
	}
	t := &Tenant{ID: id, members: members, slice: slice, gen: gen}
	for _, h := range members {
		m.byHost[h] = id
	}
	m.tenants = slices.Insert(m.tenants, at, t)
	m.met.creates.Inc()
	m.met.tenants.Set(float64(len(m.tenants)))
	ch := Change{Kind: ChangeCreate, Tenant: id, Members: members}
	m.mu.Unlock()
	m.notify(ch)
	return t, nil
}

// DeleteTenant removes a slice and every index entry pointing at it.
func (m *Manager) DeleteTenant(id TenantID) error {
	m.mu.Lock()
	i, ok := m.find(id)
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("delete %q: %w", id, ErrNoTenant)
	}
	t := m.tenants[i]
	departed := t.members
	for _, h := range departed {
		if m.byHost[h] == id {
			delete(m.byHost, h)
		}
	}
	m.tenants = slices.Delete(m.tenants, i, i+1)
	m.nextGen++
	m.met.deletes.Inc()
	m.met.tenants.Set(float64(len(m.tenants)))
	ch := Change{Kind: ChangeDelete, Tenant: id, Departed: departed}
	m.mu.Unlock()
	m.notify(ch)
	return nil
}

// MigrateHost replaces one member with another (the VM moved): the slice is
// rebuilt over master around the new membership atomically — a failed
// rebuild leaves the tenant untouched.
func (m *Manager) MigrateHost(master *topo.Topology, id TenantID, from, to packet.MAC) error {
	m.mu.Lock()
	t, ok := m.tenant(id)
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("migrate %q: %w", id, ErrNoTenant)
	}
	if !t.Contains(from) {
		m.mu.Unlock()
		return fmt.Errorf("migrate %q: %v: %w", id, from, ErrForeignHost)
	}
	if owner, ok := m.byHost[to]; ok {
		m.mu.Unlock()
		return fmt.Errorf("migrate %q: host %v owned by %q: %w", id, to, owner, ErrHostOwned)
	}
	members := slices.DeleteFunc(slices.Clone(t.members), func(h packet.MAC) bool { return h == from })
	i, _ := slices.BinarySearchFunc(members, to, byMAC)
	members = slices.Insert(members, i, to)
	gen := m.nextGen + 1
	slice, err := m.buildSlice(master, id, gen, members)
	if err != nil {
		m.mu.Unlock()
		return fmt.Errorf("migrate %q: %w", id, err)
	}
	m.nextGen = gen
	delete(m.byHost, from)
	m.byHost[to] = id
	t.members = members
	t.slice = slice
	t.gen = gen
	m.met.migrates.Inc()
	ch := Change{Kind: ChangeMigrate, Tenant: id, Members: members,
		Departed: []packet.MAC{from}}
	m.mu.Unlock()
	m.notify(ch)
	return nil
}

// TenantOf reports which tenant a host belongs to (a host joins at most
// one tenant through this manager).
func (m *Manager) TenantOf(h packet.MAC) (TenantID, bool) {
	m.mu.RLock()
	id, ok := m.byHost[h]
	m.mu.RUnlock()
	return id, ok
}

// CrossDomain reports whether traffic between a and b crosses an isolation
// boundary: one endpoint tenanted and the other not, or different tenants.
// A nil manager has no boundaries.
func (m *Manager) CrossDomain(a, b packet.MAC) bool {
	if m == nil {
		return false
	}
	ta, aok := m.TenantOf(a)
	tb, bok := m.TenantOf(b)
	return (aok || bok) && !(aok && bok && ta == tb)
}

// Tenant returns a tenant by ID.
func (m *Manager) Tenant(id TenantID) (*Tenant, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tenant(id)
	if !ok {
		return nil, ErrNoTenant
	}
	return t, nil
}

// Tenants lists the current tenant IDs in sorted order.
func (m *Manager) Tenants() []TenantID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]TenantID, len(m.tenants))
	for i, t := range m.tenants {
		out[i] = t.ID
	}
	return out
}

// Count reports how many tenants exist.
func (m *Manager) Count() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.tenants)
}

// Members returns a tenant's member MACs in MAC order.
func (m *Manager) Members(id TenantID) ([]packet.MAC, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tenant(id)
	if !ok {
		return nil, ErrNoTenant
	}
	return t.Hosts(), nil
}

// Generation returns the tenant's current generation; ok is false for an
// unknown tenant. Cached slice answers pair this with the topology
// generation to detect staleness.
func (m *Manager) Generation(id TenantID) (uint64, bool) {
	m.mu.RLock()
	t, ok := m.tenant(id)
	if !ok {
		m.mu.RUnlock()
		return 0, false
	}
	g := t.gen
	m.mu.RUnlock()
	return g, true
}

// PathGraphFor builds a controller's answer to a tenant host's path
// request, given that controller's master: the primary/backup routes
// computed inside the slice as live in master, with that live slice as the
// path graph — the tenant's TopoCache never learns anything outside its
// permission (§6.1), nor a cable master lacks. It returns the
// MsgPathResponse body and the primary and backup tag stacks (backup nil
// when there is none). The equal-cost tie-break is a pure function of
// (seed, tenant, generation, pair), so recomputing an answer over an
// unchanged master yields identical bytes.
func (m *Manager) PathGraphFor(master *topo.Topology, id TenantID, src, dst packet.MAC) (wire []byte, primary, backup packet.Path, err error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tenant(id)
	if !ok {
		return nil, nil, nil, fmt.Errorf("path graph %q: %w", id, ErrNoTenant)
	}
	if !t.Contains(src) || !t.Contains(dst) {
		return nil, nil, nil, fmt.Errorf("path graph %q: %v->%v: %w", id, src, dst, ErrForeignHost)
	}
	sat, err := t.slice.HostAt(src)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("path graph %q: %v: %w", id, src, ErrForeignHost)
	}
	dat, err := t.slice.HostAt(dst)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("path graph %q: %v: %w", id, dst, ErrForeignHost)
	}
	live := t.slice.Within(master)
	rng := rand.New(rand.NewSource(pairSeed(m.seed, id, t.gen, src, dst)))
	pr, br, err := topo.PrimaryBackup(live, sat.Switch, dat.Switch, m.opts, rng)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("path graph %q: %v->%v: %w: %v", id, src, dst, ErrNotRoutable, err)
	}
	pr[len(pr)-1].Port, br[len(br)-1].Port = dat.Port, dat.Port
	pg := &topo.PathGraph{Src: src, Dst: dst, Primary: pr.Switches(), Backup: br.Switches(), Graph: live}
	return pg.Marshal(), pr.Tags(), br.Tags(), nil
}

// VerifyRoute is the virtualization-aware path verifier: the route must
// connect two tenant hosts and every hop must cross a slice cable that
// master wires on the same two ports. A tag that resolves on master but not
// on a live slice cable is an escape (ErrOutsideSlice); a tag that resolves
// nowhere on master (a permitted cable that is down, say) crosses an unknown
// switch (ErrUnknownSwitch). An accepted route allocates nothing.
func (m *Manager) VerifyRoute(master *topo.Topology, id TenantID, src, dst packet.MAC, tags packet.Path) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.met.audits.Inc()
	t, ok := m.tenant(id)
	if !ok {
		return fmt.Errorf("verify %q: %w", id, ErrNoTenant)
	}
	if !t.Contains(src) || !t.Contains(dst) {
		return fmt.Errorf("verify %q: %v->%v: %w", id, src, dst, ErrForeignHost)
	}
	hop, at, err := topo.FollowTags(t.slice, src, dst, tags, nil)
	switch {
	case err == nil:
		if hop, at = deadHop(master, t.slice, src, tags); hop < 0 {
			return nil
		}
	case hop < 0: // the slice holds no attachment for src or dst
		return fmt.Errorf("verify %q: %v->%v: %w", id, src, dst, ErrForeignHost)
	case hop >= len(tags)-1:
		return fmt.Errorf("verify %q: route does not end at %v: %w", id, dst, ErrOutsideSlice)
	}
	// Distinguish a slice escape (the hop exists on the fabric but not in
	// the permission) from a tag into the void.
	if ep, err := master.EndpointAt(at, tags[hop]); err == nil && ep.Kind == topo.EndpointSwitch {
		return fmt.Errorf("verify %q: hop %d->%d: %w", id, at, ep.Switch, ErrOutsideSlice)
	}
	return fmt.Errorf("verify %q: tag %d at switch %d: %w", id, tags[hop], at, ErrUnknownSwitch)
}

// deadHop walks a route the slice accepts and returns its first hop whose
// cable master does not wire on the same two ports, with the switch that
// hop leaves; hop is -1 when every cable is live.
func deadHop(master *topo.Topology, slice *topo.Subgraph, src packet.MAC, tags packet.Path) (hop int, at packet.SwitchID) {
	sat, _ := slice.HostAt(src)
	at = sat.Switch
	for i, tag := range tags[:len(tags)-1] {
		far, _ := slice.CableAt(at, tag)
		if live, ok := master.CableAt(at, tag); !ok || live != far {
			return i, at
		}
		at = far.Switch
	}
	return -1, 0
}
