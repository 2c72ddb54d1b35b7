// Package vnet implements DumbNet's network-virtualization extension
// (paper §6.1): tenants receive restricted topology views — the TopoCache
// "reveals partial or entire network topology based on permission" — and a
// path verifier rejects routes that leave a tenant's slice or touch foreign
// hosts, "to prevent malicious applications from violating the separation".
//
// The Manager is a full tenant-lifecycle service, safe for concurrent
// controller access: tenants are created, deleted, resized and migrated
// mid-run; every mutation bumps the tenant's generation counter so cached
// slice answers are detectable as stale; and the as-built slice is kept as
// a baseline ceiling, so link heals repair a degraded view without ever
// widening it beyond its original permission.
package vnet

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
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

// Class is a tenant's degradation/rate class: the routing policy and the
// per-controller path-query retry budget installed on its member hosts.
// Zero fields mean "leave the host default in place".
type Class struct {
	// Policy names a registered host routing policy (host.PolicyNames).
	Policy string
	// RequestBudget overrides the hosts' path-query retry budget.
	RequestBudget int
}

// Change kinds reported through Manager.OnChange.
const (
	ChangeCreate  = "create"
	ChangeDelete  = "delete"
	ChangeMigrate = "migrate"
	ChangeResize  = "resize"
)

// Change describes one committed tenant mutation. Members is the
// post-change membership (nil after delete) and Departed lists hosts that
// left the tenant in this mutation; both are MAC-sorted.
type Change struct {
	Kind     string
	Tenant   TenantID
	Gen      uint64
	Members  []packet.MAC
	Departed []packet.MAC
	Class    Class
}

// Tenant is one virtual network slice.
type Tenant struct {
	ID    TenantID
	hosts map[packet.MAC]bool
	// view is the tenant's current slice, patched down by link failures and
	// repaired (never widened) by heals.
	view *topo.Subgraph
	// baseline is the as-built slice: the permission ceiling. The isolation
	// invariant is view ⊆ baseline at all times.
	baseline *topo.Subgraph
	// gen counts slice mutations (lifecycle and link events); cached
	// answers carry the gen they were computed under.
	gen   uint64
	class Class
}

// Hosts lists the tenant's member MACs in MAC order.
func (t *Tenant) Hosts() []packet.MAC { return sortedMACs(t.hosts) }

// Contains reports membership.
func (t *Tenant) Contains(m packet.MAC) bool { return t.hosts[m] }

// View returns the tenant's topology slice — what its applications may see.
func (t *Tenant) View() *topo.Subgraph { return t.view }

// Baseline returns the as-built slice (the permission ceiling).
func (t *Tenant) Baseline() *topo.Subgraph { return t.baseline }

// Generation returns the tenant's mutation counter.
func (t *Tenant) Generation() uint64 { return t.gen }

// Class returns the tenant's degradation class.
func (t *Tenant) Class() Class { return t.class }

func sortedMACs(set map[packet.MAC]bool) []packet.MAC {
	out := make([]packet.MAC, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

// managerMetrics are the vnet.* instruments. They default to standalone
// holders so an unwired Manager costs nothing; SetMetrics rebinds them into
// a shared registry.
type managerMetrics struct {
	tenants    *trace.Gauge
	creates    *trace.Counter
	deletes    *trace.Counter
	migrates   *trace.Counter
	resizes    *trace.Counter
	repairs    *trace.Counter
	audits     *trace.Counter
	violations *trace.Counter
}

func standaloneMetrics() managerMetrics {
	return managerMetrics{
		tenants: &trace.Gauge{}, creates: &trace.Counter{}, deletes: &trace.Counter{},
		migrates: &trace.Counter{}, resizes: &trace.Counter{}, repairs: &trace.Counter{},
		audits: &trace.Counter{}, violations: &trace.Counter{},
	}
}

// Manager carves tenant views out of a master topology. It lives beside
// the controller; the controller consults it when answering path requests
// from tenant-tagged hosts. All methods are safe for concurrent use.
type Manager struct {
	mu      sync.RWMutex
	master  *topo.Topology
	opts    topo.PathGraphOptions
	seed    int64
	tenants map[TenantID]*Tenant
	byHost  map[packet.MAC]TenantID
	// nextGen is a manager-wide monotonic counter: a recreated tenant never
	// reuses an old (tenant, gen) pair, so cache keys cannot alias across
	// delete/create cycles.
	nextGen uint64
	met     managerMetrics

	// OnChange, when set, observes every committed tenant mutation. It is
	// called outside the manager lock, after the mutation took effect — the
	// deployment layer uses it to flush member host caches and apply
	// degradation classes. Set it before the first mutation.
	OnChange func(Change)
}

// NewManager creates a manager over the master view. The seed drives every
// equal-cost tie-break deterministically: slice construction and per-pair
// route answers are pure functions of (seed, tenant, generation, pair), so
// the same seed reproduces identical slices regardless of call interleaving.
func NewManager(master *topo.Topology, opts topo.PathGraphOptions, seed int64) *Manager {
	return &Manager{
		master:  master,
		opts:    opts,
		seed:    seed,
		tenants: make(map[TenantID]*Tenant),
		byHost:  make(map[packet.MAC]TenantID),
		met:     standaloneMetrics(),
	}
}

// SetMetrics binds the manager's vnet.* instruments into a registry.
func (m *Manager) SetMetrics(reg *trace.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.met = managerMetrics{
		tenants:    reg.Gauge("vnet.tenants"),
		creates:    reg.Counter("vnet.creates"),
		deletes:    reg.Counter("vnet.deletes"),
		migrates:   reg.Counter("vnet.migrates"),
		resizes:    reg.Counter("vnet.resizes"),
		repairs:    reg.Counter("vnet.slice_repairs"),
		audits:     reg.Counter("vnet.isolation_audits"),
		violations: reg.Counter("vnet.audit_violations"),
	}
	m.met.tenants.Set(float64(len(m.tenants)))
}

// SetMaster re-points the manager at a new master object (the controller's
// view is replaced wholesale when a replicated snapshot applies).
func (m *Manager) SetMaster(t *topo.Topology) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.master = t
}

// tenantSeed mixes the manager seed with a tenant identity and generation
// (FNV-1a plus splitmix-style avalanche).
func tenantSeed(seed int64, id TenantID, gen uint64) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * 1099511628211
	}
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
	h := tenantSeed(seed, id, gen)
	for _, b := range src {
		h = (h ^ uint64(b)) * 1099511628211
	}
	for _, b := range dst {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return int64(h)
}

// buildSlice computes the union of path graphs between every member pair:
// members can reach each other with detour headroom but see nothing else.
func (m *Manager) buildSlice(id TenantID, gen uint64, hosts []packet.MAC) (*topo.Subgraph, error) {
	view := topo.NewSubgraph()
	rng := rand.New(rand.NewSource(int64(tenantSeed(m.seed, id, gen))))
	for i := 0; i < len(hosts); i++ {
		for j := i + 1; j < len(hosts); j++ {
			pg, err := topo.BuildPathGraph(m.master, hosts[i], hosts[j], m.opts, rng)
			if err != nil {
				return nil, fmt.Errorf("%w: %v<->%v: %v", ErrNotRoutable, hosts[i], hosts[j], err)
			}
			view.Merge(pg.Graph)
		}
	}
	return view, nil
}

// notify fires the change hook outside the lock.
func (m *Manager) notify(ch Change) {
	if m.OnChange != nil {
		m.OnChange(ch)
	}
}

// CreateTenant builds a slice covering the given hosts. Hosts already owned
// by another tenant are rejected (a host joins at most one tenant).
func (m *Manager) CreateTenant(id TenantID, hosts []packet.MAC) (*Tenant, error) {
	return m.CreateTenantClass(id, hosts, Class{})
}

// CreateTenantClass is CreateTenant with a degradation class attached.
func (m *Manager) CreateTenantClass(id TenantID, hosts []packet.MAC, class Class) (*Tenant, error) {
	m.mu.Lock()
	if _, ok := m.tenants[id]; ok {
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
	members := append([]packet.MAC(nil), hosts...)
	sort.Slice(members, func(i, j int) bool { return bytes.Compare(members[i][:], members[j][:]) < 0 })
	m.nextGen++
	gen := m.nextGen
	view, err := m.buildSlice(id, gen, members)
	if err != nil {
		m.nextGen-- // nothing committed
		m.mu.Unlock()
		return nil, fmt.Errorf("create %q: %w", id, err)
	}
	t := &Tenant{ID: id, hosts: make(map[packet.MAC]bool, len(members)),
		view: view, baseline: view.Clone(), gen: gen, class: class}
	for _, h := range members {
		t.hosts[h] = true
		m.byHost[h] = id
	}
	m.tenants[id] = t
	m.met.creates.Inc()
	m.met.tenants.Set(float64(len(m.tenants)))
	ch := Change{Kind: ChangeCreate, Tenant: id, Gen: gen, Members: members, Class: class}
	m.mu.Unlock()
	m.notify(ch)
	return t, nil
}

// DeleteTenant removes a slice and every index entry pointing at it.
func (m *Manager) DeleteTenant(id TenantID) error {
	m.mu.Lock()
	t, ok := m.tenants[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("delete %q: %w", id, ErrNoTenant)
	}
	departed := sortedMACs(t.hosts)
	for _, h := range departed {
		if m.byHost[h] == id {
			delete(m.byHost, h)
		}
	}
	delete(m.tenants, id)
	m.nextGen++
	m.met.deletes.Inc()
	m.met.tenants.Set(float64(len(m.tenants)))
	ch := Change{Kind: ChangeDelete, Tenant: id, Gen: m.nextGen, Departed: departed, Class: t.class}
	m.mu.Unlock()
	m.notify(ch)
	return nil
}

// MigrateHost replaces one member with another (the VM moved): the slice is
// rebuilt around the new membership atomically — a failed rebuild leaves the
// tenant untouched.
func (m *Manager) MigrateHost(id TenantID, from, to packet.MAC) error {
	m.mu.Lock()
	t, ok := m.tenants[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("migrate %q: %w", id, ErrNoTenant)
	}
	if !t.hosts[from] {
		m.mu.Unlock()
		return fmt.Errorf("migrate %q: %v: %w", id, from, ErrForeignHost)
	}
	if owner, ok := m.byHost[to]; ok {
		m.mu.Unlock()
		return fmt.Errorf("migrate %q: host %v owned by %q: %w", id, to, owner, ErrHostOwned)
	}
	members := make([]packet.MAC, 0, len(t.hosts))
	for h := range t.hosts {
		if h != from {
			members = append(members, h)
		}
	}
	members = append(members, to)
	sort.Slice(members, func(i, j int) bool { return bytes.Compare(members[i][:], members[j][:]) < 0 })
	gen := m.nextGen + 1
	view, err := m.buildSlice(id, gen, members)
	if err != nil {
		m.mu.Unlock()
		return fmt.Errorf("migrate %q: %w", id, err)
	}
	m.nextGen = gen
	delete(t.hosts, from)
	delete(m.byHost, from)
	t.hosts[to] = true
	m.byHost[to] = id
	t.view = view
	t.baseline = view.Clone()
	t.gen = gen
	m.met.migrates.Inc()
	ch := Change{Kind: ChangeMigrate, Tenant: id, Gen: gen, Members: members,
		Departed: []packet.MAC{from}, Class: t.class}
	m.mu.Unlock()
	m.notify(ch)
	return nil
}

// ResizeTenant replaces the tenant's membership wholesale (grow or shrink).
// Like MigrateHost it is atomic: a failed rebuild leaves the tenant as it
// was.
func (m *Manager) ResizeTenant(id TenantID, hosts []packet.MAC) error {
	m.mu.Lock()
	t, ok := m.tenants[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("resize %q: %w", id, ErrNoTenant)
	}
	if len(hosts) < 2 {
		m.mu.Unlock()
		return fmt.Errorf("resize %q: %w", id, ErrTooFewHosts)
	}
	for _, h := range hosts {
		if owner, ok := m.byHost[h]; ok && owner != id {
			m.mu.Unlock()
			return fmt.Errorf("resize %q: host %v owned by %q: %w", id, h, owner, ErrHostOwned)
		}
	}
	members := append([]packet.MAC(nil), hosts...)
	sort.Slice(members, func(i, j int) bool { return bytes.Compare(members[i][:], members[j][:]) < 0 })
	gen := m.nextGen + 1
	view, err := m.buildSlice(id, gen, members)
	if err != nil {
		m.mu.Unlock()
		return fmt.Errorf("resize %q: %w", id, err)
	}
	m.nextGen = gen
	keep := make(map[packet.MAC]bool, len(members))
	for _, h := range members {
		keep[h] = true
	}
	var departed []packet.MAC
	for h := range t.hosts {
		if !keep[h] {
			departed = append(departed, h)
			delete(m.byHost, h)
		}
	}
	sort.Slice(departed, func(i, j int) bool { return bytes.Compare(departed[i][:], departed[j][:]) < 0 })
	t.hosts = keep
	for _, h := range members {
		m.byHost[h] = id
	}
	t.view = view
	t.baseline = view.Clone()
	t.gen = gen
	m.met.resizes.Inc()
	ch := Change{Kind: ChangeResize, Tenant: id, Gen: gen, Members: members,
		Departed: departed, Class: t.class}
	m.mu.Unlock()
	m.notify(ch)
	return nil
}

// SetClass updates a tenant's degradation class and reports it through
// OnChange so the deployment layer re-applies it to member hosts.
func (m *Manager) SetClass(id TenantID, class Class) error {
	m.mu.Lock()
	t, ok := m.tenants[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("class %q: %w", id, ErrNoTenant)
	}
	t.class = class
	ch := Change{Kind: ChangeResize, Tenant: id, Gen: t.gen, Members: sortedMACs(t.hosts), Class: class}
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

// Tenant returns a tenant by ID.
func (m *Manager) Tenant(id TenantID) (*Tenant, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tenants[id]
	if !ok {
		return nil, ErrNoTenant
	}
	return t, nil
}

// Tenants lists the current tenant IDs in sorted order.
func (m *Manager) Tenants() []TenantID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]TenantID, 0, len(m.tenants))
	for id := range m.tenants {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
	t, ok := m.tenants[id]
	if !ok {
		return nil, ErrNoTenant
	}
	return sortedMACs(t.hosts), nil
}

// Generation returns the tenant's current generation; ok is false for an
// unknown tenant. Cached slice answers pair this with the topology
// generation to detect staleness.
func (m *Manager) Generation(id TenantID) (uint64, bool) {
	m.mu.RLock()
	t, ok := m.tenants[id]
	if !ok {
		m.mu.RUnlock()
		return 0, false
	}
	g := t.gen
	m.mu.RUnlock()
	return g, true
}

// PathGraphFor builds the controller's answer to a tenant host's path
// request: the primary/backup routes computed inside the slice, with the
// slice itself as the cached subgraph — the tenant's TopoCache never learns
// anything outside its permission (§6.1). The equal-cost tie-break is a
// pure function of (seed, tenant, generation, pair), so recomputing an
// answer yields identical bytes until the slice actually changes.
func (m *Manager) PathGraphFor(id TenantID, src, dst packet.MAC) (*topo.PathGraph, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tenants[id]
	if !ok {
		return nil, fmt.Errorf("path graph %q: %w", id, ErrNoTenant)
	}
	if !t.hosts[src] || !t.hosts[dst] {
		return nil, fmt.Errorf("path graph %q: %v->%v: %w", id, src, dst, ErrForeignHost)
	}
	sat, err := t.view.HostAt(src)
	if err != nil {
		return nil, fmt.Errorf("path graph %q: %v: %w", id, src, ErrForeignHost)
	}
	dat, err := t.view.HostAt(dst)
	if err != nil {
		return nil, fmt.Errorf("path graph %q: %v: %w", id, dst, ErrForeignHost)
	}
	rng := rand.New(rand.NewSource(pairSeed(m.seed, id, t.gen, src, dst)))
	primary, backup, err := topo.PrimaryBackup(t.view, sat.Switch, dat.Switch, m.opts, rng)
	if err != nil {
		return nil, fmt.Errorf("path graph %q: %v->%v: %w: %v", id, src, dst, ErrNotRoutable, err)
	}
	return &topo.PathGraph{Src: src, Dst: dst, Primary: primary, Backup: backup, Graph: t.view.Clone()}, nil
}

// PathFor computes a route for a tenant flow inside the slice.
func (m *Manager) PathFor(id TenantID, src, dst packet.MAC) (packet.Path, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tenants[id]
	if !ok {
		return nil, fmt.Errorf("path %q: %w", id, ErrNoTenant)
	}
	if !t.hosts[src] || !t.hosts[dst] {
		return nil, fmt.Errorf("path %q: %v->%v: %w", id, src, dst, ErrForeignHost)
	}
	rng := rand.New(rand.NewSource(pairSeed(m.seed, id, t.gen, src, dst)))
	return t.view.HostPath(src, dst, rng)
}

// VerifyRoute is the virtualization-aware path verifier: the route must
// connect two tenant hosts and every hop must stay inside the tenant's
// slice. A tag that resolves on the master view but not in the slice is an
// escape (ErrOutsideSlice); a tag that resolves nowhere crosses an unknown
// switch (ErrUnknownSwitch).
func (m *Manager) VerifyRoute(id TenantID, src, dst packet.MAC, tags packet.Path) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.met.audits.Inc()
	t, ok := m.tenants[id]
	if !ok {
		return fmt.Errorf("verify %q: %w", id, ErrNoTenant)
	}
	if !t.hosts[src] || !t.hosts[dst] {
		return fmt.Errorf("verify %q: %v->%v: %w", id, src, dst, ErrForeignHost)
	}
	sat, err := t.view.HostAt(src)
	if err != nil {
		return fmt.Errorf("verify %q: %v: %w", id, src, ErrForeignHost)
	}
	dat, err := t.view.HostAt(dst)
	if err != nil {
		return fmt.Errorf("verify %q: %v: %w", id, dst, ErrForeignHost)
	}
	cur := sat.Switch
	for i, tag := range tags {
		if i == len(tags)-1 {
			if cur == dat.Switch && tag == dat.Port {
				return nil
			}
			return fmt.Errorf("verify %q: final tag at switch %d: %w", id, cur, ErrOutsideSlice)
		}
		next := packet.SwitchID(0)
		found := false
		for _, nb := range t.view.Neighbors(cur) {
			if nb.Port == tag {
				next, found = nb.Sw, true
				break
			}
		}
		if !found {
			// Distinguish a slice escape (the hop exists on the fabric but
			// not in the permission) from a tag into the void.
			if ep, err := m.master.EndpointAt(cur, topo.Port(tag)); err == nil && ep.Kind == topo.EndpointSwitch {
				return fmt.Errorf("verify %q: hop %d->%d: %w", id, cur, ep.Switch, ErrOutsideSlice)
			}
			return fmt.Errorf("verify %q: tag %d at switch %d: %w", id, tag, cur, ErrUnknownSwitch)
		}
		cur = next
	}
	return fmt.Errorf("verify %q: route ends mid-fabric: %w", id, ErrOutsideSlice)
}

// ApplyLinkDown patches every tenant view after a failure, mirroring the
// host-side stage-1 cache patch. Affected tenants' generations bump so
// cached answers invalidate. Idempotent: replicated controllers may each
// report the same failure.
func (m *Manager) ApplyLinkDown(sw packet.SwitchID, port topo.Port) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.sortedTenantsLocked() {
		if t.view.RemoveEdgeByPort(sw, port) {
			m.nextGen++
			t.gen = m.nextGen
		}
	}
}

// ApplyLinkUp repairs tenant views after a heal: the edge is restored to
// every view whose baseline contains it with the same port numbering —
// repair without widening. Idempotent.
func (m *Manager) ApplyLinkUp(a packet.SwitchID, pa topo.Port, b packet.SwitchID, pb topo.Port) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.sortedTenantsLocked() {
		if _, err := t.view.PortToward(a, b); err == nil {
			continue // already present
		}
		bpa, err := t.baseline.PortToward(a, b)
		if err != nil || bpa != pa {
			continue // never part of this slice (or renumbered)
		}
		bpb, err := t.baseline.PortToward(b, a)
		if err != nil || bpb != pb {
			continue
		}
		t.view.AddEdge(a, pa, b, pb)
		m.nextGen++
		t.gen = m.nextGen
		m.met.repairs.Inc()
	}
}

// ApplySwitchDown removes a dead switch from every tenant view.
func (m *Manager) ApplySwitchDown(sw packet.SwitchID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.sortedTenantsLocked() {
		if t.view.HasSwitch(sw) {
			t.view.RemoveSwitch(sw)
			m.nextGen++
			t.gen = m.nextGen
		}
	}
}

// sortedTenantsLocked returns tenants in ID order so generation assignment
// is deterministic (callers hold mu).
func (m *Manager) sortedTenantsLocked() []*Tenant {
	ids := make([]string, 0, len(m.tenants))
	for id := range m.tenants {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	out := make([]*Tenant, len(ids))
	for i, id := range ids {
		out[i] = m.tenants[TenantID(id)]
	}
	return out
}

// AuditViews checks the never-widen invariant for every tenant: each view
// edge and host attachment must exist in the as-built baseline with the
// same port numbering. Returns human-readable violations (empty = clean).
func (m *Manager) AuditViews() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for _, t := range m.sortedTenantsLocked() {
		m.met.audits.Inc()
		for _, sw := range t.view.SwitchIDs() {
			for _, nb := range t.view.Neighbors(sw) {
				p, err := t.baseline.PortToward(sw, nb.Sw)
				if err != nil {
					out = append(out, fmt.Sprintf("tenant %s: view edge %d->%d outside baseline", t.ID, sw, nb.Sw))
					continue
				}
				if p != nb.Port {
					out = append(out, fmt.Sprintf("tenant %s: view edge %d->%d port %d, baseline says %d", t.ID, sw, nb.Sw, nb.Port, p))
				}
			}
		}
		for _, at := range t.view.Hosts() {
			bat, err := t.baseline.HostAt(at.Host)
			if err != nil || bat != at {
				out = append(out, fmt.Sprintf("tenant %s: view host %v outside baseline", t.ID, at.Host))
			}
		}
	}
	if len(out) > 0 {
		m.met.violations.Add(uint64(len(out)))
	}
	return out
}

// ControllerAdapter adapts a Manager to the controller's Virtualizer
// interface (which uses plain strings to avoid an import cycle). It also
// satisfies the controller's topology-sink interface so applied patches
// propagate into tenant views.
type ControllerAdapter struct{ M *Manager }

// TenantOf implements controller.Virtualizer.
func (a ControllerAdapter) TenantOf(h packet.MAC) (string, bool) {
	id, ok := a.M.TenantOf(h)
	return string(id), ok
}

// PathGraphFor implements controller.Virtualizer.
func (a ControllerAdapter) PathGraphFor(tenant string, src, dst packet.MAC) (*topo.PathGraph, error) {
	return a.M.PathGraphFor(TenantID(tenant), src, dst)
}

// TenantGeneration implements controller.Virtualizer.
func (a ControllerAdapter) TenantGeneration(tenant string) (uint64, bool) {
	return a.M.Generation(TenantID(tenant))
}

// VerifyTenantRoute implements controller.Virtualizer.
func (a ControllerAdapter) VerifyTenantRoute(tenant string, src, dst packet.MAC, tags packet.Path) error {
	return a.M.VerifyRoute(TenantID(tenant), src, dst, tags)
}

// ApplyLinkDown implements the controller's topology sink.
func (a ControllerAdapter) ApplyLinkDown(sw packet.SwitchID, port topo.Port) {
	a.M.ApplyLinkDown(sw, port)
}

// ApplyLinkUp implements the controller's topology sink.
func (a ControllerAdapter) ApplyLinkUp(x packet.SwitchID, px topo.Port, y packet.SwitchID, py topo.Port) {
	a.M.ApplyLinkUp(x, px, y, py)
}

// ApplySwitchDown implements the controller's topology sink.
func (a ControllerAdapter) ApplySwitchDown(sw packet.SwitchID) {
	a.M.ApplySwitchDown(sw)
}
