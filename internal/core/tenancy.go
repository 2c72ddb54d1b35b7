package core

import (
	"fmt"

	"dumbnet/internal/controller"
	"dumbnet/internal/host"
	"dumbnet/internal/vnet"
)

// Network virtualization (§6.1) wiring: the vnet.Manager is installed on
// the controller(s), and every committed tenant mutation flushes member
// host caches so no host keeps route state its new permission set no
// longer vouches for — the stale-cache escape a pre-tenancy host would
// otherwise ride into a freshly carved slice.

// applyPendingTenancy installs virtualization requested at construction
// (WithTenants) once the network has booted.
func (n *Network) applyPendingTenancy() error {
	if n.pendingTenants < 0 {
		return nil
	}
	count := n.pendingTenants
	n.pendingTenants = -1
	_, err := n.EnableTenancy(count)
	return err
}

// EnableTenancy installs a vnet.Manager over the controller's master view
// and carves the non-controller hosts into count equal tenants ("t000",
// "t001", ...), leaving any remainder hosts untenanted. count == 0 installs
// the manager with no tenants (churn drivers create them at runtime).
// Idempotent on the manager: calling again only carves more tenants.
//
// Prefer constructing with WithTenants(count), which applies this
// automatically after Bootstrap/Discover.
func (n *Network) EnableTenancy(count int) (*vnet.Manager, error) {
	if !n.booted {
		return nil, ErrNotDeployed
	}
	if n.vnet == nil {
		mgr := vnet.NewManager(n.Ctrl.Master(), n.cfg.Controller.PathGraph, n.cfg.Seed)
		mgr.SetMetrics(n.Eng.Metrics())
		mgr.OnChange = n.onTenantChange
		n.vnet = mgr
		n.installVirtualization()
	}
	if count > 0 {
		size := len(n.hosts) / count
		if size < 2 {
			return nil, fmt.Errorf("core: %d hosts cannot form %d tenants of >= 2", len(n.hosts), count)
		}
		for i := 0; i < count; i++ {
			id := vnet.TenantID(fmt.Sprintf("t%03d", i))
			members := n.hosts[i*size : (i+1)*size]
			if _, err := n.vnet.CreateTenantClass(id, members, n.tenantCls); err != nil {
				return nil, err
			}
		}
	}
	return n.vnet, nil
}

// Vnet returns the virtualization manager (nil when tenancy is off).
func (n *Network) Vnet() *vnet.Manager { return n.vnet }

// installVirtualization points every live controller at the manager — with
// replication, each replica enforces isolation so failover does not drop it.
func (n *Network) installVirtualization() {
	if n.vnet == nil {
		return
	}
	ad := vnet.ControllerAdapter{M: n.vnet}
	for _, c := range n.controllers() {
		c.SetVirtualization(ad)
	}
}

// controllers lists every controller answering for this network: the
// replica group's members, or the lone bootstrap controller.
func (n *Network) controllers() []*controller.Controller {
	if n.group != nil {
		return n.group.Controllers()
	}
	return []*controller.Controller{n.Ctrl}
}

// onTenantChange is the manager's OnChange hook: after any committed tenant
// mutation, hosts whose permission changed forget all cached route state
// (PathTable entries and non-self TopoCache attachments), and every other
// host forgets state pointing at the touched hosts. Re-queries then get
// slice-restricted (or refused) answers from the controller. A deleted
// tenant's cached answers are dropped from every controller here, as
// McastService.DeleteGroup does for trees: its keys are never probed again,
// so lazy invalidation would never reach them.
func (n *Network) onTenantChange(ch vnet.Change) {
	if ch.Kind == vnet.ChangeDelete {
		for _, c := range n.controllers() {
			c.Routes().DropTenant(string(ch.Tenant))
		}
	}
	touched := make(map[MAC]bool, len(ch.Members)+len(ch.Departed))
	for _, m := range ch.Members {
		touched[m] = true
	}
	for _, m := range ch.Departed {
		touched[m] = true
	}
	for _, m := range ch.Members {
		a := n.agents[m]
		if a == nil {
			continue
		}
		if ch.Class.Policy != "" {
			_, _ = a.UsePolicy(ch.Class.Policy)
		}
		a.SetRequestBudget(ch.Class.RequestBudget)
		n.revokeRoutes(a)
	}
	for _, m := range ch.Departed {
		a := n.agents[m]
		if a == nil {
			continue
		}
		a.SetRequestBudget(n.cfg.Host.RequestBudget) // back to the default class
		n.revokeRoutes(a)
	}
	for mac, a := range n.agents {
		if touched[mac] {
			continue
		}
		for t := range touched {
			a.Table().Invalidate(t)
			a.Cache().RemoveHost(t)
		}
	}
}

// revokeRoutes drops every cached route and learned host attachment from an
// agent whose tenant membership just changed (its own attachment stays).
func (n *Network) revokeRoutes(a *host.Agent) {
	for _, dst := range a.Table().Destinations() {
		a.Table().Invalidate(dst)
	}
	for _, at := range a.Cache().Hosts() {
		if at.Host == a.MAC() {
			continue
		}
		a.Cache().RemoveHost(at.Host)
	}
}

// crossDomain reports whether traffic between a and b crosses an isolation
// boundary: one endpoint tenanted and the other not, or different tenants.
func (n *Network) crossDomain(a, b MAC) bool {
	if n.vnet == nil {
		return false
	}
	ta, aok := n.vnet.TenantOf(a)
	tb, bok := n.vnet.TenantOf(b)
	if !aok && !bok {
		return false
	}
	return !(aok && bok && ta == tb)
}
