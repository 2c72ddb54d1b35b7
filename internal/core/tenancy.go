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

// bootTenancy applies WithTenants(count) at boot: a vnet.Manager, and the
// non-controller hosts carved, over the controller's master, into count
// equal tenants ("t000", "t001", ...), leaving any remainder hosts
// untenanted. count == 0 installs the manager alone (churn drivers create
// tenants at runtime); count < 0 leaves virtualization off.
func (n *Network) bootTenancy(count int) error {
	if count < 0 {
		return nil
	}
	n.vnet = vnet.NewManager(controller.PathGraphOptions(), n.cfg.Seed)
	n.vnet.SetMetrics(n.Eng.Metrics())
	n.vnet.OnChange = n.onTenantChange
	n.installVirtualization()
	if count == 0 {
		return nil
	}
	size := len(n.hosts) / count
	if size < 2 {
		return fmt.Errorf("core: %d hosts cannot form %d tenants of >= 2", len(n.hosts), count)
	}
	for i := 0; i < count; i++ {
		id := vnet.TenantID(fmt.Sprintf("t%03d", i))
		if _, err := n.vnet.CreateTenant(n.Ctrl.Master(), id, n.hosts[i*size:(i+1)*size]); err != nil {
			return err
		}
	}
	return nil
}

// Vnet returns the virtualization manager (nil when tenancy is off).
func (n *Network) Vnet() *vnet.Manager { return n.vnet }

// installVirtualization points every live controller at the manager — with
// replication, each replica enforces isolation so failover does not drop it.
func (n *Network) installVirtualization() {
	if n.vnet == nil {
		return
	}
	for _, c := range n.controllers() {
		c.SetVirtualization(n.vnet)
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
	for _, macs := range [2][]MAC{ch.Members, ch.Departed} {
		for _, m := range macs {
			touched[m] = true
			if a := n.Agent(m); a != nil {
				n.revokeRoutes(a)
			}
		}
	}
	for _, r := range n.recs {
		if touched[r.agent.MAC()] {
			continue
		}
		for t := range touched {
			r.agent.Table().Invalidate(t)
			r.agent.Cache().RemoveHost(t)
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
