// Network virtualization (paper §6.1): tenants get restricted topology
// views, and the path verifier rejects routes that leave a tenant's slice —
// all enforced in host software over the same dumb switches.
//
//	go run ./examples/virtualnet
package main

import (
	"fmt"
	"log"

	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
	"dumbnet/internal/vnet"
)

func main() {
	log.SetFlags(0)
	t, err := topo.Testbed()
	if err != nil {
		log.Fatal(err)
	}
	hosts := t.Hosts()
	macs := make([]packet.MAC, len(hosts))
	for i, h := range hosts {
		macs[i] = h.Host
	}

	mgr := vnet.NewManager(topo.PathGraphOptions{S: 2, Epsilon: 1}, 1)
	red, err := mgr.CreateTenant(t, "red", macs[0:6])
	if err != nil {
		log.Fatal(err)
	}
	blue, err := mgr.CreateTenant(t, "blue", macs[10:16])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fabric: %d switches total\n", t.NumSwitches())
	fmt.Printf("tenant red:  %d hosts, slice covers %d switches / %d links\n",
		len(red.Hosts()), red.Slice().NumSwitches(), red.Slice().NumLinks())
	fmt.Printf("tenant blue: %d hosts, slice covers %d switches / %d links\n",
		len(blue.Hosts()), blue.Slice().NumSwitches(), blue.Slice().NumLinks())

	// Intra-tenant routing works and verifies.
	_, tags, _, err := mgr.PathGraphFor(t, "red", macs[0], macs[5])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nred %v -> %v: path %v\n", macs[0], macs[5], tags)
	if err := mgr.VerifyRoute(t, "red", macs[0], macs[5], tags); err != nil {
		log.Fatalf("verifier rejected a legal route: %v", err)
	}
	fmt.Println("verifier: legal intra-tenant route ACCEPTED")

	// Cross-tenant routing is rejected even though the fabric could do it.
	crossTags, err := t.HostPath(macs[0], macs[10], nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := mgr.VerifyRoute(t, "red", macs[0], macs[10], crossTags); err != nil {
		fmt.Printf("verifier: cross-tenant route REJECTED (%v)\n", err)
	} else {
		log.Fatal("isolation violated!")
	}

	// A failure is cut on the topology alone: every tenant reads its slice
	// against it, so each sees the cut at once.
	before := red.Slice().Within(t).NumLinks()
	if err := t.Disconnect(1, 1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter link 1:1 failure: red live links %d -> %d\n", before, red.Slice().Within(t).NumLinks())
}
