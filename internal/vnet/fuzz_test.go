package vnet

import (
	"testing"

	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
)

// FuzzVerifyTenantRoute drives VerifyRoute with arbitrary tag stacks and
// endpoint picks. The property under test is one-sided soundness: any route
// the verifier ADMITS must, replayed hop by hop over the master topology,
// touch only switches present in the tenant's view and terminate exactly at
// the destination host. (Rejections are always safe; a false accept is an
// isolation hole.)
func FuzzVerifyTenantRoute(f *testing.F) {
	tp, err := topo.Testbed()
	if err != nil {
		f.Fatal(err)
	}
	m := NewManager(tp, topo.PathGraphOptions{}, 1)
	hosts := tp.Hosts()
	macs := make([]packet.MAC, 0, len(hosts))
	for _, h := range hosts {
		macs = append(macs, h.Host)
	}
	ten, err := m.CreateTenant("a", macs[0:6])
	if err != nil {
		f.Fatal(err)
	}

	// Seed with a genuine in-slice route and a few junk stacks.
	if _, tags, _, err := m.PathGraphFor("a", macs[0], macs[5]); err == nil {
		f.Add(uint8(0), uint8(5), []byte(tagBytes(tags)))
	}
	f.Add(uint8(0), uint8(3), []byte{60, 61, 62})
	f.Add(uint8(1), uint8(2), []byte{})
	f.Add(uint8(2), uint8(0), []byte{0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, si, di uint8, raw []byte) {
		if len(raw) > 32 {
			return
		}
		src := macs[int(si)%len(macs)]
		dst := macs[int(di)%len(macs)]
		tags := make(packet.Path, len(raw))
		for i, b := range raw {
			tags[i] = packet.Tag(b)
		}
		if err := m.VerifyRoute("a", src, dst, tags); err != nil {
			return // rejection is always safe
		}
		// Admitted: both endpoints must be members...
		if !ten.Contains(src) || !ten.Contains(dst) {
			t.Fatalf("admitted route between non-members %v -> %v", src, dst)
		}
		// ...and the replayed walk must stay inside the view.
		at, err := tp.HostAt(src)
		if err != nil {
			t.Fatal(err)
		}
		cur := at.Switch
		for i, tag := range tags {
			if !ten.View().HasSwitch(cur) {
				t.Fatalf("admitted route visits switch %d outside the slice (tags %v)", cur, tags)
			}
			ep, err := tp.EndpointAt(cur, topo.Port(tag))
			if err != nil {
				t.Fatalf("admitted route has unresolvable tag %d at switch %d", tag, cur)
			}
			if i == len(tags)-1 {
				if ep.Kind != topo.EndpointHost || ep.Host != dst {
					t.Fatalf("admitted route does not terminate at %v (tags %v)", dst, tags)
				}
				return
			}
			if ep.Kind != topo.EndpointSwitch {
				t.Fatalf("admitted route leaves the fabric mid-path (tags %v)", tags)
			}
			cur = ep.Switch
		}
	})
}

func tagBytes(p packet.Path) []byte {
	out := make([]byte, len(p))
	for i, t := range p {
		out[i] = byte(t)
	}
	return out
}
