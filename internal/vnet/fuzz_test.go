package vnet

import (
	"testing"

	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
)

// FuzzVerifyTenantRoute drives VerifyRoute with arbitrary tag stacks and
// endpoint picks, each against a master with one cable (or none) cut and
// healed again afterwards. The property under test is one-sided soundness:
// any route the verifier ADMITS must, replayed hop by hop over the cut
// master, cross only slice cables and terminate exactly at the destination
// host. (Rejections are always safe; a false accept is an isolation hole.)
func FuzzVerifyTenantRoute(f *testing.F) {
	tp, err := topo.Testbed()
	if err != nil {
		f.Fatal(err)
	}
	m := NewManager(topo.PathGraphOptions{}, 1)
	hosts := tp.Hosts()
	macs := make([]packet.MAC, 0, len(hosts))
	for _, h := range hosts {
		macs = append(macs, h.Host)
	}
	ten, err := m.CreateTenant(tp, "a", macs[0:6])
	if err != nil {
		f.Fatal(err)
	}
	links := tp.Links()

	// Seed with a genuine in-slice route and a few junk stacks.
	if _, tags, _, err := m.PathGraphFor(tp, "a", macs[0], macs[5]); err == nil {
		f.Add(uint8(0), uint8(5), uint8(len(links)), []byte(tagBytes(tags)))
		f.Add(uint8(0), uint8(5), uint8(0), []byte(tagBytes(tags)))
	}
	f.Add(uint8(0), uint8(3), uint8(1), []byte{60, 61, 62})
	f.Add(uint8(1), uint8(2), uint8(2), []byte{})
	f.Add(uint8(2), uint8(0), uint8(3), []byte{0, 0, 0, 0, 0, 0, 0, 0}) // ID-query tags

	f.Fuzz(func(t *testing.T, si, di, cut uint8, raw []byte) {
		if len(raw) > 32 {
			return
		}
		if c := int(cut); c < len(links) {
			l := links[c]
			if err := tp.Disconnect(l.A, l.PA); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := tp.Connect(l.A, l.PA, l.B, l.PB); err != nil {
					t.Fatal(err)
				}
			}()
		}
		src := macs[int(si)%len(macs)]
		dst := macs[int(di)%len(macs)]
		tags := make(packet.Path, len(raw))
		for i, b := range raw {
			tags[i] = packet.Tag(b)
		}
		if err := m.VerifyRoute(tp, "a", src, dst, tags); err != nil {
			return // rejection is always safe
		}
		// Admitted: both endpoints must be members...
		if !ten.Contains(src) || !ten.Contains(dst) {
			t.Fatalf("admitted route between non-members %v -> %v", src, dst)
		}
		// ...and the replayed walk must cross only slice cables.
		at, err := tp.HostAt(src)
		if err != nil {
			t.Fatal(err)
		}
		cur := at.Switch
		for i, tag := range tags {
			if !ten.Slice().HasSwitch(cur) {
				t.Fatalf("admitted route visits switch %d outside the slice (tags %v)", cur, tags)
			}
			if far, ok := tp.CableAt(cur, tag); ok {
				if in, _ := ten.Slice().CableAt(cur, tag); in != far {
					t.Fatalf("admitted route crosses %d:%d, a cable outside the slice (tags %v)", cur, tag, tags)
				}
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
