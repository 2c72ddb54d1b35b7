package core_test

import (
	"testing"

	"dumbnet/internal/core"
	"dumbnet/internal/topo"
)

// A frame costs one engine event per link it crosses plus its host send:
// a switch's pipeline delay and the receiving host's processing delay are
// spent on the link, not on events of their own. On a warm k=4 fat-tree a
// data wave, every host sending to a host in another pod, must process
// exactly (links crossed) + (frames sent) events.
func TestDataWaveEventsPerFrame(t *testing.T) {
	tp, err := topo.FatTree(4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.New(tp, core.WithHostFlood(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	all := append([]core.MAC{n.Ctrl.MAC()}, n.Hosts()...)
	partner := func(i int) core.MAC { return all[(i+len(all)/2)%len(all)] }
	for i := range all {
		if err := n.Agent(all[i]).WarmUp(partner(i)); err != nil {
			t.Fatal(err)
		}
	}
	n.Run()
	links := n.Fabric().Links()
	for _, m := range all {
		links = append(links, n.Fabric().HostLink(m))
	}
	count := func() (crossed, sent, events uint64) {
		for _, l := range links {
			crossed += l.StatsFrom(true).Frames + l.StatsFrom(false).Frames
		}
		for _, m := range all {
			sent += n.Agent(m).Stats().Sent
		}
		return crossed, sent, n.Engine().Processed()
	}
	payload := make([]byte, 1000)
	c0, s0, e0 := count()
	for i := range all {
		for f := 0; f < 4; f++ {
			if err := n.Send(all[i], partner(i), payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	n.Run()
	c1, s1, e1 := count()
	crossed, sent, events := c1-c0, s1-s0, e1-e0
	if drops := n.Fabric().Drops().Total(); drops != 0 {
		t.Fatalf("%d frames dropped", drops)
	}
	t.Logf("%d frames sent, %d links crossed, %d events: %.2f events per frame", sent, crossed, events, float64(events)/float64(sent))
	if sent != uint64(4*len(all)) || events != crossed+sent {
		t.Fatalf("%d frames sent, %d links crossed: %d events, want %d", sent, crossed, events, crossed+sent)
	}
}
