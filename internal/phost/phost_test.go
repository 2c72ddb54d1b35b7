package phost_test

import (
	"errors"
	"testing"

	"dumbnet/internal/core"
	"dumbnet/internal/packet"
	"dumbnet/internal/phost"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// deployPHost builds a warmed testbed with a transport on every host.
func deployPHost(t *testing.T, cfg phost.Config) (*core.Network, map[packet.MAC]*phost.Transport) {
	t.Helper()
	tp, err := topo.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.New(tp)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	// Warm all pairs so the transport never stalls on path queries.
	for _, a := range n.Hosts() {
		for _, b := range n.Hosts() {
			if a != b {
				_ = n.Agent(a).WarmUp(b)
			}
		}
	}
	n.Run()
	tr := make(map[packet.MAC]*phost.Transport, len(n.Hosts()))
	for _, m := range n.Hosts() {
		tr[m] = phost.New(n.Eng, n.Agent(m), cfg)
	}
	return n, tr
}

func TestSingleFlowCompletes(t *testing.T) {
	cfg := phost.DefaultConfig()
	n, tr := deployPHost(t, cfg)
	hosts := n.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	var dur sim.Time = -1
	const flowBytes = 2_000_000 // ~1380 packets
	if _, err := tr[src].SendFlow(dst, flowBytes, func(d sim.Time) { dur = d }); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if dur < 0 {
		t.Fatal("flow never completed")
	}
	// Receiver-paced: duration ≈ size / downlink (plus RTT overheads).
	ideal := sim.Time(float64(flowBytes*8) / cfg.DownlinkBps * 1e9)
	if dur < ideal {
		t.Fatalf("finished faster than the receiver pace: %v < %v", dur.Duration(), ideal.Duration())
	}
	if dur > ideal*3 {
		t.Fatalf("token pacing too slow: %v vs ideal %v", dur.Duration(), ideal.Duration())
	}
	st := tr[src].Stats()
	if st.DataPackets == 0 || st.FreeTokens == 0 {
		t.Fatalf("sender stats = %+v", st)
	}
	if tr[dst].Stats().TokensSent == 0 {
		t.Fatal("receiver granted no tokens")
	}
}

func TestSRPTPrefersShortFlows(t *testing.T) {
	n, tr := deployPHost(t, phost.DefaultConfig())
	dst := n.Hosts()[0]
	longSrc, shortSrc := n.Hosts()[1], n.Hosts()[2]
	var longDone, shortDone sim.Time = -1, -1
	// Start the long flow first; the short one must still finish first.
	if _, err := tr[longSrc].SendFlow(dst, 20_000_000, func(d sim.Time) { longDone = n.Eng.Now() }); err != nil {
		t.Fatal(err)
	}
	n.RunFor(100 * sim.Microsecond)
	if _, err := tr[shortSrc].SendFlow(dst, 500_000, func(d sim.Time) { shortDone = n.Eng.Now() }); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if longDone < 0 || shortDone < 0 {
		t.Fatalf("flows incomplete: long=%v short=%v", longDone, shortDone)
	}
	if shortDone >= longDone {
		t.Fatalf("SRPT violated: short finished at %v, long at %v",
			shortDone.Duration(), longDone.Duration())
	}
}

func TestManyToOneIncast(t *testing.T) {
	n, tr := deployPHost(t, phost.DefaultConfig())
	dst := n.Hosts()[0]
	done := 0
	for i := 1; i <= 8; i++ {
		src := n.Hosts()[i]
		if _, err := tr[src].SendFlow(dst, 1_000_000, func(sim.Time) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	n.Run()
	if done != 8 {
		t.Fatalf("completed %d of 8 incast flows", done)
	}
	// Receiver pacing means the fabric never dropped data for backlog.
	for _, l := range n.Fab.Links() {
		for _, fromA := range []bool{true, false} {
			if d := l.StatsFrom(fromA).Drops; d > 0 {
				t.Fatalf("incast caused %d drops despite receiver pacing", d)
			}
		}
	}
}

func TestFlowSurvivesLinkFailure(t *testing.T) {
	n, tr := deployPHost(t, phost.DefaultConfig())
	hosts := n.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	var dur sim.Time = -1
	if _, err := tr[src].SendFlow(dst, 10_000_000, func(d sim.Time) { dur = d }); err != nil {
		t.Fatal(err)
	}
	// Cut a spine link mid-flow; stage-1 failover must carry the rest.
	n.RunFor(2 * sim.Millisecond)
	srcAt, _ := n.Topo.HostAt(src)
	if err := n.Fab.FailLink(1, srcAt.Switch); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if dur < 0 {
		t.Fatal("flow did not survive the failure")
	}
}

func TestRejectsEmptyFlow(t *testing.T) {
	n, tr := deployPHost(t, phost.DefaultConfig())
	if _, err := tr[n.Hosts()[0]].SendFlow(n.Hosts()[1], 0, nil); !errors.Is(err, phost.ErrFlowTooSmall) {
		t.Fatalf("err = %v", err)
	}
}

func TestOtherTrafficChains(t *testing.T) {
	n, tr := deployPHost(t, phost.DefaultConfig())
	src, dst := n.Hosts()[0], n.Hosts()[1]
	_ = tr // transports installed on all hosts
	var got []byte
	prev := n.Agent(dst).OnData
	_ = prev
	// Plain agent data must still reach the (chained) application handler.
	n.Agent(dst).OnData = nil // reset: install transport-chained handler fresh
	tr2 := phost.New(n.Eng, n.Agent(dst), phost.DefaultConfig())
	_ = tr2
	n.Agent(dst).OnData = func(from packet.MAC, it uint16, p []byte) { got = append([]byte(nil), p...) }
	if err := n.Agent(src).SendData(dst, []byte("plain")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if string(got) != "plain" {
		t.Fatalf("plain traffic lost: %q", got)
	}
}

func TestSmallFlowWithinFreeWindow(t *testing.T) {
	// A flow smaller than the free-token window needs no tokens at all.
	cfg := phost.DefaultConfig()
	n, tr := deployPHost(t, cfg)
	src, dst := n.Hosts()[0], n.Hosts()[1]
	var dur sim.Time = -1
	if _, err := tr[src].SendFlow(dst, 2*1450, func(d sim.Time) { dur = d }); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if dur < 0 {
		t.Fatal("small flow incomplete")
	}
	if tr[dst].Stats().TokensSent != 0 {
		t.Fatalf("small flow consumed %d tokens", tr[dst].Stats().TokensSent)
	}
}
