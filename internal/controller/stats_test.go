package controller_test

import (
	"errors"
	"testing"

	"dumbnet/internal/controller"
	"dumbnet/internal/core"
	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
)

// deployForStats builds a bootstrapped testbed and pushes some traffic so
// the counters are non-zero.
func deployForStats(t *testing.T) *core.Network {
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
	hosts := n.Hosts()
	for i := 0; i < 5; i++ {
		_ = n.Agent(hosts[0]).SendData(hosts[len(hosts)-1], []byte("traffic"))
	}
	n.Run()
	return n
}

func TestQuerySwitchStats(t *testing.T) {
	n := deployForStats(t)
	for _, sw := range n.Topo.SwitchIDs() {
		var reply *packet.StatsReply
		var rerr error
		n.Ctrl.QuerySwitchStats(sw, func(r *packet.StatsReply, err error) { reply, rerr = r, err })
		n.Run()
		if rerr != nil {
			t.Fatalf("switch %d: %v", sw, rerr)
		}
		if reply.ID != sw {
			t.Fatalf("switch %d replied with ID %d", sw, reply.ID)
		}
	}
}

func TestQuerySwitchStatsCountersMatch(t *testing.T) {
	n := deployForStats(t)
	// Pick the source host's leaf: it definitely forwarded the traffic.
	at, _ := n.Topo.HostAt(n.Hosts()[0])
	var reply *packet.StatsReply
	n.Ctrl.QuerySwitchStats(at.Switch, func(r *packet.StatsReply, err error) { reply = r })
	n.Run()
	if reply == nil {
		t.Fatal("no reply")
	}
	if reply.Forwarded == 0 {
		t.Fatal("leaf switch reports zero forwarded frames")
	}
	// The snapshot must agree with the live switch counters (the stats
	// query itself adds forwarding work, so allow the live value to have
	// moved on).
	live := n.Fab.Switch(at.Switch).Stats()
	if reply.Forwarded > live.Forwarded {
		t.Fatalf("snapshot %d ahead of live %d", reply.Forwarded, live.Forwarded)
	}
}

func TestQuerySwitchStatsOwnSwitch(t *testing.T) {
	n := deployForStats(t)
	at, _ := n.Topo.HostAt(n.Ctrl.MAC())
	var reply *packet.StatsReply
	var rerr error
	n.Ctrl.QuerySwitchStats(at.Switch, func(r *packet.StatsReply, err error) { reply, rerr = r, err })
	n.Run()
	if rerr != nil || reply == nil || reply.ID != at.Switch {
		t.Fatalf("own-switch query: %+v, %v", reply, rerr)
	}
}

func TestQuerySwitchStatsUnknownSwitch(t *testing.T) {
	n := deployForStats(t)
	var rerr error
	n.Ctrl.QuerySwitchStats(999, func(r *packet.StatsReply, err error) { rerr = err })
	n.Run()
	if rerr == nil {
		t.Fatal("query to nonexistent switch succeeded")
	}
}

func TestQuerySwitchStatsTimeoutOnDeadPath(t *testing.T) {
	n := deployForStats(t)
	// Cut every path to spine 2 (links to all five leaves), then query it.
	for leaf := topo.SwitchID(3); leaf <= 7; leaf++ {
		if err := n.Fab.FailLink(2, leaf); err != nil {
			t.Fatal(err)
		}
	}
	// Keep the controller's master view stale on purpose: the query is
	// routed by the old view and must time out.
	var rerr error
	done := false
	n.Ctrl.QuerySwitchStats(2, func(r *packet.StatsReply, err error) { rerr, done = err, true })
	n.Run()
	if !done {
		t.Fatal("callback never fired")
	}
	if !errors.Is(rerr, controller.ErrStatsTimeout) && rerr == nil {
		t.Fatalf("err = %v, want timeout or routing failure", rerr)
	}
}

func TestStatsControlRoundTrip(t *testing.T) {
	req := &packet.StatsRequest{Origin: packet.MACFromUint64(3), Seq: 7}
	b, err := packet.EncodeControl(packet.MsgStatsRequest, req)
	if err != nil {
		t.Fatal(err)
	}
	typ, out, err := packet.DecodeControl(b)
	if err != nil || typ != packet.MsgStatsRequest || *out.(*packet.StatsRequest) != *req {
		t.Fatalf("request round trip: %v %v", typ, err)
	}
	rep := &packet.StatsReply{ID: 9, Seq: 7, Forwarded: 100, Dropped: 2, Marked: 3, Floods: 4}
	b, err = packet.EncodeControl(packet.MsgStatsReply, rep)
	if err != nil {
		t.Fatal(err)
	}
	typ, out, err = packet.DecodeControl(b)
	if err != nil || typ != packet.MsgStatsReply || *out.(*packet.StatsReply) != *rep {
		t.Fatalf("reply round trip: %v %v", typ, err)
	}
}
