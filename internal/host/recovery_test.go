package host_test

import (
	"fmt"
	"testing"

	"dumbnet/internal/host"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// Tests for the recovery-hardening machinery: link-event dedup under
// duplicated / out-of-order / missing events, the bounded dedup set,
// exponential path-request backoff with a retry budget, controller
// failover via the advertised replica list, and blackhole detection.

// soloAgent builds a bare agent with no uplink: control frames are
// injected directly through Receive, the wire-ingress entry point.
func soloAgent(t *testing.T, cfg host.Config) (*sim.Engine, *host.Agent) {
	t.Helper()
	eng := sim.NewEngine(1)
	a := host.New(eng, packet.MACFromUint64(1), cfg)
	a.SetBootstrap(topo.HostAttach{Host: a.MAC(), Switch: 1, Port: 1},
		packet.MACFromUint64(99), packet.Path{1})
	return eng, a
}

// injectControl encodes a control message as a tag-less frame and feeds it
// to the agent as if it had arrived on the uplink.
func injectControl(t *testing.T, eng *sim.Engine, a *host.Agent, mt packet.MsgType, msg any) {
	t.Helper()
	body, err := packet.EncodeControl(mt, msg)
	if err != nil {
		t.Fatal(err)
	}
	f := &packet.Frame{Dst: a.MAC(), Src: packet.MACFromUint64(77),
		InnerType: packet.EtherTypeControl, Payload: body}
	buf, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	a.Receive(0, buf)
	eng.Run()
}

func TestLinkEventDuplicateOutOfOrderMissing(t *testing.T) {
	cfg := host.DefaultConfig()
	cfg.DisableHostFlood = true
	eng, a := soloAgent(t, cfg)
	ev := func(seq uint64, up bool) *packet.LinkEvent {
		return &packet.LinkEvent{Switch: 3, Port: 2, Seq: seq, Up: up}
	}
	// A fresh event is applied.
	injectControl(t, eng, a, packet.MsgLinkEvent, ev(5, false))
	if st := a.Stats(); st.EventsSeen != 1 || st.EventsDup != 0 {
		t.Fatalf("after first event: %+v", st)
	}
	// An exact duplicate (switch broadcast + host flood both arriving) is
	// suppressed.
	injectControl(t, eng, a, packet.MsgLinkEvent, ev(5, false))
	if st := a.Stats(); st.EventsSeen != 1 || st.EventsDup != 1 {
		t.Fatalf("duplicate not suppressed: %+v", st)
	}
	// An out-of-order older event is still distinct — reordering must not
	// alias onto newer events.
	injectControl(t, eng, a, packet.MsgLinkEvent, ev(3, false))
	if st := a.Stats(); st.EventsSeen != 2 {
		t.Fatalf("out-of-order event dropped: %+v", st)
	}
	// A gap in the sequence (lost intermediate events) does not wedge
	// processing.
	injectControl(t, eng, a, packet.MsgLinkEvent, ev(9, false))
	if st := a.Stats(); st.EventsSeen != 3 {
		t.Fatalf("post-gap event dropped: %+v", st)
	}
	// Direction is part of the identity: up and down with the same seq are
	// different events.
	injectControl(t, eng, a, packet.MsgLinkEvent, ev(9, true))
	if st := a.Stats(); st.EventsSeen != 4 {
		t.Fatalf("up event aliased onto down event: %+v", st)
	}
}

func TestSeenEventsFIFOEviction(t *testing.T) {
	cfg := host.DefaultConfig()
	cfg.DisableHostFlood = true
	eng, a := soloAgent(t, cfg)
	last := uint64(host.MaxSeenEvents + 6)
	for seq := uint64(1); seq <= last; seq++ {
		injectControl(t, eng, a, packet.MsgLinkEvent,
			&packet.LinkEvent{Switch: 3, Port: 2, Seq: seq, Up: false})
	}
	st := a.Stats()
	if st.EventsSeen != last {
		t.Fatalf("EventsSeen = %d, want %d", st.EventsSeen, last)
	}
	if st.EventsEvicted != 6 {
		t.Fatalf("EventsEvicted = %d, want 6", st.EventsEvicted)
	}
	// The oldest entries were evicted: replaying seq 1 is treated as new
	// (bounded memory trades perfect dedup for a hard cap).
	injectControl(t, eng, a, packet.MsgLinkEvent,
		&packet.LinkEvent{Switch: 3, Port: 2, Seq: 1, Up: false})
	if got := a.Stats(); got.EventsSeen != last+1 || got.EventsDup != st.EventsDup {
		t.Fatalf("evicted event not re-accepted: %+v", got)
	}
	// The newest entry is still deduplicated.
	injectControl(t, eng, a, packet.MsgLinkEvent,
		&packet.LinkEvent{Switch: 3, Port: 2, Seq: last, Up: false})
	if got := a.Stats(); got.EventsDup != st.EventsDup+1 {
		t.Fatalf("recent event not deduplicated: %+v", got)
	}
}

func TestRequestBackoffExhaustsBudgetAndAbandons(t *testing.T) {
	cfg := host.DefaultConfig()
	eng, a := soloAgent(t, cfg)
	// No uplink: every path request vanishes, so the query must walk the
	// whole backoff schedule and then give up.
	if err := a.SendData(packet.MACFromUint64(42), []byte("x")); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	st := a.Stats()
	if st.PathQueries != uint64(host.RequestBudget) {
		t.Fatalf("PathQueries = %d, want %d", st.PathQueries, host.RequestBudget)
	}
	if st.QueryRetries != uint64(host.RequestBudget-1) {
		t.Fatalf("QueryRetries = %d, want %d", st.QueryRetries, host.RequestBudget-1)
	}
	if st.QueriesAbandoned != 1 {
		t.Fatalf("QueriesAbandoned = %d, want 1", st.QueriesAbandoned)
	}
	if st.NoRouteDrops != 1 {
		t.Fatalf("NoRouteDrops = %d, want 1 (the queued packet)", st.NoRouteDrops)
	}
	if st.CtrlFailovers != 0 {
		t.Fatalf("failed over with no replica list: %+v", st)
	}
	// Exponential backoff: six attempts at a fixed 5 ms interval would
	// finish in ~30 ms; doubling delays (5,10,20,40,80,80 ms, ±25% jitter)
	// must stretch well past 100 ms.
	if eng.Now() < 100*sim.Millisecond {
		t.Fatalf("abandoned after only %v — retries are not backing off", eng.Now())
	}
}

func TestControllerFailoverRotatesThroughReplicaList(t *testing.T) {
	cfg := host.DefaultConfig()
	eng, a := soloAgent(t, cfg)
	primary := packet.MACFromUint64(99)
	r1, r2 := packet.MACFromUint64(100), packet.MACFromUint64(101)
	injectControl(t, eng, a, packet.MsgCtrlList, &packet.CtrlList{
		Seq: 2,
		Replicas: []packet.CtrlReplica{
			{MAC: primary, Path: packet.Path{1}},
			{MAC: r1, Path: packet.Path{2, 3}},
			{MAC: r2, Path: packet.Path{2, 4}},
		},
	})
	if got := a.CtrlReplicas(); len(got) != 3 {
		t.Fatalf("replica list not installed: %v", got)
	}
	// A stale advertisement (lower Seq) must be ignored.
	injectControl(t, eng, a, packet.MsgCtrlList, &packet.CtrlList{
		Seq:      1,
		Replicas: []packet.CtrlReplica{{MAC: r1, Path: packet.Path{2, 3}}},
	})
	if got := a.CtrlReplicas(); len(got) != 3 {
		t.Fatalf("stale replica list applied: %v", got)
	}
	// With every controller unreachable, the query must spend one budget
	// per replica, rotating each time, before giving up.
	if err := a.SendData(packet.MACFromUint64(42), []byte("x")); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	st := a.Stats()
	// One budget for the bootstrap controller plus one per advertised
	// replica (the primary appears in both roles).
	want := uint64(host.RequestBudget * 4)
	if st.PathQueries != want {
		t.Fatalf("PathQueries = %d, want %d (one budget per rotation stop)", st.PathQueries, want)
	}
	if st.CtrlFailovers != 3 {
		t.Fatalf("CtrlFailovers = %d, want 3 (full rotation)", st.CtrlFailovers)
	}
	if st.QueriesAbandoned != 1 {
		t.Fatalf("QueriesAbandoned = %d, want 1", st.QueriesAbandoned)
	}
	// The rotation wrapped back to the primary.
	if ctrl, _, ok := a.Controller(); !ok || ctrl != primary {
		t.Fatalf("controller after full rotation = %v, want %v", ctrl, primary)
	}
}

// A retry timer outlives the query that set it: the first request is
// answered in microseconds while its retry is still milliseconds away. That
// leftover timer must not drive the next query for the same destination —
// one query, one retry chain, one budget.
func TestStaleRetryTimerIgnored(t *testing.T) {
	// answered is how many queries for dst are answered before the silent
	// one: each leaves a retry timer pending on dst's record.
	for _, answered := range []int{1, 2} {
		t.Run(fmt.Sprintf("answered=%d", answered), func(t *testing.T) {
			n := deployTestbed(t)
			hosts := n.Hosts()
			src, dst := hosts[0], hosts[len(hosts)-1]
			a := n.Agent(src)
			for i := 0; i < answered; i++ {
				a.Table().Invalidate(dst)
				if err := a.WarmUp(dst); err != nil {
					t.Fatal(err)
				}
				n.RunFor(sim.Millisecond) // the answer arrives; the first retry is ≥3.75 ms out
				if !a.RoutesReady(dst) || a.Stats().PathQueries != uint64(i+1) {
					t.Fatalf("query %d not answered on its first attempt: %+v", i+1, a.Stats())
				}
			}
			// Forget the route and silence the controller: the next query
			// gets no answer and must walk exactly one budget, at its own
			// backoff, before it is abandoned, whatever timers the answered
			// ones left behind. A left-over timer that drove it would add a
			// second retry chain, which spends the budget early.
			a.Table().Invalidate(dst)
			n.Ctrl.Crash()
			before := a.Stats()
			if err := a.WarmUp(dst); err != nil {
				t.Fatal(err)
			}
			n.RunFor(host.ShortestBudget() - sim.Millisecond)
			if a.Stats().QueriesAbandoned != before.QueriesAbandoned {
				t.Fatalf("silent query abandoned within %d ms, before its backoff could spend the budget",
					host.ShortestBudget()/sim.Millisecond)
			}
			n.Run()
			st := a.Stats()
			if got := st.PathQueries - before.PathQueries; got != uint64(host.RequestBudget) {
				t.Fatalf("silent query sent %d requests, want one budget (%d)", got, host.RequestBudget)
			}
			if got := st.QueriesAbandoned - before.QueriesAbandoned; got != 1 {
				t.Fatalf("silent query abandoned %d times, want 1", got)
			}
		})
	}
}

// injectData feeds the agent a data frame from src, CE-marked when ce is
// set, as if it had arrived on the uplink, and runs it through the datapath
// delay.
func injectData(t *testing.T, eng *sim.Engine, a *host.Agent, src packet.MAC, ce bool) {
	t.Helper()
	f := &packet.Frame{Dst: a.MAC(), Src: src, InnerType: packet.EtherTypeIPv4, Payload: []byte("x")}
	if ce {
		f.Flags = packet.FlagCE
	}
	buf, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	a.Receive(0, buf)
	eng.RunFor(10 * sim.Microsecond)
}

// Invalidate drops a destination's route and nothing else it knows about
// the destination: a blackhole detector armed by earlier return traffic
// stays armed, and the congestion-echo rate limit stays in force.
func TestInvalidateKeepsPeerState(t *testing.T) {
	dst := packet.MACFromUint64(5)
	route := func() *host.TableEntry {
		return &host.TableEntry{Paths: []host.CachedPath{{Tags: packet.Path{2}}}}
	}
	t.Run("blackhole", func(t *testing.T) {
		eng, a := soloAgent(t, host.DefaultConfig())
		a.Table().Install(dst, route())
		injectData(t, eng, a, dst, false) // arms the detector
		a.Table().Invalidate(dst)
		a.Table().Install(dst, route())
		eng.RunFor(host.BlackholeWindow)
		// The agent has no uplink, so every send fails on the wire after
		// the detector has counted it.
		for i := 1; i <= host.BlackholeThreshold; i++ {
			_ = a.SendData(dst, []byte("lost"))
			want := uint64(0)
			if i == host.BlackholeThreshold {
				want = 1
			}
			if got := a.Stats().Blackholes; got != want {
				t.Fatalf("after send %d: %d blackholes, want %d", i, got, want)
			}
		}
	})
	t.Run("echo rate limit", func(t *testing.T) {
		eng, a := soloAgent(t, host.DefaultConfig())
		a.Table().Install(dst, route())
		injectData(t, eng, a, dst, true)
		if got := a.Stats().CongestionEchoes; got != 1 {
			t.Fatalf("first CE mark: %d echoes, want 1", got)
		}
		a.Table().Invalidate(dst)
		a.Table().Install(dst, route())
		injectData(t, eng, a, dst, true) // well inside ECNEchoInterval
		if got := a.Stats().CongestionEchoes; got != 1 {
			t.Fatalf("second CE mark inside the echo interval: %d echoes, want 1", got)
		}
		eng.RunFor(host.ECNEchoInterval)
		injectData(t, eng, a, dst, true)
		if got := a.Stats().CongestionEchoes; got != 2 {
			t.Fatalf("CE mark after the interval: %d echoes, want 2", got)
		}
	})
}

// A frame handled at virtual time 0 counts like any other: it arms the
// blackhole detector and opens the echo interval. Both once used 0 as their
// "never" mark, so a frame at 0 did neither.
func TestPeerStateFromTimeZero(t *testing.T) {
	dst := packet.MACFromUint64(5)
	route := &host.TableEntry{Paths: []host.CachedPath{{Tags: packet.Path{2}}}}
	t.Run("blackhole", func(t *testing.T) {
		eng, a := soloAgent(t, host.DefaultConfig())
		a.Table().Install(dst, route)
		injectData(t, eng, a, dst, false) // handled at t=0
		eng.RunFor(host.BlackholeWindow)
		for i := 0; i < host.BlackholeThreshold; i++ {
			_ = a.SendData(dst, []byte("lost"))
		}
		if got := a.Stats().Blackholes; got != 1 {
			t.Fatalf("%d blackholes after a frame at t=0 and %d silent sends, want 1", got, host.BlackholeThreshold)
		}
	})
	t.Run("echo interval", func(t *testing.T) {
		eng, a := soloAgent(t, host.DefaultConfig())
		a.Table().Install(dst, route)
		injectData(t, eng, a, dst, true) // handled at t=0
		injectData(t, eng, a, dst, true) // 10 µs later
		if got := a.Stats().CongestionEchoes; got != 1 {
			t.Fatalf("%d echoes for CE marks at t=0 and 10 µs, want 1", got)
		}
	})
}

// A path query that walks its whole budget costs a fixed handful of
// allocations per attempt (the encoded request, the failed send) plus the
// new destination's record, which holds the query — no closure per retry.
func TestPathQueryAllocs(t *testing.T) {
	eng, a := soloAgent(t, host.DefaultConfig())
	dst := uint64(1000)
	allocs := testing.AllocsPerRun(50, func() {
		dst++
		if err := a.WarmUp(packet.MACFromUint64(dst)); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	})
	if st := a.Stats(); st.QueriesAbandoned != 51 {
		t.Fatalf("QueriesAbandoned = %d, want 51 (every query walks its budget)", st.QueriesAbandoned)
	}
	// A closure per retry costs 36-37 (50-52 under -race, where this
	// change reads 43-45).
	limit := 31.0
	if raceEnabled {
		limit = 47
	}
	t.Logf("%.0f allocations per abandoned %d-attempt query", allocs, host.RequestBudget)
	if allocs > limit {
		t.Fatalf("an abandoned query allocated %.0f times, want at most %.0f", allocs, limit)
	}
}

func TestBlackholeDetectionAndRecovery(t *testing.T) {
	n := deployTestbed(t)
	hosts := n.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	delivered := collectData(n.Agent(dst))
	// Warm both directions so the detector arms (it needs return traffic
	// before silence means anything).
	n.Agent(dst).OnData = func(s packet.MAC, it uint16, p []byte) {
		*delivered = append(*delivered, string(p))
		_ = n.Agent(dst).SendData(s, []byte("ack"))
	}
	acked := 0
	n.Agent(src).OnData = func(packet.MAC, uint16, []byte) { acked++ }
	if err := n.Agent(src).SendData(dst, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if acked == 0 {
		t.Fatal("warm-up ack never arrived")
	}
	// Silent loss on every fabric link: frames vanish with no link-down
	// alarm — exactly the failure stage 1 cannot see.
	n.Fab.ImpairAllLinks(sim.Impairment{LossProb: 1})
	for i := 0; i < 12; i++ {
		_ = n.Agent(src).SendData(dst, []byte(fmt.Sprintf("lost-%d", i)))
		n.RunFor(2 * sim.Millisecond)
	}
	if st := n.Agent(src).Stats(); st.Blackholes == 0 {
		t.Fatalf("blackhole never detected: %+v", st)
	}
	// Heal and let the re-query retries land.
	n.Fab.ImpairAllLinks(sim.Impairment{})
	n.RunFor(500 * sim.Millisecond)
	before := len(*delivered)
	if err := n.Agent(src).SendData(dst, []byte("after")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if len(*delivered) <= before {
		t.Fatal("no delivery after blackhole healed")
	}
}

// TestStage1UnderLossyFlappingLinks soaks the stage-1 machinery: a lossy
// fabric plus a flapping spine link generate duplicated, reordered and
// missing link events; dedup must hold and connectivity must survive.
func TestStage1UnderLossyFlappingLinks(t *testing.T) {
	n := deployTestbed(t)
	// Warm a mesh of paths so hosts know each other (enables host floods).
	for _, m := range n.Hosts() {
		if m != n.Hosts()[0] {
			_ = n.Agent(n.Hosts()[0]).SendData(m, []byte("w"))
		}
	}
	n.Run()
	n.Fab.ImpairAllLinks(sim.Impairment{LossProb: 0.05})
	l, err := n.Fab.LinkBetween(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	l.StartFlap(0, 30*sim.Millisecond, 30*sim.Millisecond, 3)
	n.RunFor(300 * sim.Millisecond)
	l.StopFlap()
	l.Restore()
	n.Fab.ImpairAllLinks(sim.Impairment{})
	n.RunFor(2 * sim.Second) // drain the alarm-suppression window

	dups := uint64(0)
	for _, m := range n.Hosts() {
		st := n.Agent(m).Stats()
		dups += st.EventsDup
		// Dedup must keep the distinct-event count near the real number of
		// transitions (6 flap transitions, two sides, plus suppression
		// trailing alarms), not the flood volume.
		if st.EventsSeen > 40 {
			t.Fatalf("host %v saw %d distinct events — dedup leak", m, st.EventsSeen)
		}
	}
	if dups == 0 {
		t.Fatal("no duplicate events suppressed — floods not exercised")
	}
	// Full connectivity after the storm.
	got := 0
	for _, m := range n.Hosts() {
		m := m
		n.Agent(m).OnData = func(packet.MAC, uint16, []byte) { got++ }
	}
	sent := 0
	for i, a := range n.Hosts() {
		b := n.Hosts()[(i+1)%len(n.Hosts())]
		if a == b {
			continue
		}
		if err := n.Agent(a).SendData(b, []byte("post")); err != nil {
			t.Fatalf("%v->%v: %v", a, b, err)
		}
		sent++
	}
	n.Run()
	if got != sent {
		t.Fatalf("delivered %d of %d after flap+loss", got, sent)
	}
}
