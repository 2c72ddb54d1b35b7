package chaos_test

import (
	"testing"

	"dumbnet/internal/chaos"
	"dumbnet/internal/trace"
)

// TestMcastTreeRepairUnderChaos is the issue's tree-repair battery: two
// multicast groups live on the acceptance fabric while the seeded driver
// kills links, flaps, crashes switches and the primary controller. Probes
// fire at the groups throughout; after heal, a fresh probe per group must
// reach every member exactly once over recomputed trees, and the
// controller's cache counters must show trees were served, invalidated by
// generation bumps, and rebuilt.
func TestMcastTreeRepairUnderChaos(t *testing.T) {
	n := buildNetwork(t, 77, true)
	cfg := chaos.DefaultConfig(77)
	cfg.Mcast = true
	rep, err := chaos.Run(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		for _, v := range rep.Violations {
			t.Errorf("invariant violated: %v", v)
		}
	}
	kinds := map[trace.ScenarioOp]int{}
	for _, e := range rep.Trace {
		kinds[e.Kind]++
	}
	if kinds[trace.ScenarioMcastGroup] != 2 {
		t.Errorf("mcast-group events = %d, want 2 (trace: %v)", kinds[trace.ScenarioMcastGroup], kinds)
	}
	if kinds[trace.ScenarioMcastProbe] != 2 {
		t.Errorf("post-heal mcast-probe events = %d, want 2", kinds[trace.ScenarioMcastProbe])
	}
	if kinds[trace.ScenarioFailLink] == 0 {
		t.Errorf("scenario injected no link failures (trace: %v)", kinds)
	}

	// The tree cache must have been genuinely exercised: trees computed
	// (miss), served warm (hit), and evicted by generation bumps as faults
	// changed the master (invalidated).
	snap := n.Eng.Metrics().Snapshot(int64(n.Eng.Now()))
	for _, name := range []string{"ctrl.mcast.hit", "ctrl.mcast.miss", "ctrl.mcast.invalidated", "ctrl.mcast.notifies"} {
		e, ok := snap.Get(name)
		if !ok || e.Value == 0 {
			t.Errorf("%s = %v, want > 0 — tree cache not exercised", name, e.Value)
		}
	}

	// Hosts actually received replicated frames on the data path.
	var received uint64
	for _, h := range n.Hosts() {
		received += n.Agent(h).Stats().McastReceived
	}
	if received == 0 {
		t.Error("no host ever received a multicast frame")
	}
}

// TestMcastChaosDeterminism: the multicast scenario must reproduce its
// recorded digest — probes and audits draw from the scenario rngs, and the
// digest covers mcast-group and mcast-probe events — and a different seed
// must diverge.
func TestMcastChaosDeterminism(t *testing.T) {
	run := func(seed int64) *chaos.Report {
		n := buildNetwork(t, 7, true)
		cfg := chaos.DefaultConfig(seed)
		cfg.Events = 20
		cfg.Mcast = true
		rep, err := chaos.Run(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	const want uint64 = 0xcc3f30e0f0d18258
	a := run(11)
	if got := a.Digest(); got != want {
		t.Fatalf("seed 11 digest = %#016x, want %#016x; trace:\n%v", got, want, a.Trace)
	}
	if c := run(12); a.Digest() == c.Digest() {
		t.Fatal("different seeds produced identical digests")
	}
}
