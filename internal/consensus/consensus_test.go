package consensus

import (
	"errors"
	"fmt"
	"testing"

	"dumbnet/internal/sim"
)

// runCluster spins a cluster and settles it for d virtual time.
func settle(eng *sim.Engine, d sim.Time) { eng.RunFor(d) }

func newTestCluster(t *testing.T, n int, seed int64) (*sim.Engine, *Cluster, map[NodeID][]Entry) {
	t.Helper()
	eng := sim.NewEngine(seed)
	applied := make(map[NodeID][]Entry)
	c := NewCluster(eng, n, func(id NodeID, e Entry) {
		applied[id] = append(applied[id], e)
	})
	return eng, c, applied
}

func TestLeaderElection(t *testing.T) {
	eng, c, _ := newTestCluster(t, 3, 1)
	settle(eng, sim.Second)
	leader := c.Leader()
	if leader == nil {
		t.Fatal("no leader after 1s")
	}
	// Exactly one leader.
	count := 0
	for i := 0; i < c.Size(); i++ {
		if c.Node(NodeID(i)).Role() == Leader {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("leaders = %d", count)
	}
}

func TestSingleNodeCluster(t *testing.T) {
	eng, c, applied := newTestCluster(t, 1, 1)
	settle(eng, sim.Second)
	leader := c.Leader()
	if leader == nil {
		t.Fatal("single node should elect itself")
	}
	if _, err := leader.Propose([]byte("solo")); err != nil {
		t.Fatal(err)
	}
	settle(eng, 100*sim.Millisecond)
	if len(applied[leader.ID()]) != 1 {
		t.Fatal("entry not applied")
	}
}

func TestReplicationAndApply(t *testing.T) {
	eng, c, applied := newTestCluster(t, 3, 2)
	settle(eng, sim.Second)
	leader := c.Leader()
	if leader == nil {
		t.Fatal("no leader")
	}
	for i := 0; i < 5; i++ {
		if _, err := leader.Propose([]byte(fmt.Sprintf("entry-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	settle(eng, 500*sim.Millisecond)
	for i := 0; i < 3; i++ {
		id := NodeID(i)
		if len(applied[id]) != 5 {
			t.Fatalf("node %d applied %d of 5", id, len(applied[id]))
		}
		for j, e := range applied[id] {
			want := fmt.Sprintf("entry-%d", j)
			if string(e.Data) != want || e.Index != uint64(j+1) {
				t.Fatalf("node %d entry %d = %q idx %d", id, j, e.Data, e.Index)
			}
		}
	}
}

func TestProposeOnFollowerRejected(t *testing.T) {
	eng, c, _ := newTestCluster(t, 3, 3)
	settle(eng, sim.Second)
	leader := c.Leader()
	for i := 0; i < c.Size(); i++ {
		n := c.Node(NodeID(i))
		if n == leader {
			continue
		}
		if _, err := n.Propose([]byte("x")); !errors.Is(err, ErrNotLeader) {
			t.Fatalf("follower accepted proposal: %v", err)
		}
	}
}

func TestLeaderFailover(t *testing.T) {
	eng, c, applied := newTestCluster(t, 3, 4)
	settle(eng, sim.Second)
	old := c.Leader()
	if old == nil {
		t.Fatal("no initial leader")
	}
	if _, err := old.Propose([]byte("before-crash")); err != nil {
		t.Fatal(err)
	}
	settle(eng, 300*sim.Millisecond)
	old.Crash()
	settle(eng, 2*sim.Second)
	newLeader := c.Leader()
	if newLeader == nil || newLeader.ID() == old.ID() {
		t.Fatal("no new leader elected after crash")
	}
	if _, err := newLeader.Propose([]byte("after-crash")); err != nil {
		t.Fatal(err)
	}
	settle(eng, 500*sim.Millisecond)
	// Both survivors must have both entries.
	for i := 0; i < 3; i++ {
		id := NodeID(i)
		if c.Node(id).Down() {
			continue
		}
		if len(applied[id]) != 2 {
			t.Fatalf("node %d applied %d of 2", id, len(applied[id]))
		}
		if string(applied[id][0].Data) != "before-crash" || string(applied[id][1].Data) != "after-crash" {
			t.Fatalf("node %d log mismatch", id)
		}
	}
}

func TestCrashedNodeCatchesUpOnRestart(t *testing.T) {
	eng, c, applied := newTestCluster(t, 3, 5)
	settle(eng, sim.Second)
	leader := c.Leader()
	victim := c.Node((leader.ID() + 1) % 3)
	victim.Crash()
	for i := 0; i < 4; i++ {
		if _, err := leader.Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	settle(eng, 500*sim.Millisecond)
	if len(applied[victim.ID()]) != 0 {
		t.Fatal("crashed node applied entries")
	}
	victim.Restart()
	settle(eng, 2*sim.Second)
	if len(applied[victim.ID()]) != 4 {
		t.Fatalf("restarted node applied %d of 4", len(applied[victim.ID()]))
	}
}

func TestNoCommitWithoutQuorum(t *testing.T) {
	eng, c, applied := newTestCluster(t, 5, 6)
	settle(eng, sim.Second)
	leader := c.Leader()
	if leader == nil {
		t.Fatal("no leader")
	}
	// Cut the leader off from 3 of 4 peers: it keeps 1 follower = no quorum.
	cut := 0
	for i := 0; i < 5 && cut < 3; i++ {
		id := NodeID(i)
		if id != leader.ID() {
			c.Partition(leader.ID(), id)
			cut++
		}
	}
	if _, err := leader.Propose([]byte("minority")); err != nil {
		t.Fatal(err)
	}
	settle(eng, 300*sim.Millisecond)
	if got := len(applied[leader.ID()]); got != 0 {
		t.Fatalf("minority leader committed %d entries", got)
	}
	// Heal: either the old leader resumes or a majority-side leader with a
	// higher term took over and the entry is superseded. Both are legal;
	// what matters is all nodes converge to identical committed logs.
	c.Heal()
	settle(eng, 3*sim.Second)
	l := c.Leader()
	if l == nil {
		t.Fatal("no leader after heal")
	}
	if _, err := l.Propose([]byte("post-heal")); err != nil {
		t.Fatal(err)
	}
	settle(eng, sim.Second)
	want := applied[l.ID()]
	if len(want) == 0 || string(want[len(want)-1].Data) != "post-heal" {
		t.Fatalf("leader log = %v", want)
	}
	for i := 0; i < 5; i++ {
		id := NodeID(i)
		got := applied[id]
		if len(got) != len(want) {
			t.Fatalf("node %d applied %d, leader %d", id, len(got), len(want))
		}
		for j := range got {
			if string(got[j].Data) != string(want[j].Data) {
				t.Fatalf("node %d diverged at %d", id, j)
			}
		}
	}
}

func TestIsolatedLeaderStepsAside(t *testing.T) {
	eng, c, _ := newTestCluster(t, 3, 7)
	settle(eng, sim.Second)
	old := c.Leader()
	c.Isolate(old.ID())
	settle(eng, 2*sim.Second)
	// Majority side elects a fresh leader with a higher term.
	fresh := c.Leader()
	if fresh == nil {
		t.Fatal("no leader on majority side")
	}
	if fresh.ID() == old.ID() {
		t.Fatal("isolated node still considered cluster leader")
	}
	if fresh.Term() <= old.Term() && old.Role() == Leader {
		t.Fatalf("fresh term %d not above old %d", fresh.Term(), old.Term())
	}
}

func TestCommittedEntriesSurviveLeaderChanges(t *testing.T) {
	eng, c, applied := newTestCluster(t, 5, 8)
	settle(eng, sim.Second)
	var all []string
	for round := 0; round < 3; round++ {
		leader := c.Leader()
		if leader == nil {
			settle(eng, 2*sim.Second)
			leader = c.Leader()
			if leader == nil {
				t.Fatalf("round %d: no leader", round)
			}
		}
		data := fmt.Sprintf("round-%d", round)
		if _, err := leader.Propose([]byte(data)); err != nil {
			t.Fatal(err)
		}
		all = append(all, data)
		settle(eng, 500*sim.Millisecond)
		leader.Crash()
		settle(eng, 2*sim.Second)
		leader.Restart()
		settle(eng, sim.Second)
	}
	settle(eng, 2*sim.Second)
	for i := 0; i < 5; i++ {
		id := NodeID(i)
		if len(applied[id]) != len(all) {
			t.Fatalf("node %d applied %d of %d", id, len(applied[id]), len(all))
		}
		for j, want := range all {
			if string(applied[id][j].Data) != want {
				t.Fatalf("node %d entry %d = %q, want %q", id, j, applied[id][j].Data, want)
			}
		}
	}
}

func TestEntryAt(t *testing.T) {
	eng, c, _ := newTestCluster(t, 3, 9)
	settle(eng, sim.Second)
	leader := c.Leader()
	idx, err := leader.Propose([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	settle(eng, 500*sim.Millisecond)
	e, ok := leader.EntryAt(idx)
	if !ok || string(e.Data) != "hello" {
		t.Fatalf("EntryAt = %+v, %v", e, ok)
	}
	if _, ok := leader.EntryAt(0); ok {
		t.Fatal("index 0 should fail")
	}
	if _, ok := leader.EntryAt(idx + 100); ok {
		t.Fatal("future index should fail")
	}
}

func TestProposeOnCrashedNode(t *testing.T) {
	eng, c, _ := newTestCluster(t, 3, 10)
	settle(eng, sim.Second)
	leader := c.Leader()
	leader.Crash()
	if _, err := leader.Propose([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v", err)
	}
	leader.Restart()
	leader.Restart() // idempotent
}

func TestRoleString(t *testing.T) {
	if Follower.String() != "follower" || Candidate.String() != "candidate" || Leader.String() != "leader" {
		t.Fatal("role names")
	}
	if Role(9).String() != "role(9)" {
		t.Fatal("unknown role")
	}
}

// Determinism: identical seeds give identical election outcomes.
func TestDeterministicElections(t *testing.T) {
	run := func() (NodeID, uint64) {
		eng, c, _ := newTestCluster(t, 5, 42)
		settle(eng, 2*sim.Second)
		l := c.Leader()
		if l == nil {
			t.Fatal("no leader")
		}
		return l.ID(), l.Term()
	}
	id1, t1 := run()
	id2, t2 := run()
	if id1 != id2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", id1, t1, id2, t2)
	}
}

// Safety property across random crash/restart schedules: all nodes apply
// identical prefixes (no divergence), for several seeds.
func TestAppliedPrefixConsistencyUnderChaos(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		eng, c, applied := newTestCluster(t, 5, 100+seed)
		rng := eng.Rand()
		settle(eng, sim.Second)
		proposed := 0
		for step := 0; step < 30; step++ {
			switch rng.Intn(4) {
			case 0: // propose
				if l := c.Leader(); l != nil {
					if _, err := l.Propose([]byte{byte(proposed)}); err == nil {
						proposed++
					}
				}
			case 1: // crash someone
				c.Node(NodeID(rng.Intn(5))).Crash()
			case 2: // restart someone
				c.Node(NodeID(rng.Intn(5))).Restart()
			case 3: // let time pass
			}
			settle(eng, 300*sim.Millisecond)
		}
		// Revive everyone and settle.
		for i := 0; i < 5; i++ {
			c.Node(NodeID(i)).Restart()
		}
		settle(eng, 5*sim.Second)
		// All applied sequences must be prefix-consistent.
		var longest []Entry
		for i := 0; i < 5; i++ {
			if len(applied[NodeID(i)]) > len(longest) {
				longest = applied[NodeID(i)]
			}
		}
		for i := 0; i < 5; i++ {
			seq := applied[NodeID(i)]
			for j := range seq {
				if seq[j].Index != longest[j].Index || seq[j].Term != longest[j].Term ||
					string(seq[j].Data) != string(longest[j].Data) {
					t.Fatalf("seed %d: node %d diverged at %d", seed, i, j)
				}
			}
		}
	}
}
