// Package consensus implements a compact leader-based replicated log — the
// substitute for the Apache ZooKeeper deployment the paper uses to keep
// controller replicas' topology views consistent (§4.1, §4.2).
//
// The protocol is a minimal Raft: randomized election timeouts, term-based
// leader election with log-recency voting, quorum-acknowledged log
// replication, and monotonic commit. Nodes exchange messages over an
// in-memory cluster bus driven by the discrete-event engine, so elections,
// failures and partitions are fully deterministic under a fixed seed.
package consensus

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"dumbnet/internal/sim"
)

// NodeID identifies a replica (0-based).
type NodeID int

// Entry is one replicated log record.
type Entry struct {
	Term  uint64
	Index uint64 // 1-based
	Data  []byte
}

// Role is a replica's current protocol role.
type Role uint8

// Roles.
const (
	Follower Role = iota
	Candidate
	Leader
)

// String names the role.
func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// Protocol timing, data-center-ish.
const (
	heartbeatInterval  = 20 * sim.Millisecond
	electionTimeoutMin = 100 * sim.Millisecond
	electionTimeoutMax = 200 * sim.Millisecond
	// messageDelay is the one-way replica-to-replica latency.
	messageDelay = 500 * sim.Microsecond
)

// Errors.
var (
	ErrNotLeader = errors.New("consensus: not the leader")
	ErrCrashed   = errors.New("consensus: node is down")
)

// message kinds.
type msgKind uint8

const (
	msgVoteReq msgKind = iota
	msgVoteReply
	msgAppend
	msgAppendReply
)

type message struct {
	kind msgKind
	from NodeID
	term uint64

	// vote request
	lastLogIndex uint64
	lastLogTerm  uint64
	// vote reply
	granted bool
	// append
	prevIndex    uint64
	prevTerm     uint64
	entries      []Entry
	leaderCommit uint64
	// append reply
	success    bool
	matchIndex uint64
}

// Cluster is the replica group plus its message bus.
type Cluster struct {
	eng   *sim.Engine
	nodes []*Node
	// blocked[a][b] drops messages a->b (one direction).
	blocked map[NodeID]map[NodeID]bool
}

// NewCluster creates n replicas. Apply (optional) is invoked on every node
// for each committed entry, in log order.
func NewCluster(eng *sim.Engine, n int, apply func(node NodeID, e Entry)) *Cluster {
	c := &Cluster{eng: eng, blocked: make(map[NodeID]map[NodeID]bool)}
	for i := 0; i < n; i++ {
		node := &Node{
			id:       NodeID(i),
			cluster:  c,
			votedFor: -1,
			apply:    apply,
		}
		c.nodes = append(c.nodes, node)
	}
	for _, node := range c.nodes {
		node.resetElectionTimer()
	}
	return c
}

// Node returns a replica by ID.
func (c *Cluster) Node(id NodeID) *Node { return c.nodes[int(id)] }

// Size returns the replica count.
func (c *Cluster) Size() int { return len(c.nodes) }

// Leader returns the current leader with the highest term, or nil.
func (c *Cluster) Leader() *Node {
	var best *Node
	for _, n := range c.nodes {
		if n.role == Leader && !n.down && (best == nil || n.term > best.term) {
			best = n
		}
	}
	return best
}

// Partition blocks traffic between a and b in both directions.
func (c *Cluster) Partition(a, b NodeID) {
	c.block(a, b)
	c.block(b, a)
}

// Isolate cuts a node off from every peer.
func (c *Cluster) Isolate(id NodeID) {
	for _, n := range c.nodes {
		if n.id != id {
			c.Partition(id, n.id)
		}
	}
}

// Heal removes all partitions.
func (c *Cluster) Heal() { c.blocked = make(map[NodeID]map[NodeID]bool) }

func (c *Cluster) block(a, b NodeID) {
	if c.blocked[a] == nil {
		c.blocked[a] = make(map[NodeID]bool)
	}
	c.blocked[a][b] = true
}

// send delivers a message after messageDelay unless blocked.
func (c *Cluster) send(from, to NodeID, m message) {
	if c.blocked[from][to] {
		return
	}
	dst := c.nodes[int(to)]
	c.eng.After(messageDelay, func() { dst.deliver(m) })
}

func (c *Cluster) quorum() int { return len(c.nodes)/2 + 1 }

// Node is one replica.
type Node struct {
	id      NodeID
	cluster *Cluster

	term     uint64
	votedFor NodeID
	role     Role
	log      []Entry
	commit   uint64
	applied  uint64
	down     bool

	votes map[NodeID]bool
	// leader state
	nextIndex  map[NodeID]uint64
	matchIndex map[NodeID]uint64

	electionDeadline sim.Time
	apply            func(node NodeID, e Entry)
}

// ID returns the replica ID.
func (n *Node) ID() NodeID { return n.id }

// Role returns the current role.
func (n *Node) Role() Role { return n.role }

// Term returns the current term.
func (n *Node) Term() uint64 { return n.term }

// Down reports whether the node is crashed.
func (n *Node) Down() bool { return n.down }

// CommitIndex returns the highest committed log index.
func (n *Node) CommitIndex() uint64 { return n.commit }

// EntryAt returns the committed entry at a 1-based index.
func (n *Node) EntryAt(index uint64) (Entry, bool) {
	if index < 1 || index > uint64(len(n.log)) || index > n.commit {
		return Entry{}, false
	}
	return n.log[index-1], true
}

// Crash stops the node: it drops all traffic and timers until Restart.
// The log survives (stable storage).
func (n *Node) Crash() {
	n.down = true
	n.role = Follower
}

// Restart brings a crashed node back as a follower.
func (n *Node) Restart() {
	if !n.down {
		return
	}
	n.down = false
	n.role = Follower
	n.votes = nil
	n.resetElectionTimer()
}

// Propose appends data to the replicated log. Only the leader accepts
// proposals; followers return ErrNotLeader so clients can retry elsewhere.
func (n *Node) Propose(data []byte) (index uint64, err error) {
	if n.down {
		return 0, ErrCrashed
	}
	if n.role != Leader {
		return 0, ErrNotLeader
	}
	e := Entry{Term: n.term, Index: uint64(len(n.log)) + 1, Data: data}
	n.log = append(n.log, e)
	n.matchIndex[n.id] = e.Index
	n.advanceCommit() // a single-node cluster commits immediately
	n.broadcastAppend()
	return e.Index, nil
}

func (n *Node) lastLogIndex() uint64 { return uint64(len(n.log)) }

func (n *Node) lastLogTerm() uint64 {
	if len(n.log) == 0 {
		return 0
	}
	return n.log[len(n.log)-1].Term
}

func (n *Node) resetElectionTimer() {
	c := n.cluster
	timeout := electionTimeoutMin + sim.Time(c.eng.Rand().Int63n(int64(electionTimeoutMax-electionTimeoutMin)))
	deadline := c.eng.Now() + timeout
	n.electionDeadline = deadline
	c.eng.At(deadline, func() { n.electionCheck(deadline) })
}

func (n *Node) electionCheck(deadline sim.Time) {
	if n.down || n.role == Leader || n.electionDeadline != deadline {
		return // stale timer or no longer needed
	}
	n.startElection()
}

func (n *Node) startElection() {
	n.term++
	n.role = Candidate
	n.votedFor = n.id
	n.votes = map[NodeID]bool{n.id: true}
	n.resetElectionTimer()
	req := message{
		kind:         msgVoteReq,
		from:         n.id,
		term:         n.term,
		lastLogIndex: n.lastLogIndex(),
		lastLogTerm:  n.lastLogTerm(),
	}
	for _, peer := range n.cluster.nodes {
		if peer.id != n.id {
			n.cluster.send(n.id, peer.id, req)
		}
	}
	if len(n.votes) >= n.cluster.quorum() { // single-node cluster
		n.becomeLeader()
	}
}

func (n *Node) becomeLeader() {
	n.role = Leader
	n.nextIndex = make(map[NodeID]uint64)
	n.matchIndex = make(map[NodeID]uint64)
	for _, peer := range n.cluster.nodes {
		n.nextIndex[peer.id] = n.lastLogIndex() + 1
		n.matchIndex[peer.id] = 0
	}
	n.matchIndex[n.id] = n.lastLogIndex()
	n.heartbeat()
}

func (n *Node) heartbeat() {
	if n.down || n.role != Leader {
		return
	}
	n.broadcastAppend()
	n.cluster.eng.After(heartbeatInterval, func() { n.heartbeat() })
}

func (n *Node) broadcastAppend() {
	for _, peer := range n.cluster.nodes {
		if peer.id == n.id {
			continue
		}
		next := n.nextIndex[peer.id]
		if next < 1 {
			next = 1
		}
		prevIndex := next - 1
		var prevTerm uint64
		if prevIndex >= 1 && prevIndex <= uint64(len(n.log)) {
			prevTerm = n.log[prevIndex-1].Term
		}
		var entries []Entry
		if next <= uint64(len(n.log)) {
			entries = append([]Entry(nil), n.log[next-1:]...)
		}
		n.cluster.send(n.id, peer.id, message{
			kind:         msgAppend,
			from:         n.id,
			term:         n.term,
			prevIndex:    prevIndex,
			prevTerm:     prevTerm,
			entries:      entries,
			leaderCommit: n.commit,
		})
	}
}

func (n *Node) stepDown(term uint64) {
	n.term = term
	n.role = Follower
	n.votedFor = -1
	n.votes = nil
	n.resetElectionTimer()
}

func (n *Node) deliver(m message) {
	if n.down {
		return
	}
	if m.term > n.term {
		n.stepDown(m.term)
	}
	switch m.kind {
	case msgVoteReq:
		n.onVoteRequest(m)
	case msgVoteReply:
		n.onVoteReply(m)
	case msgAppend:
		n.onAppend(m)
	case msgAppendReply:
		n.onAppendReply(m)
	}
}

func (n *Node) onVoteRequest(m message) {
	granted := false
	if m.term == n.term && (n.votedFor == -1 || n.votedFor == m.from) {
		// Log recency check: candidate's log must be at least as
		// up-to-date as ours.
		upToDate := m.lastLogTerm > n.lastLogTerm() ||
			(m.lastLogTerm == n.lastLogTerm() && m.lastLogIndex >= n.lastLogIndex())
		if upToDate {
			granted = true
			n.votedFor = m.from
			n.resetElectionTimer()
		}
	}
	n.cluster.send(n.id, m.from, message{kind: msgVoteReply, from: n.id, term: n.term, granted: granted})
}

func (n *Node) onVoteReply(m message) {
	if n.role != Candidate || m.term != n.term || !m.granted {
		return
	}
	n.votes[m.from] = true
	if len(n.votes) >= n.cluster.quorum() {
		n.becomeLeader()
	}
}

func (n *Node) onAppend(m message) {
	if m.term < n.term {
		n.cluster.send(n.id, m.from, message{kind: msgAppendReply, from: n.id, term: n.term, success: false})
		return
	}
	// Valid leader for this term.
	n.role = Follower
	n.resetElectionTimer()
	// Consistency check.
	if m.prevIndex > uint64(len(n.log)) ||
		(m.prevIndex >= 1 && n.log[m.prevIndex-1].Term != m.prevTerm) {
		n.cluster.send(n.id, m.from, message{kind: msgAppendReply, from: n.id, term: n.term, success: false, matchIndex: 0})
		return
	}
	// Append, truncating conflicts.
	for i, e := range m.entries {
		idx := m.prevIndex + uint64(i) + 1
		if idx <= uint64(len(n.log)) {
			if n.log[idx-1].Term != e.Term {
				n.log = n.log[:idx-1]
				n.log = append(n.log, e)
			}
		} else {
			n.log = append(n.log, e)
		}
	}
	match := m.prevIndex + uint64(len(m.entries))
	if m.leaderCommit > n.commit {
		n.commit = min64(m.leaderCommit, uint64(len(n.log)))
		n.applyCommitted()
	}
	n.cluster.send(n.id, m.from, message{kind: msgAppendReply, from: n.id, term: n.term, success: true, matchIndex: match})
}

func (n *Node) onAppendReply(m message) {
	if n.role != Leader || m.term != n.term {
		return
	}
	if !m.success {
		// Back off and retry from earlier in the log.
		if n.nextIndex[m.from] > 1 {
			n.nextIndex[m.from]--
		}
		return
	}
	if m.matchIndex > n.matchIndex[m.from] {
		n.matchIndex[m.from] = m.matchIndex
	}
	n.nextIndex[m.from] = n.matchIndex[m.from] + 1
	n.advanceCommit()
}

// advanceCommit commits the highest index replicated on a quorum whose
// entry belongs to the current term.
func (n *Node) advanceCommit() {
	matches := make([]uint64, 0, len(n.cluster.nodes))
	for _, peer := range n.cluster.nodes {
		matches = append(matches, n.matchIndex[peer.id])
	}
	slices.SortFunc(matches, func(a, b uint64) int { return cmp.Compare(b, a) })
	candidate := matches[n.cluster.quorum()-1]
	if candidate > n.commit && candidate <= uint64(len(n.log)) &&
		n.log[candidate-1].Term == n.term {
		n.commit = candidate
		n.applyCommitted()
		n.broadcastAppend() // propagate the new commit index promptly
	}
}

func (n *Node) applyCommitted() {
	for n.applied < n.commit {
		n.applied++
		if n.apply != nil {
			n.apply(n.id, n.log[n.applied-1])
		}
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
