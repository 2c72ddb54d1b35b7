package host

import (
	"encoding/binary"

	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// This file is the host side of bulk transfers, in both simulation modes.
//
// ResolveRoute is the control-plane half of the hybrid fluid-send path: it
// reserves a source route exactly like a packet send would — path-table
// lookup, controller path request with the full retry/failover budget on a
// miss, MPLS/tag resolution — and hands the chosen route to the caller
// (the hybrid fluid layer) instead of a frame to the wire.
//
// StartTransfer is the packet-level reference implementation: a windowed,
// ack-clocked sender used by the fidelity tests to check hybrid flow
// completion times against real per-frame simulation. It assumes a
// loss-free fabric (no retransmit timer): the fidelity suite runs without
// chaos, and a lost frame stalls the transfer rather than corrupting the
// measurement silently.

// RouteWaiter hears the outcome of a reservation that missed the path
// table. ok=false means the route could not be resolved (no controller, or
// the request budget was exhausted).
type RouteWaiter interface {
	RouteResolved(tags packet.Path, hops []topo.PortRef, ok bool)
}

// pendingResolve is a route reservation awaiting a controller response.
type pendingResolve struct {
	flow FlowKey
	w    RouteWaiter
}

// ResolveRoute reserves a source route to dst for a bulk transfer. A
// path-table hit returns the route at once with ok=true (nil hops for the
// loopback dst == self) and never calls w. A miss returns ok=false: the
// query goes to the controller (sharing the retry budget, failover and
// tracing of the packet path) and w hears the outcome when the route
// installs or the query is abandoned — at once when there is no controller
// to ask.
func (a *Agent) ResolveRoute(dst packet.MAC, flow FlowKey, w RouteWaiter) (packet.Path, []topo.PortRef, bool) {
	a.stats.BulkResolves++
	if dst == a.mac {
		return nil, nil, true
	}
	p := a.table.peer(dst)
	if tags, hops, ok := a.route(p, flow); ok {
		return tags, hops, true
	}
	if a.ctrl.IsZero() {
		w.RouteResolved(nil, nil, false)
		return nil, nil, false
	}
	a.query(p)
	p.q.waiters = append(p.q.waiters, pendingResolve{flow: flow, w: w})
	return nil, nil, false
}

// --- Packet-level windowed bulk transfer (fidelity reference) ---

// EtherTypeBulk is the inner payload type of the bulk-transfer protocol.
// It is dispatched inside the agent, before OnData.
const EtherTypeBulk uint16 = 0x88B5

// DefaultBulkMTU is the per-frame payload budget of a bulk transfer,
// matching what the fluid layer assumes when it converts bytes to wire
// bits.
const DefaultBulkMTU = 1500

// DefaultBulkWindow is the sender window in frames. At testbed RTTs a few
// tens of frames saturate a 10G path; the window only exists to keep the
// transfer ack-clocked (and therefore max-min fair against competing
// transfers) instead of dumping every frame into the first queue at once.
const DefaultBulkWindow = 64

// bulkHdrLen is the bulk protocol header inside the frame payload:
// kind(1) id(4) seq(4) total(4).
const bulkHdrLen = 13

const (
	bulkKindData = 0x01
	bulkKindAck  = 0x02
)

// BulkChunks returns the frame payload sizes a transfer of `bytes` payload
// bytes produces: full frames of mtu bytes and one tail frame, never
// smaller than the protocol header. The fluid layer uses the same
// function to convert a byte count into wire bits.
func BulkChunks(bytes int64, mtu int) (full int64, tail int) {
	if mtu < bulkHdrLen {
		mtu = bulkHdrLen
	}
	if bytes <= 0 {
		return 0, bulkHdrLen
	}
	full = bytes / int64(mtu)
	tail = int(bytes % int64(mtu))
	if tail == 0 {
		full--
		tail = mtu
	}
	if tail < bulkHdrLen {
		tail = bulkHdrLen
	}
	return full, tail
}

// bulkTx is one outbound transfer.
type bulkTx struct {
	dst    packet.MAC
	flow   FlowKey
	mtu    int
	window int
	bytes  int64
	total  uint32 // frame count
	next   uint32 // next unsent seq
	acked  uint32
	onDone func(at sim.Time)
}

// bulkRx tracks an inbound transfer: seen is a bitmap over frame seqs
// (reroutes can reorder frames).
type bulkRx struct {
	total uint32
	got   uint32
	seen  []uint64
}

// StartTransfer opens a packet-level bulk transfer of `bytes` payload
// bytes to dst and returns its transfer ID. onDone (optional) fires at the
// sender when the final ack arrives; the receiver-side completion is
// observable via OnBulkDone. mtu/window of 0 take the defaults.
func (a *Agent) StartTransfer(dst packet.MAC, bytes int64, flow FlowKey, mtu, window int, onDone func(at sim.Time)) uint32 {
	if mtu <= 0 {
		mtu = DefaultBulkMTU
	}
	if window <= 0 {
		window = DefaultBulkWindow
	}
	full, _ := BulkChunks(bytes, mtu)
	total := uint32(full) + 1
	a.bulkSeq++
	id := a.bulkSeq
	if a.bulkTx == nil {
		a.bulkTx = make(map[uint32]*bulkTx)
	}
	tx := &bulkTx{dst: dst, flow: flow, mtu: mtu, window: window, bytes: bytes, total: total, onDone: onDone}
	a.bulkTx[id] = tx
	a.stats.BulkTransfers++
	a.pumpBulk(id, tx)
	return id
}

// pumpBulk sends data frames until the window is full or the transfer is
// fully sent.
func (a *Agent) pumpBulk(id uint32, tx *bulkTx) {
	for tx.next < tx.total && tx.next-tx.acked < uint32(tx.window) {
		seq := tx.next
		tx.next++
		size := tx.mtu
		if seq == tx.total-1 {
			_, tail := BulkChunks(tx.bytes, tx.mtu)
			size = tail
		}
		payload := make([]byte, size)
		payload[0] = bulkKindData
		binary.BigEndian.PutUint32(payload[1:5], id)
		binary.BigEndian.PutUint32(payload[5:9], seq)
		binary.BigEndian.PutUint32(payload[9:13], tx.total)
		_ = a.Send(tx.dst, EtherTypeBulk, payload, tx.flow)
	}
}

// handleBulk dispatches bulk-protocol frames from p (called from deliver).
func (a *Agent) handleBulk(p *peer, payload []byte) {
	if len(payload) < bulkHdrLen {
		a.stats.BadFrames++
		return
	}
	id := binary.BigEndian.Uint32(payload[1:5])
	seq := binary.BigEndian.Uint32(payload[5:9])
	switch payload[0] {
	case bulkKindData:
		total := binary.BigEndian.Uint32(payload[9:13])
		if total == 0 {
			a.stats.BadFrames++
			return
		}
		if p.bulkRx == nil {
			p.bulkRx = make(map[uint32]*bulkRx)
		}
		rx := p.bulkRx[id]
		if rx == nil {
			rx = &bulkRx{total: total, seen: make([]uint64, (total+63)/64)}
			p.bulkRx[id] = rx
		}
		if seq < rx.total && rx.seen[seq/64]&(1<<(seq%64)) == 0 {
			rx.seen[seq/64] |= 1 << (seq % 64)
			rx.got++
		}
		done := rx.got == rx.total
		if done {
			delete(p.bulkRx, id)
			if a.OnBulkDone != nil {
				a.OnBulkDone(p.mac, id, a.eng.Now())
			}
		}
		ack := make([]byte, bulkHdrLen)
		ack[0] = bulkKindAck
		binary.BigEndian.PutUint32(ack[1:5], id)
		binary.BigEndian.PutUint32(ack[5:9], seq)
		_ = a.Send(p.mac, EtherTypeBulk, ack, FlowKey{Dst: p.mac, SrcPort: uint16(id), Proto: 0xBB})
	case bulkKindAck:
		tx := a.bulkTx[id]
		if tx == nil {
			return
		}
		tx.acked++
		if tx.acked == tx.total {
			delete(a.bulkTx, id)
			if tx.onDone != nil {
				tx.onDone(a.eng.Now())
			}
			return
		}
		a.pumpBulk(id, tx)
	default:
		a.stats.BadFrames++
	}
}
