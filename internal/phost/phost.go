// Package phost implements a pHost-style receiver-driven transport on top
// of DumbNet host agents — the source-routing-friendly datacenter transport
// the paper points to as an easy extension (§6.1: "We can easily support
// existing source-routing based optimizations such as pHost").
//
// Protocol (after Gao et al., CoNEXT 2015, simplified):
//
//   - the sender announces a flow with an RTS carrying its size;
//   - the receiver paces TOKENs at its downlink rate, granting them to the
//     active flow with the shortest remaining size (SRPT);
//   - the sender emits one DATA packet per token (plus a small unsolicited
//     "free token" window to cover the first RTT);
//   - the receiver acknowledges completion with DONE.
//
// Because every packet is host-routed, tokens and data can take any of the
// k cached paths; the fabric needs nothing beyond dumb tag forwarding.
package phost

import (
	"cmp"
	"encoding/binary"
	"errors"
	"slices"

	"dumbnet/internal/host"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
)

// EtherTypePHost is the inner EtherType multiplexing transport frames.
const EtherTypePHost uint16 = 0x9802

// Transport constants: MTU-sized segments.
const (
	// packetBytes is the data segment size.
	packetBytes = 1450
	// freeTokens is the unsolicited-packet window at flow start.
	freeTokens = 8
	// stallTimeout is how long a fully-granted flow may sit incomplete
	// before the receiver reissues tokens for the missing segments (loss
	// recovery, e.g. across a link failure).
	stallTimeout = 5 * sim.Millisecond
)

// Config tunes the transport.
type Config struct {
	// DownlinkBps paces the receiver's token generation.
	DownlinkBps float64
}

// DefaultConfig matches a 10 GbE receiver.
func DefaultConfig() Config {
	return Config{DownlinkBps: 10e9}
}

// seqNext is the TOKEN hint meaning "send your next unsent segment".
const seqNext = ^uint64(0)

// Errors.
var (
	ErrFlowTooSmall = errors.New("phost: flow size must be positive")
	ErrBadFrame     = errors.New("phost: malformed transport frame")
)

// message kinds on the wire.
const (
	kindRTS byte = iota + 1
	kindToken
	kindData
	kindDone
)

// FlowID identifies a transfer from one sender.
type FlowID uint64

// wire format: kind(1) flowID(8) a(8) b(4) [payload]
func encodeMsg(kind byte, id FlowID, a uint64, b uint32, payload []byte) []byte {
	buf := make([]byte, 21+len(payload))
	buf[0] = kind
	binary.BigEndian.PutUint64(buf[1:9], uint64(id))
	binary.BigEndian.PutUint64(buf[9:17], a)
	binary.BigEndian.PutUint32(buf[17:21], b)
	copy(buf[21:], payload)
	return buf
}

func decodeMsg(b []byte) (kind byte, id FlowID, a uint64, c uint32, payload []byte, err error) {
	if len(b) < 21 {
		return 0, 0, 0, 0, nil, ErrBadFrame
	}
	return b[0], FlowID(binary.BigEndian.Uint64(b[1:9])),
		binary.BigEndian.Uint64(b[9:17]), binary.BigEndian.Uint32(b[17:21]), b[21:], nil
}

// sendFlow is sender-side state.
type sendFlow struct {
	id        FlowID
	dst       packet.MAC
	totalPkts uint64
	sentPkts  uint64
	done      func(at sim.Time)
}

// recvFlow is receiver-side state.
type recvFlow struct {
	id           FlowID
	src          packet.MAC
	totalPkts    uint64
	granted      uint64
	received     uint64
	got          []bool // per-segment receipt (dedupes retransmissions)
	lastProgress sim.Time
}

// Stats counts transport activity.
type Stats struct {
	FlowsSent     uint64
	FlowsReceived uint64
	DataPackets   uint64
	TokensSent    uint64
	FreeTokens    uint64
	Retransmits   uint64 // reissued tokens for lost segments
}

// Transport is one host's pHost endpoint.
type Transport struct {
	agent *host.Agent
	eng   *sim.Engine
	cfg   Config

	nextFlow FlowID
	sending  map[FlowID]*sendFlow
	// receiving is keyed by (src, id) since flow IDs are sender-local.
	receiving map[recvKey]*recvFlow
	pacing    bool

	prevOnData func(src packet.MAC, innerType uint16, payload []byte)

	stats Stats
}

type recvKey struct {
	src packet.MAC
	id  FlowID
}

// New attaches a transport to a (bootstrapped) host agent. Other traffic
// through the agent is unaffected: the transport chains the previous OnData
// handler for non-pHost frames.
func New(eng *sim.Engine, agent *host.Agent, cfg Config) *Transport {
	if cfg.DownlinkBps <= 0 {
		cfg.DownlinkBps = 10e9
	}
	t := &Transport{
		agent:     agent,
		eng:       eng,
		cfg:       cfg,
		sending:   make(map[FlowID]*sendFlow),
		receiving: make(map[recvKey]*recvFlow),
	}
	t.prevOnData = agent.OnData
	agent.OnData = t.onData
	return t
}

// Stats returns a copy of the counters.
func (t *Transport) Stats() Stats { return t.stats }

// packetTime is the token pacing interval.
func (t *Transport) packetTime() sim.Time {
	return sim.Time(float64(packetBytes*8) / t.cfg.DownlinkBps * 1e9)
}

// SendFlow starts a transfer of `bytes` to dst; done fires (in virtual
// time) when the receiver has everything.
func (t *Transport) SendFlow(dst packet.MAC, bytes int64, done func(duration sim.Time)) (FlowID, error) {
	if bytes <= 0 {
		return 0, ErrFlowTooSmall
	}
	t.nextFlow++
	id := t.nextFlow
	pkts := uint64((bytes + packetBytes - 1) / packetBytes)
	started := t.eng.Now()
	f := &sendFlow{id: id, dst: dst, totalPkts: pkts}
	if done != nil {
		f.done = func(at sim.Time) { done(at - started) }
	}
	t.sending[id] = f
	t.stats.FlowsSent++
	// RTS announces the flow size (in packets).
	if err := t.send(dst, encodeMsg(kindRTS, id, pkts, 0, nil)); err != nil {
		delete(t.sending, id)
		return 0, err
	}
	// Free-token window: cover the first RTT unsolicited.
	free := uint64(freeTokens)
	if free > pkts {
		free = pkts
	}
	for i := uint64(0); i < free; i++ {
		t.stats.FreeTokens++
		t.sendData(f, seqNext)
	}
	return id, nil
}

// send routes a transport frame through the agent.
func (t *Transport) send(dst packet.MAC, payload []byte) error {
	return t.agent.Send(dst, EtherTypePHost, payload, host.FlowKey{Dst: dst, Proto: 0x50})
}

// sendData emits a data segment: the next unsent one for seqNext, or a
// retransmission of an explicit sequence.
func (t *Transport) sendData(f *sendFlow, seqHint uint64) {
	seq := seqHint
	if seq == seqNext {
		if f.sentPkts >= f.totalPkts {
			return
		}
		seq = f.sentPkts
		f.sentPkts++
	} else if seq >= f.totalPkts {
		return
	}
	t.stats.DataPackets++
	pad := make([]byte, packetBytes-21)
	_ = t.send(f.dst, encodeMsg(kindData, f.id, seq, 0, pad))
}

// onData dispatches transport frames and chains everything else.
func (t *Transport) onData(src packet.MAC, innerType uint16, payload []byte) {
	if innerType != EtherTypePHost {
		if t.prevOnData != nil {
			t.prevOnData(src, innerType, payload)
		}
		return
	}
	kind, id, a, _, _, err := decodeMsg(payload)
	if err != nil {
		return
	}
	switch kind {
	case kindRTS:
		t.onRTS(src, id, a)
	case kindToken:
		if f, ok := t.sending[id]; ok {
			t.sendData(f, a)
		}
	case kindData:
		t.onDataSegment(src, id, a)
	case kindDone:
		if f, ok := t.sending[id]; ok {
			delete(t.sending, id)
			if f.done != nil {
				f.done(t.eng.Now())
			}
		}
	}
}

// onRTS registers an incoming flow and starts the token pacer.
func (t *Transport) onRTS(src packet.MAC, id FlowID, pkts uint64) {
	key := recvKey{src: src, id: id}
	if _, ok := t.receiving[key]; ok {
		return
	}
	t.receiving[key] = &recvFlow{
		id: id, src: src, totalPkts: pkts,
		got:          make([]bool, pkts),
		lastProgress: t.eng.Now(),
	}
	t.stats.FlowsReceived++
	// The free-token window is implicitly granted.
	free := uint64(freeTokens)
	if free > pkts {
		free = pkts
	}
	t.receiving[key].granted = free
	t.ensurePacing()
}

// onDataSegment accounts received data (deduplicated by sequence) and
// finishes flows.
func (t *Transport) onDataSegment(src packet.MAC, id FlowID, seq uint64) {
	key := recvKey{src: src, id: id}
	f, ok := t.receiving[key]
	if !ok || seq >= uint64(len(f.got)) || f.got[seq] {
		return
	}
	f.got[seq] = true
	f.received++
	f.lastProgress = t.eng.Now()
	if f.received >= f.totalPkts {
		delete(t.receiving, key)
		_ = t.send(src, encodeMsg(kindDone, id, 0, 0, nil))
	}
}

// ensurePacing starts the token loop if idle.
func (t *Transport) ensurePacing() {
	if t.pacing {
		return
	}
	t.pacing = true
	t.eng.After(t.packetTime(), t.tokenTick)
}

// tokenTick grants one token per packet-time to the SRPT-preferred flow —
// the smallest remaining grant budget first, like pHost's default receiver
// policy — or reissues tokens for missing segments of stalled flows (loss
// recovery).
func (t *Transport) tokenTick() {
	if len(t.receiving) == 0 {
		t.pacing = false
		return
	}
	flows := t.flowsBySRPT()
	for _, f := range flows {
		if f.granted < f.totalPkts {
			f.granted++
			t.stats.TokensSent++
			_ = t.send(f.src, encodeMsg(kindToken, f.id, seqNext, 0, nil))
			t.eng.After(t.packetTime(), t.tokenTick)
			return
		}
	}
	// Everything is granted but some flows are incomplete: retransmission
	// tokens for the segments a stalled flow is missing.
	now := t.eng.Now()
	for _, f := range flows {
		if now-f.lastProgress < stallTimeout {
			continue
		}
		reissued := 0
		for seq := uint64(0); seq < f.totalPkts && reissued < freeTokens; seq++ {
			if !f.got[seq] {
				t.stats.TokensSent++
				t.stats.Retransmits++
				_ = t.send(f.src, encodeMsg(kindToken, f.id, seq, 0, nil))
				reissued++
			}
		}
		f.lastProgress = now // back off before the next reissue round
	}
	t.eng.After(stallTimeout, t.tokenTick)
}

// flowsBySRPT lists the receiving flows by remaining grant budget, then
// FlowID, then sender MAC. A FlowID is local to its sender, so only the
// MAC makes the order total and keeps map order off the wire.
func (t *Transport) flowsBySRPT() []*recvFlow {
	flows := make([]*recvFlow, 0, len(t.receiving))
	for _, f := range t.receiving {
		flows = append(flows, f)
	}
	slices.SortFunc(flows, func(a, b *recvFlow) int {
		return cmp.Or(cmp.Compare(a.totalPkts-a.granted, b.totalPkts-b.granted),
			cmp.Compare(a.id, b.id), cmp.Compare(a.src.Uint64(), b.src.Uint64()))
	})
	return flows
}
