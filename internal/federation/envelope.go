package federation

import (
	"encoding/binary"

	"dumbnet/internal/packet"
)

// The federation envelope: the overlay header carried inside ordinary
// DumbNet data payloads between a host and its border gateway, and raw on
// the WAN wire between gateways. Member fabrics stay untouched — switches
// forward the envelope like any other source-routed frame, and only the
// gateway glue and the destination host interpret it.

// Envelope kinds.
const (
	// EnvData carries an application payload across fabrics.
	EnvData byte = iota + 1
	// EnvEchoReq / EnvEchoRep implement the federated ping.
	EnvEchoReq
	EnvEchoRep
)

// envHeader is the fixed envelope header size:
// kind(1) srcFabric(1) dstFabric(1) ttl(1) src(6) dst(6) seq(8).
const envHeader = 24

// DefaultTTL bounds transit forwarding between fabrics; enough for any
// sane federation diameter, small enough to kill routing loops fast.
const DefaultTTL = 8

// Envelope is the decoded federation header.
type Envelope struct {
	Kind                 byte
	SrcFabric, DstFabric int
	TTL                  byte
	Src, Dst             packet.MAC
	Seq                  uint64
	// Payload aliases the decoded buffer; copy before retaining.
	Payload []byte
}

// AppendHeader appends the fixed 24-byte envelope header (everything but
// the payload) to dst. A sender puts the header in the head of a two-part
// host send and the payload in its body, so the envelope is assembled once,
// in the outgoing frame.
func (e Envelope) AppendHeader(dst []byte) []byte {
	dst = append(dst, e.Kind, byte(e.SrcFabric), byte(e.DstFabric), e.TTL)
	dst = append(dst, e.Src[:]...)
	dst = append(dst, e.Dst[:]...)
	return binary.BigEndian.AppendUint64(dst, e.Seq)
}

// Encode serializes the envelope, header and payload, into a fresh buffer.
func (e Envelope) Encode() []byte {
	return append(e.AppendHeader(make([]byte, 0, envHeader+len(e.Payload))), e.Payload...)
}

// DecodeEnvelope parses an envelope header in place (Payload aliases b).
func DecodeEnvelope(b []byte) (Envelope, bool) {
	if len(b) < envHeader {
		return Envelope{}, false
	}
	e := Envelope{
		Kind:      b[0],
		SrcFabric: int(b[1]),
		DstFabric: int(b[2]),
		TTL:       b[3],
		Seq:       binary.BigEndian.Uint64(b[16:24]),
		Payload:   b[envHeader:],
	}
	copy(e.Src[:], b[4:10])
	copy(e.Dst[:], b[10:16])
	return e, true
}

// decTTL decrements the TTL byte in a raw envelope, reporting false when
// the envelope is malformed or the TTL is exhausted.
func decTTL(b []byte) bool {
	if len(b) < envHeader || b[3] == 0 {
		return false
	}
	b[3]--
	return true
}
