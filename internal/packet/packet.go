// Package packet implements the DumbNet wire format (paper §5.1, Figure 3).
//
// A DumbNet frame keeps the original Ethernet header intact and inserts a
// stack of one-byte routing tags between the Ethernet header and the inner
// payload. The Ethernet header carries EtherType 0x9800 so DumbNet traffic
// can coexist with ordinary Ethernet traffic on the same fabric. Each tag
// names the output port at one hop; the special tag ø (0xFF) marks the end
// of the path, and tag 0 asks the switch at that hop to reply with its
// unique ID (used during topology discovery).
//
// The package also provides an MPLS-based encoding of the same tag stack,
// mirroring the paper's deployment on commodity switches with static
// MPLS label→port rules.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// EtherType values used by DumbNet.
const (
	// EtherTypeDumbNet marks a frame whose header carries a DumbNet tag stack.
	EtherTypeDumbNet uint16 = 0x9800
	// EtherTypeMPLS marks the MPLS unicast encoding of the tag stack.
	EtherTypeMPLS uint16 = 0x8847
	// EtherTypeIPv4 is the usual inner payload type.
	EtherTypeIPv4 uint16 = 0x0800
)

// Tag is a one-byte routing tag: the output port number at one hop.
type Tag = uint8

// Reserved tag values.
const (
	// TagIDQuery asks the switch at this hop to reply with its unique ID
	// instead of forwarding (paper §4.1).
	TagIDQuery Tag = 0x00
	// TagEnd is ø, the end-of-path marker (paper §3.2 sets it to 0xFF).
	TagEnd Tag = 0xFF
	// MaxPort is the largest encodable output port number.
	MaxPort Tag = 0xFE
)

// EthernetHeaderLen is the length of the (untagged) Ethernet header.
const EthernetHeaderLen = 14

// The native DumbNet header carries one flags byte at a fixed offset right
// after the EtherType, so a switch can set congestion marks with a
// constant-offset OR — no parsing, no state (the paper's §8 ECN extension:
// "these mechanisms either require no state, or only soft state").
const (
	// FlagsOffset is the flags byte position in an encoded frame.
	FlagsOffset = EthernetHeaderLen
	// FlagCE is the congestion-experienced mark.
	FlagCE uint8 = 0x01
)

// headerLen is the fixed prefix before the tag stack: Ethernet + flags.
const headerLen = EthernetHeaderLen + 1

// MAC is a 48-bit Ethernet address, the host identity in DumbNet.
type MAC [6]byte

// String renders the address in the canonical colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsZero reports whether the address is all zeros.
func (m MAC) IsZero() bool { return m == MAC{} }

// Uint64 packs the address big-endian into the low 48 bits, so integer
// order is byte order: the one MAC order every sorted list and search in
// the fabric uses.
func (m MAC) Uint64() uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(binary.BigEndian.Uint32(m[2:]))
}

// MACFromUint64 derives a locally-administered unicast MAC from an integer,
// convenient for assigning unique host addresses in simulations.
func MACFromUint64(v uint64) MAC {
	var m MAC
	binary.BigEndian.PutUint32(m[2:], uint32(v))
	m[1] = byte(v >> 32)
	m[0] = 0x02 // locally administered, unicast
	return m
}

// BroadcastMAC is the all-ones Ethernet broadcast address.
var BroadcastMAC = MAC{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}

// Path is a hop-by-hop sequence of output ports, excluding the ø terminator.
type Path []Tag

// String renders a path like "2-3-5-ø" (paper §3.2 notation).
func (p Path) String() string {
	var b strings.Builder
	for _, t := range p {
		switch t {
		case TagEnd:
			b.WriteString("ø")
		case TagIDQuery:
			b.WriteString("q")
		default:
			b.WriteString(strconv.Itoa(int(t)))
		}
		b.WriteByte('-')
	}
	b.WriteString("ø")
	return b.String()
}

// Reverse returns the path reversed. Reversing the tag sequence alone is not
// sufficient for a return path in general (ports differ per direction); this
// helper is for paths already expressed as the reverse port sequence.
func (p Path) Reverse() Path {
	out := make(Path, len(p))
	for i, t := range p {
		out[len(p)-1-i] = t
	}
	return out
}

// Clone returns a copy of the path.
func (p Path) Clone() Path {
	return append(Path(nil), p...)
}

// Frame is a parsed DumbNet frame.
type Frame struct {
	Dst, Src  MAC
	Flags     uint8  // header flags (FlagCE = congestion experienced)
	Tags      Path   // remaining routing tags, excluding the ø terminator
	InnerType uint16 // EtherType of the encapsulated payload (e.g. IPv4)
	Payload   []byte
}

// Errors returned by frame parsing and switch-side tag handling.
var (
	ErrTooShort       = errors.New("packet: frame too short")
	ErrNotDumbNet     = errors.New("packet: not a DumbNet frame")
	ErrNoEndTag       = errors.New("packet: tag stack missing ø terminator")
	ErrNotAtEnd       = errors.New("packet: remaining tags before ø at host")
	ErrPathTooLong    = errors.New("packet: path exceeds maximum encodable length")
	ErrInvalidPort    = errors.New("packet: invalid output port in path")
	ErrTruncatedMPLS  = errors.New("packet: truncated MPLS label stack")
	ErrNotMPLS        = errors.New("packet: not an MPLS frame")
	ErrEmptyTagStack  = errors.New("packet: empty tag stack")
	ErrBadControlMsg  = errors.New("packet: malformed control message")
	ErrUnknownMsgType = errors.New("packet: unknown control message type")
)

// MaxPathLen bounds the number of tags in one frame. Data-center diameters
// are small; 64 hops is far beyond any realistic path and keeps headers
// bounded.
const MaxPathLen = 64

// ValidatePath checks that every tag in the path is an encodable port number
// or the ID-query marker, and that the path length is within bounds.
func ValidatePath(p Path) error {
	if len(p) > MaxPathLen {
		return ErrPathTooLong
	}
	for _, t := range p {
		if t == TagEnd {
			return ErrInvalidPort
		}
	}
	return nil
}

// EncodedLen returns the wire length of a frame carrying the given path and
// payload in the native DumbNet encoding.
func EncodedLen(pathLen, payloadLen int) int {
	// Ethernet header + flags + tags + ø + inner EtherType + payload.
	return headerLen + pathLen + 1 + 2 + payloadLen
}

// Encode serialises the frame in the native DumbNet encoding:
//
//	dst(6) src(6) 0x9800(2) flags(1) T1..Tn ø innerType(2) payload
func (f *Frame) Encode() ([]byte, error) {
	if err := ValidatePath(f.Tags); err != nil {
		return nil, err
	}
	buf := make([]byte, EncodedLen(len(f.Tags), len(f.Payload)))
	n, err := f.EncodeTo(buf)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// EncodeTo serialises the frame into buf, returning the number of bytes
// written. buf must be at least EncodedLen(len(f.Tags), len(f.Payload)).
func (f *Frame) EncodeTo(buf []byte) (int, error) {
	if err := ValidatePath(f.Tags); err != nil {
		return 0, err
	}
	need := EncodedLen(len(f.Tags), len(f.Payload))
	if len(buf) < need {
		return 0, ErrTooShort
	}
	copy(buf[0:6], f.Dst[:])
	copy(buf[6:12], f.Src[:])
	binary.BigEndian.PutUint16(buf[12:14], EtherTypeDumbNet)
	buf[FlagsOffset] = f.Flags
	off := headerLen
	for _, t := range f.Tags {
		buf[off] = t
		off++
	}
	buf[off] = TagEnd
	off++
	binary.BigEndian.PutUint16(buf[off:off+2], f.InnerType)
	off += 2
	copy(buf[off:], f.Payload)
	return need, nil
}

// Decode parses a native DumbNet frame. The returned Frame's Tags and
// Payload alias buf.
func Decode(buf []byte) (*Frame, error) {
	f := new(Frame)
	if err := DecodeFrom(f, buf); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeFrom parses a native DumbNet frame into a caller-provided Frame —
// the zero-allocation form of Decode for hot paths that reuse one Frame per
// receiver. The decoded Tags and Payload alias buf; every field of f is
// overwritten.
func DecodeFrom(f *Frame, buf []byte) error {
	if len(buf) < headerLen+1+2 {
		return ErrTooShort
	}
	et := binary.BigEndian.Uint16(buf[12:14])
	if et != EtherTypeDumbNet {
		return ErrNotDumbNet
	}
	copy(f.Dst[:], buf[0:6])
	copy(f.Src[:], buf[6:12])
	f.Flags = buf[FlagsOffset]
	off := headerLen
	end := -1
	for i := off; i < len(buf) && i < off+MaxPathLen+1; i++ {
		if buf[i] == TagEnd {
			end = i
			break
		}
	}
	if end < 0 {
		f.Tags, f.Payload = nil, nil
		return ErrNoEndTag
	}
	if len(buf) < end+3 {
		f.Tags, f.Payload = nil, nil
		return ErrTooShort
	}
	f.Tags = Path(buf[off:end])
	f.InnerType = binary.BigEndian.Uint16(buf[end+1 : end+3])
	f.Payload = buf[end+3:]
	return nil
}

// TopTag returns the first routing tag of an encoded DumbNet frame without
// parsing the rest — exactly the examination a dumb switch performs.
func TopTag(buf []byte) (Tag, error) {
	if len(buf) < headerLen+1 {
		return 0, ErrTooShort
	}
	if binary.BigEndian.Uint16(buf[12:14]) != EtherTypeDumbNet {
		return 0, ErrNotDumbNet
	}
	return buf[headerLen], nil
}

// PopTag removes the first routing tag from an encoded DumbNet frame in
// place (shifting the header right by one byte) and returns the shortened
// slice along with the removed tag. This mirrors the constant-work
// pop-label stage of the hardware switch: no table lookup, no full parse.
func PopTag(buf []byte) ([]byte, Tag, error) {
	tag, err := TopTag(buf)
	if err != nil {
		return buf, 0, err
	}
	if tag == TagEnd {
		return buf, tag, ErrEmptyTagStack
	}
	// Shift the Ethernet header + flags byte right over the consumed tag.
	copy(buf[1:headerLen+1], buf[0:headerLen])
	return buf[1:], tag, nil
}

// MarkCE sets the congestion-experienced flag on an encoded native frame —
// the constant-offset write a marking switch performs. Unicast and
// multicast headers share the flags offset. It is a no-op on non-DumbNet
// frames.
func MarkCE(buf []byte) {
	if len(buf) > FlagsOffset && hasNativeFlags(buf) {
		buf[FlagsOffset] |= FlagCE
	}
}

// HasCE reports whether an encoded native frame carries the CE mark.
func HasCE(buf []byte) bool {
	return len(buf) > FlagsOffset && hasNativeFlags(buf) &&
		buf[FlagsOffset]&FlagCE != 0
}

func hasNativeFlags(buf []byte) bool {
	et := binary.BigEndian.Uint16(buf[12:14])
	return et == EtherTypeDumbNet || et == EtherTypeDumbNetMcast
}
