package packet

import "encoding/binary"

// Writer and Reader are the one big-endian field codec behind every
// control-plane wire format: the control messages in control.go and the
// topology, subgraph, path-graph and patch payloads in package topo. The
// frame codecs (packet.go, mpls.go, mcast.go) stay hand-written: they
// work in place on pooled buffers.

// Writer appends fields to a growing byte slice.
type Writer struct{ b []byte }

// NewWriter returns a Writer whose buffer starts with room for size bytes.
func NewWriter(size int) Writer { return Writer{b: make([]byte, 0, size)} }

// Bytes returns everything written so far.
func (w *Writer) Bytes() []byte { return w.b }

// Reset empties w, keeping its buffer for the next message.
func (w *Writer) Reset() { w.b = w.b[:0] }

// U8, U16, U32, U64, MAC and Raw each append one field; Raw appends p as is.
func (w *Writer) U8(v uint8)   { w.b = append(w.b, v) }
func (w *Writer) U16(v uint16) { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *Writer) U32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *Writer) U64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *Writer) MAC(m MAC)    { w.b = append(w.b, m[:]...) }
func (w *Writer) Raw(p []byte) { w.b = append(w.b, p...) }

// Bool writes v as one byte, 1 or 0.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Path writes a u16 tag count and the tags, truncated to MaxPathLen so the
// result is always one Reader.Path accepts.
func (w *Writer) Path(p Path) {
	p = p[:min(len(p), MaxPathLen)]
	w.U16(uint16(len(p)))
	w.Raw(p)
}

// Reader consumes fields from a byte slice. A read past the end fails the
// Reader, and from then on every read returns zero: a decoder reads its
// whole layout and checks Ok once.
type Reader struct {
	b      []byte
	failed bool
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Ok reports whether every read so far was in bounds and valid.
func (r *Reader) Ok() bool { return !r.failed }

// Fail marks the input malformed, for a decoder's own checks (a count over
// its cap, an unknown kind).
func (r *Reader) Fail() { r.b, r.failed = nil, true }

// Skip consumes n bytes unread, failing the Reader if fewer remain.
func (r *Reader) Skip(n int) { r.next(n) }

// Rest returns the unread bytes without consuming them.
func (r *Reader) Rest() []byte { return r.b }

// next consumes n bytes, or fails the Reader and returns nil.
func (r *Reader) next(n int) []byte {
	if len(r.b) < n {
		r.Fail()
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// U8, U16, U32, U64 and MAC each consume one field.
func (r *Reader) U8() uint8 {
	if v := r.next(1); v != nil {
		return v[0]
	}
	return 0
}

func (r *Reader) U16() uint16 {
	if v := r.next(2); v != nil {
		return binary.BigEndian.Uint16(v)
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if v := r.next(4); v != nil {
		return binary.BigEndian.Uint32(v)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if v := r.next(8); v != nil {
		return binary.BigEndian.Uint64(v)
	}
	return 0
}

func (r *Reader) MAC() (m MAC) {
	copy(m[:], r.next(6))
	return m
}

// Bool reads one byte; any non-zero value is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Path reads a u16 tag count and that many tags into a fresh slice (nil
// when empty). A count over MaxPathLen fails the Reader.
func (r *Reader) Path() Path {
	n := int(r.U16())
	if n > MaxPathLen {
		r.Fail()
		return nil
	}
	return Path(append([]byte(nil), r.next(n)...))
}
