package federation

import (
	"bytes"
	"testing"

	"dumbnet/internal/packet"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	e := Envelope{
		Kind:      EnvEchoReq,
		SrcFabric: 1,
		DstFabric: 3,
		TTL:       DefaultTTL,
		Src:       packet.MACFromUint64(0x10_0007),
		Dst:       packet.MACFromUint64(0x30_0042),
		Seq:       0xdeadbeefcafe,
		Payload:   []byte("metro"),
	}
	buf := e.Encode()
	got, ok := DecodeEnvelope(buf)
	if !ok {
		t.Fatal("round-trip decode failed")
	}
	if got.Kind != e.Kind || got.SrcFabric != e.SrcFabric || got.DstFabric != e.DstFabric ||
		got.TTL != e.TTL || got.Src != e.Src || got.Dst != e.Dst || got.Seq != e.Seq {
		t.Fatalf("header mangled: %+v vs %+v", got, e)
	}
	if !bytes.Equal(got.Payload, e.Payload) {
		t.Fatalf("payload mangled: %q", got.Payload)
	}
}

func TestEnvelopeDecodeShort(t *testing.T) {
	if _, ok := DecodeEnvelope(make([]byte, envHeader-1)); ok {
		t.Fatal("decoded a truncated envelope")
	}
	if _, ok := DecodeEnvelope(nil); ok {
		t.Fatal("decoded nil")
	}
}

func TestEnvelopeTTLExpiry(t *testing.T) {
	e := Envelope{Kind: EnvData, TTL: 2}
	buf := e.Encode()
	if !decTTL(buf) {
		t.Fatal("ttl 2 -> 1 should pass")
	}
	if !decTTL(buf) {
		t.Fatal("ttl 1 -> 0 should pass")
	}
	if decTTL(buf) {
		t.Fatal("ttl 0 must expire")
	}
	got, ok := DecodeEnvelope(buf)
	if !ok || got.TTL != 0 {
		t.Fatalf("in-place decrement lost: ttl=%d ok=%v", got.TTL, ok)
	}
}

// FuzzDecodeEnvelope: the envelope is parsed from bytes a remote fabric
// wrote. Whatever arrives, decoding must not panic, a decoded header must
// re-encode to the same 24 bytes, Payload must alias the input rather than
// copy it, and the transit TTL must stop at 0 instead of wrapping to 255.
func FuzzDecodeEnvelope(f *testing.F) {
	roundTrip := Envelope{
		Kind: EnvEchoReq, SrcFabric: 1, DstFabric: 3, TTL: DefaultTTL,
		Src: packet.MACFromUint64(0x10_0007), Dst: packet.MACFromUint64(0x30_0042),
		Seq: 0xdeadbeefcafe, Payload: []byte("metro"),
	}.Encode()
	f.Add(roundTrip)
	f.Add(Envelope{Kind: EnvData, TTL: 2}.Encode())
	f.Add([]byte(nil))
	f.Add(roundTrip[:envHeader-1])

	f.Fuzz(func(t *testing.T, b []byte) {
		orig := append([]byte(nil), b...)
		e, ok := DecodeEnvelope(b)
		if ok != (len(b) >= envHeader) {
			t.Fatalf("DecodeEnvelope ok = %v on %d bytes", ok, len(b))
		}
		if !bytes.Equal(b, orig) {
			t.Fatal("DecodeEnvelope wrote to its input")
		}
		if !ok {
			if decTTL(b) || !bytes.Equal(b, orig) {
				t.Fatal("decTTL accepted or touched a truncated envelope")
			}
			return
		}
		if !bytes.Equal(e.Encode(), orig) {
			t.Fatalf("re-encode differs: % x vs % x", e.Encode(), orig)
		}
		if len(e.Payload) != len(b)-envHeader {
			t.Fatalf("payload is %d bytes of a %d-byte envelope", len(e.Payload), len(b))
		}
		if len(e.Payload) > 0 && &e.Payload[0] != &b[envHeader] {
			t.Fatal("Payload is a copy, not an alias of b[24:]")
		}
		ttl := b[3]
		if decTTL(b) != (ttl > 0) {
			t.Fatalf("decTTL at ttl %d = %v", ttl, ttl == 0)
		}
		if ttl > 0 {
			orig[3]--
		}
		if !bytes.Equal(b, orig) {
			t.Fatalf("decTTL at ttl %d left % x, want % x", ttl, b[:envHeader], orig[:envHeader])
		}
	})
}
