package packet

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func mac(i byte) MAC { return MAC{0x02, 0, 0, 0, 0, i} }

func TestMACString(t *testing.T) {
	m := MAC{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01}
	if got := m.String(); got != "de:ad:be:ef:00:01" {
		t.Fatalf("String = %q", got)
	}
	if (MAC{}).IsZero() != true {
		t.Fatal("zero MAC should be zero")
	}
	if m.IsZero() {
		t.Fatal("non-zero MAC reported zero")
	}
}

func TestMACFromUint64Unique(t *testing.T) {
	seen := map[MAC]bool{}
	for i := uint64(0); i < 1000; i++ {
		m := MACFromUint64(i)
		if seen[m] {
			t.Fatalf("duplicate MAC for %d", i)
		}
		seen[m] = true
		if m[0]&0x01 != 0 {
			t.Fatalf("multicast bit set in %v", m)
		}
	}
}

func TestPathString(t *testing.T) {
	p := Path{2, 3, 5}
	if got := p.String(); got != "2-3-5-ø" {
		t.Fatalf("String = %q", got)
	}
	if got := (Path{}).String(); got != "ø" {
		t.Fatalf("empty path = %q", got)
	}
	if got := (Path{TagIDQuery, 9}).String(); got != "q-9-ø" {
		t.Fatalf("query path = %q", got)
	}
}

func TestPathReverseClone(t *testing.T) {
	p := Path{1, 2, 3}
	r := p.Reverse()
	if r[0] != 3 || r[2] != 1 {
		t.Fatalf("reverse = %v", r)
	}
	c := p.Clone()
	c[0] = 99
	if p[0] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := &Frame{
		Dst:       mac(5),
		Src:       mac(4),
		Tags:      Path{2, 3, 5},
		InnerType: EtherTypeIPv4,
		Payload:   []byte("hello dumbnet"),
	}
	buf, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != EncodedLen(3, len(f.Payload)) {
		t.Fatalf("len = %d, want %d", len(buf), EncodedLen(3, len(f.Payload)))
	}
	g, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Dst != f.Dst || g.Src != f.Src || g.InnerType != f.InnerType {
		t.Fatalf("header mismatch: %+v", g)
	}
	if !bytes.Equal(g.Tags, f.Tags) || !bytes.Equal(g.Payload, f.Payload) {
		t.Fatalf("body mismatch: %+v", g)
	}
}

func TestEncodeRejectsBadPath(t *testing.T) {
	f := &Frame{Tags: Path{1, TagEnd, 2}}
	if _, err := f.Encode(); !errors.Is(err, ErrInvalidPort) {
		t.Fatalf("err = %v, want ErrInvalidPort", err)
	}
	long := make(Path, MaxPathLen+1)
	f = &Frame{Tags: long}
	if _, err := f.Encode(); !errors.Is(err, ErrPathTooLong) {
		t.Fatalf("err = %v, want ErrPathTooLong", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrTooShort) {
		t.Fatalf("nil: %v", err)
	}
	// wrong ethertype
	f := &Frame{Dst: mac(1), Src: mac(2), InnerType: EtherTypeIPv4}
	buf, _ := f.Encode()
	buf[12] = 0x08
	buf[13] = 0x00
	if _, err := Decode(buf); !errors.Is(err, ErrNotDumbNet) {
		t.Fatalf("ethertype: %v", err)
	}
	// missing ø
	buf2, _ := (&Frame{Tags: Path{1, 2}, InnerType: EtherTypeIPv4, Payload: []byte{0}}).Encode()
	buf2[EthernetHeaderLen+2] = 7 // overwrite ø with a port
	if _, err := Decode(buf2[:EthernetHeaderLen+3]); err == nil {
		t.Fatal("expected error for missing ø")
	}
}

func TestTopTagAndPopTag(t *testing.T) {
	f := &Frame{Dst: mac(9), Src: mac(8), Tags: Path{2, 3, 5}, InnerType: EtherTypeIPv4, Payload: []byte("x")}
	buf, _ := f.Encode()

	tag, err := TopTag(buf)
	if err != nil || tag != 2 {
		t.Fatalf("TopTag = %d, %v", tag, err)
	}

	// Pop through the whole path like three switches would.
	want := []Tag{2, 3, 5}
	for i, w := range want {
		var popped Tag
		buf, popped, err = PopTag(buf)
		if err != nil || popped != w {
			t.Fatalf("hop %d: popped %d err %v", i, popped, err)
		}
		// After each pop, the Ethernet header must still be intact.
		g, err := Decode(buf)
		if err != nil {
			t.Fatalf("hop %d decode: %v", i, err)
		}
		if g.Dst != f.Dst || g.Src != f.Src {
			t.Fatalf("hop %d: header corrupted", i)
		}
		if len(g.Tags) != len(want)-i-1 {
			t.Fatalf("hop %d: %d tags remain", i, len(g.Tags))
		}
	}
	// Now only ø remains; popping must fail.
	if _, _, err = PopTag(buf); !errors.Is(err, ErrEmptyTagStack) {
		t.Fatalf("pop at end: %v", err)
	}
}

// Property: encode→decode round-trips arbitrary frames.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(dst, src [6]byte, rawTags []byte, payload []byte) bool {
		tags := make(Path, 0, len(rawTags))
		for _, b := range rawTags {
			if b != byte(TagEnd) {
				tags = append(tags, b)
			}
			if len(tags) == MaxPathLen {
				break
			}
		}
		fr := &Frame{Dst: MAC(dst), Src: MAC(src), Tags: tags, InnerType: EtherTypeIPv4, Payload: payload}
		buf, err := fr.Encode()
		if err != nil {
			return false
		}
		g, err := Decode(buf)
		if err != nil {
			return false
		}
		return g.Dst == fr.Dst && g.Src == fr.Src &&
			bytes.Equal(g.Tags, fr.Tags) && bytes.Equal(g.Payload, fr.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: popping all tags leaves a frame that decodes with no tags left
// and the original payload.
func TestFullPathConsumptionProperty(t *testing.T) {
	f := func(nTags uint8, payload []byte) bool {
		n := int(nTags % 16)
		tags := make(Path, n)
		for i := range tags {
			tags[i] = Tag(i + 1)
		}
		fr := &Frame{Dst: mac(1), Src: mac(2), Tags: tags, InnerType: EtherTypeIPv4, Payload: payload}
		buf, err := fr.Encode()
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			var tag Tag
			buf, tag, err = PopTag(buf)
			if err != nil || tag != Tag(i+1) {
				return false
			}
		}
		g, err := Decode(buf)
		if err != nil {
			return false
		}
		return len(g.Tags) == 0 && g.Dst == fr.Dst && g.Src == fr.Src &&
			g.InnerType == EtherTypeIPv4 && bytes.Equal(g.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeToShortBuffer(t *testing.T) {
	f := &Frame{Tags: Path{1}, Payload: []byte("abc")}
	buf := make([]byte, 5)
	if _, err := f.EncodeTo(buf); !errors.Is(err, ErrTooShort) {
		t.Fatalf("err = %v", err)
	}
}

// TestFrameCodecAllocFree guards the per-frame codec primitives: encoding
// into a caller's buffer, decoding into a caller's Frame and popping the
// top tag in place each cost 0 allocs/op.
func TestFrameCodecAllocFree(t *testing.T) {
	f := &Frame{Dst: mac(1), Src: mac(2), Tags: Path{2, 3, 5, 1}, InnerType: EtherTypeIPv4, Payload: make([]byte, 1450)}
	wire, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(wire))
	t.Run("EncodeTo", func(t *testing.T) {
		if n := testing.AllocsPerRun(1000, func() {
			if _, err := f.EncodeTo(buf); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Frame.EncodeTo: %v allocs/op, want 0", n)
		}
	})
	t.Run("DecodeFrom", func(t *testing.T) {
		var g Frame
		if n := testing.AllocsPerRun(1000, func() {
			if err := DecodeFrom(&g, wire); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("DecodeFrom: %v allocs/op, want 0", n)
		}
	})
	t.Run("PopTag", func(t *testing.T) {
		if n := testing.AllocsPerRun(1000, func() {
			copy(buf, wire)
			if _, _, err := PopTag(buf); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("PopTag: %v allocs/op, want 0", n)
		}
	})
}
