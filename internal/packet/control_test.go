package packet

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestControlProbeRoundTrip(t *testing.T) {
	in := &Probe{Origin: mac(3), Seq: 42, Path: Path{1, 2, 9}, Return: Path{7, 8}}
	b, err := EncodeControl(MsgProbe, in)
	if err != nil {
		t.Fatal(err)
	}
	typ, out, err := DecodeControl(b)
	if err != nil || typ != MsgProbe {
		t.Fatalf("decode: %v %v", typ, err)
	}
	got := out.(*Probe)
	if got.Origin != in.Origin || got.Seq != in.Seq || !bytes.Equal(got.Path, in.Path) || !bytes.Equal(got.Return, in.Return) {
		t.Fatalf("mismatch: %+v", got)
	}
}

func TestControlProbeReplyRoundTrip(t *testing.T) {
	in := &ProbeReply{Responder: mac(8), Seq: 7, Path: Path{5, 9}, KnowsCtrl: true}
	b, err := EncodeControl(MsgProbeReply, in)
	if err != nil {
		t.Fatal(err)
	}
	typ, out, err := DecodeControl(b)
	if err != nil || typ != MsgProbeReply {
		t.Fatalf("decode: %v %v", typ, err)
	}
	got := out.(*ProbeReply)
	if got.Responder != in.Responder || !got.KnowsCtrl || !bytes.Equal(got.Path, in.Path) {
		t.Fatalf("mismatch: %+v", got)
	}
}

func TestControlIDReplyRoundTrip(t *testing.T) {
	in := &IDReply{ID: 0xDEADBEEF, Seq: 11}
	b, err := EncodeControl(MsgIDReply, in)
	if err != nil {
		t.Fatal(err)
	}
	typ, out, err := DecodeControl(b)
	if err != nil || typ != MsgIDReply {
		t.Fatalf("decode: %v %v", typ, err)
	}
	got := out.(*IDReply)
	if got.ID != in.ID || got.Seq != in.Seq {
		t.Fatalf("mismatch: %+v", got)
	}
}

func TestControlLinkEventRoundTrip(t *testing.T) {
	in := &LinkEvent{Switch: 77, Port: 12, Up: false, Seq: 3, HopsLeft: 5}
	b, err := EncodeControl(MsgLinkEvent, in)
	if err != nil {
		t.Fatal(err)
	}
	typ, out, err := DecodeControl(b)
	if err != nil || typ != MsgLinkEvent {
		t.Fatalf("decode: %v %v", typ, err)
	}
	got := out.(*LinkEvent)
	if *got != *in {
		t.Fatalf("mismatch: %+v != %+v", got, in)
	}
}

func TestControlPathRequestRoundTrip(t *testing.T) {
	in := &PathRequest{Src: mac(1), Dst: mac(2), Seq: 99}
	b, err := EncodeControl(MsgPathRequest, in)
	if err != nil {
		t.Fatal(err)
	}
	typ, out, err := DecodeControl(b)
	if err != nil || typ != MsgPathRequest {
		t.Fatalf("decode: %v %v", typ, err)
	}
	got := out.(*PathRequest)
	if *got != *in {
		t.Fatalf("mismatch: %+v", got)
	}
}

func TestControlCtrlListRoundTrip(t *testing.T) {
	in := &CtrlList{Seq: 42, Replicas: []CtrlReplica{
		{MAC: mac(9), Path: Path{}},
		{MAC: mac(10), Path: Path{3, 1, 4}},
		{MAC: mac(11), Path: Path{2}},
	}}
	b, err := EncodeControl(MsgCtrlList, in)
	if err != nil {
		t.Fatal(err)
	}
	typ, out, err := DecodeControl(b)
	if err != nil || typ != MsgCtrlList {
		t.Fatalf("decode: %v %v", typ, err)
	}
	got := out.(*CtrlList)
	if got.Seq != in.Seq || len(got.Replicas) != len(in.Replicas) {
		t.Fatalf("mismatch: %+v", got)
	}
	for i, r := range got.Replicas {
		if r.MAC != in.Replicas[i].MAC || !bytes.Equal(r.Path, in.Replicas[i].Path) {
			t.Fatalf("replica %d mismatch: %+v != %+v", i, r, in.Replicas[i])
		}
	}
}

func TestControlBlobRoundTrip(t *testing.T) {
	for _, typ := range []MsgType{MsgPathResponse, MsgTopoPatch, MsgHostFlood} {
		in := &Blob{Seq: 5, Body: []byte("opaque body")}
		b, err := EncodeControl(typ, in)
		if err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		gt, out, err := DecodeControl(b)
		if err != nil || gt != typ {
			t.Fatalf("%v decode: %v %v", typ, gt, err)
		}
		got := out.(*Blob)
		if got.Seq != in.Seq || !bytes.Equal(got.Body, in.Body) {
			t.Fatalf("%v mismatch: %+v", typ, got)
		}
	}
}

func TestControlTypeMismatch(t *testing.T) {
	if _, err := EncodeControl(MsgProbe, &IDReply{}); !errors.Is(err, ErrBadControlMsg) {
		t.Fatalf("err = %v", err)
	}
	if _, err := EncodeControl(MsgType(200), &Blob{}); !errors.Is(err, ErrUnknownMsgType) {
		t.Fatalf("err = %v", err)
	}
}

func TestControlDecodeMalformed(t *testing.T) {
	if _, _, err := DecodeControl(nil); !errors.Is(err, ErrBadControlMsg) {
		t.Fatalf("nil: %v", err)
	}
	if _, _, err := DecodeControl([]byte{byte(MsgProbe), 1, 2}); !errors.Is(err, ErrBadControlMsg) {
		t.Fatalf("short probe: %v", err)
	}
	if _, _, err := DecodeControl([]byte{250}); !errors.Is(err, ErrUnknownMsgType) {
		t.Fatalf("unknown type: %v", err)
	}
	// Blob with wrong length prefix.
	b, _ := EncodeControl(MsgPathResponse, &Blob{Body: []byte("abcd")})
	if _, _, err := DecodeControl(b[:len(b)-1]); !errors.Is(err, ErrBadControlMsg) {
		t.Fatalf("truncated blob: %v", err)
	}
}

func TestMsgTypeString(t *testing.T) {
	names := map[MsgType]string{
		MsgProbe: "probe", MsgProbeReply: "probe-reply", MsgIDReply: "id-reply",
		MsgLinkEvent: "link-event", MsgHostFlood: "host-flood",
		MsgPathRequest: "path-request", MsgPathResponse: "path-response",
		MsgTopoPatch: "topo-patch",
	}
	for typ, want := range names {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
	if got := MsgType(123).String(); got != "msgtype(123)" {
		t.Errorf("unknown = %q", got)
	}
}

// Wire number 9 is reserved: both directions refuse it. (The later types'
// byte values are pinned by TestControlWireGolden.)
func TestReservedMsgType(t *testing.T) {
	reserved := MsgType(9)
	if _, err := EncodeControl(reserved, &Blob{Body: []byte("x")}); !errors.Is(err, ErrUnknownMsgType) {
		t.Fatalf("encode 9: %v", err)
	}
	if _, _, err := DecodeControl([]byte{9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); !errors.Is(err, ErrUnknownMsgType) {
		t.Fatalf("decode 9: %v", err)
	}
	if got := reserved.String(); got != "msgtype(9)" {
		t.Fatalf("9.String() = %q", got)
	}
}

// Property: arbitrary LinkEvents round-trip.
func TestLinkEventProperty(t *testing.T) {
	f := func(sw uint32, port, hops uint8, up bool, seq uint64) bool {
		in := &LinkEvent{Switch: SwitchID(sw), Port: port, Up: up, Seq: seq, HopsLeft: hops}
		b, err := EncodeControl(MsgLinkEvent, in)
		if err != nil {
			return false
		}
		_, out, err := DecodeControl(b)
		if err != nil {
			return false
		}
		return *out.(*LinkEvent) == *in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Decoding random bytes is covered by the native fuzz targets in
// fuzz_test.go (FuzzDecodeControl and friends), which replaced the old
// quick.Check property here with mutation-guided corpora and a full
// encode∘decode round-trip check.

// Allocations per encode and decode, one message of each size class: an
// encode sizes its buffer once, and a decode allocates the message and
// each path or body it copies out of the frame.
func TestControlCodecAllocs(t *testing.T) {
	cases := []struct {
		t        MsgType
		msg      any
		enc, dec float64
	}{
		{MsgProbe, &Probe{Origin: mac(1), Seq: 7, Path: Path{1, 2, 3, 4}, Return: Path{4, 3, 2, 1}}, 1, 3},
		{MsgLinkEvent, &LinkEvent{Switch: 3, Port: 2, Up: true, Seq: 5, HopsLeft: 4}, 1, 1},
		{MsgPathRequest, &PathRequest{Src: mac(1), Dst: mac(2), Seq: 1}, 1, 1},
		{MsgCtrlList, &CtrlList{Seq: 2, Replicas: []CtrlReplica{{MAC: mac(1), Path: Path{1, 2}}, {MAC: mac(2), Path: Path{3}}}}, 1, 5},
		{MsgPathResponse, &Blob{Seq: 4, Body: make([]byte, 300)}, 1, 2},
	}
	for _, c := range cases {
		b, err := EncodeControl(c.t, c.msg)
		if err != nil {
			t.Fatalf("%v: %v", c.t, err)
		}
		enc := testing.AllocsPerRun(100, func() { _, _ = EncodeControl(c.t, c.msg) })
		dec := testing.AllocsPerRun(100, func() { _, _, _ = DecodeControl(b) })
		t.Logf("%v: encode %.0f allocs, decode %.0f", c.t, enc, dec)
		if enc > c.enc || dec > c.dec {
			t.Errorf("%v: encode %.0f allocs (max %.0f), decode %.0f (max %.0f)", c.t, enc, c.enc, dec, c.dec)
		}
	}
}
