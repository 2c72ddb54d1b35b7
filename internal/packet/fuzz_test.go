package packet

import (
	"bytes"
	"reflect"
	"testing"
)

// Native Go fuzz targets for the three wire decoders. They replace the old
// quick.Check-based TestDecodeControlFuzzProperty: under plain `go test`
// the seed corpus runs as a regression suite; under `go test -fuzz=...`
// the engine explores mutations. Each target asserts the two properties a
// dataplane parser owes its callers: decoding arbitrary bytes never panics,
// and any frame that decodes re-encodes to an equivalent frame
// (encode∘decode is the identity on the decoded representation).

// seedFrames returns valid native-encoding frames for the corpora.
func seedFrames(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, f := range []*Frame{
		{Dst: MACFromUint64(1), Src: MACFromUint64(2), Tags: Path{2, 3, 5, 1}, InnerType: EtherTypeIPv4, Payload: []byte("payload")},
		{Dst: BroadcastMAC, Src: MACFromUint64(7), Tags: nil, InnerType: EtherTypeControl, Payload: []byte{1, 2, 3}},
		{Dst: MACFromUint64(3), Src: MACFromUint64(4), Flags: FlagCE, Tags: Path{TagIDQuery, 9}, InnerType: EtherTypeIPv4, Payload: nil},
	} {
		b, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func FuzzDecodeFrame(f *testing.F) {
	for _, b := range seedFrames(f) {
		f.Add(b)
	}
	f.Add([]byte{})                        // empty
	f.Add(make([]byte, EthernetHeaderLen)) // header-only, wrong EtherType
	f.Add(bytes.Repeat([]byte{0x98}, 64))  // junk
	long := seedFrames(f)[0]
	f.Add(long[:len(long)-3]) // truncated payload region

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		if err := DecodeFrom(&fr, data); err != nil {
			return // rejecting is fine; not panicking is the property
		}
		// Round-trip: whatever decoded must re-encode and decode back to the
		// same frame. Decode bounds Tags at MaxPathLen and strips ø, so
		// re-encoding cannot fail.
		enc, err := fr.Encode()
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v (%+v)", err, fr)
		}
		var fr2 Frame
		if err := DecodeFrom(&fr2, enc); err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if fr.Dst != fr2.Dst || fr.Src != fr2.Src || fr.Flags != fr2.Flags || fr.InnerType != fr2.InnerType ||
			!bytes.Equal(fr.Tags, fr2.Tags) || !bytes.Equal(fr.Payload, fr2.Payload) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", fr2, fr)
		}
	})
}

func FuzzDecodeControl(f *testing.F) {
	seedMsgs := []struct {
		t   MsgType
		msg any
	}{
		{MsgProbe, &Probe{Origin: MACFromUint64(1), Seq: 7, Path: Path{1, 2}, Return: Path{3, 4}}},
		{MsgProbeReply, &ProbeReply{Responder: MACFromUint64(2), Seq: 7, Path: Path{1}, KnowsCtrl: true}},
		{MsgIDReply, &IDReply{ID: 42, Seq: 9}},
		{MsgLinkEvent, &LinkEvent{Switch: 3, Port: 2, Up: true, Seq: 5, HopsLeft: 4}},
		{MsgPathRequest, &PathRequest{Src: MACFromUint64(1), Dst: MACFromUint64(2), Seq: 1}},
		{MsgCongestion, &Congestion{Reporter: MACFromUint64(5), Seq: 3}},
		{MsgStatsRequest, &StatsRequest{Origin: MACFromUint64(6), Seq: 8}},
		{MsgStatsReply, &StatsReply{ID: 9, Seq: 1, Forwarded: 100, Dropped: 2, Marked: 3, Floods: 4}},
		{MsgCtrlList, &CtrlList{Seq: 2, Replicas: []CtrlReplica{{MAC: MACFromUint64(1), Path: Path{1, 2}}}}},
		{MsgPathResponse, &Blob{Seq: 4, Body: []byte("graph")}},
		{MsgData, &Blob{Seq: 5, Body: nil}},
	}
	for _, s := range seedMsgs {
		b, err := EncodeControl(s.t, s.msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1]) // truncated
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		mt, msg, err := DecodeControl(data)
		if err != nil {
			return
		}
		enc, err := EncodeControl(mt, msg)
		if err != nil {
			t.Fatalf("decoded %v failed to re-encode: %v (%+v)", mt, err, msg)
		}
		mt2, msg2, err := DecodeControl(enc)
		if err != nil {
			t.Fatalf("re-encoded %v failed to decode: %v", mt, err)
		}
		if mt2 != mt || !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("round trip diverged: (%v, %+v) vs (%v, %+v)", mt, msg, mt2, msg2)
		}
	})
}

func FuzzMPLSDecode(f *testing.F) {
	for _, fr := range []*Frame{
		{Dst: MACFromUint64(1), Src: MACFromUint64(2), Tags: Path{2, 3, 5}, InnerType: EtherTypeIPv4, Payload: []byte("data")},
		{Dst: MACFromUint64(3), Src: MACFromUint64(4), Tags: nil, InnerType: EtherTypeControl, Payload: []byte{9}},
	} {
		b, err := fr.EncodeMPLS()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-2]) // truncated
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x88, 0x47}, 16))

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		if err := DecodeMPLSFrom(&fr, data); err != nil {
			return
		}
		enc, err := fr.EncodeMPLS()
		if err != nil {
			t.Fatalf("decoded MPLS frame failed to re-encode: %v (%+v)", err, fr)
		}
		var fr2 Frame
		if err := DecodeMPLSFrom(&fr2, enc); err != nil {
			t.Fatalf("re-encoded MPLS frame failed to decode: %v", err)
		}
		if fr.Dst != fr2.Dst || fr.Src != fr2.Src || fr.InnerType != fr2.InnerType ||
			!bytes.Equal(fr.Tags, fr2.Tags) || !bytes.Equal(fr.Payload, fr2.Payload) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", fr2, fr)
		}
	})
}
