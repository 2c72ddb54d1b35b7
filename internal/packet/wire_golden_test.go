package packet

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// controlGolden pins the wire bytes of one message of every control type.
// The hex strings were recorded from the encoder and must not change: a
// host and a controller built from different revisions still talk.
var controlGolden = []struct {
	t   MsgType
	msg any
	hex string
}{
	{MsgProbe, &Probe{Origin: MACFromUint64(0x0a0b), Seq: 0x0102030405060708, Path: Path{1, 2, 9}, Return: Path{7, 8}},
		"01020000000a0b0102030405060708000301020900020708"},
	{MsgProbeReply, &ProbeReply{Responder: MACFromUint64(8), Seq: 7, Path: Path{5, 9}, KnowsCtrl: true},
		"0202000000000800000000000000070100020509"},
	{MsgIDReply, &IDReply{ID: 0xDEADBEEF, Seq: 11},
		"03deadbeef000000000000000b"},
	{MsgLinkEvent, &LinkEvent{Switch: 77, Port: 12, Up: true, Seq: 3, HopsLeft: 5},
		"040000004d0c01000000000000000305"},
	{MsgHostFlood, &Blob{Seq: 6, Body: []byte("flood")},
		"05000000000000000600000005666c6f6f64"},
	{MsgPathRequest, &PathRequest{Src: MACFromUint64(1), Dst: MACFromUint64(2), Seq: 99},
		"060200000000010200000000020000000000000063"},
	{MsgPathResponse, &Blob{Seq: 4, Body: []byte("graph")},
		"070000000000000004000000056772617068"},
	{MsgTopoPatch, &Blob{Seq: 5, Body: []byte{0xD0, 0xB4}},
		"08000000000000000500000002d0b4"},
	{MsgCongestion, &Congestion{Reporter: MACFromUint64(5), Seq: 3},
		"0a0200000000050000000000000003"},
	{MsgCtrlList, &CtrlList{Seq: 42, Replicas: []CtrlReplica{{MAC: MACFromUint64(9)}, {MAC: MACFromUint64(10), Path: Path{3, 1, 4}}}},
		"0b000000000000002a02020000000009000002000000000a0003030104"},
	{MsgStatsRequest, &StatsRequest{Origin: MACFromUint64(6), Seq: 8},
		"0c0200000000060000000000000008"},
	{MsgStatsReply, &StatsReply{ID: 9, Seq: 1, Forwarded: 100, Dropped: 2, Marked: 3, Floods: 4},
		"0d0000000900000000000000010000000000000064000000000000000200000000000000030000000000000004"},
	{MsgGroupEvent, &GroupEvent{Group: 0x01020304, Gen: 17, HopsLeft: 6},
		"0e01020304000000000000001106"},
}

func TestControlWireGolden(t *testing.T) {
	for _, g := range controlGolden {
		b, err := EncodeControl(g.t, g.msg)
		if err != nil {
			t.Fatalf("%v: %v", g.t, err)
		}
		if got := hex.EncodeToString(b); got != g.hex {
			t.Errorf("%v bytes:\n got %s\nwant %s", g.t, got, g.hex)
			continue
		}
		typ, msg, err := DecodeControl(b)
		if err != nil || typ != g.t || !reflect.DeepEqual(msg, g.msg) {
			t.Errorf("%v decode: %v %+v, %v", g.t, typ, msg, err)
		}
	}
}

// A control message truncates a path longer than MaxPathLen on the wire.
func TestControlWireTruncatesPaths(t *testing.T) {
	long := make(Path, MaxPathLen+6)
	for i := range long {
		long[i] = Tag(i + 1)
	}
	a, err := EncodeControl(MsgProbe, &Probe{Seq: 1, Path: long, Return: long})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := EncodeControl(MsgProbe, &Probe{Seq: 1, Path: long[:MaxPathLen], Return: long[:MaxPathLen]})
	if !bytes.Equal(a, b) {
		t.Fatalf("over-long probe path not truncated to %d tags", MaxPathLen)
	}
}
