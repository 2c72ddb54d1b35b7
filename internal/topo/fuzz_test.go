package topo

import (
	"bytes"
	"testing"

	"dumbnet/internal/packet"
)

// The three topology wire decoders face bytes from the network: a host
// parses path graphs and patches out of controller replies, and a
// controller replica parses topology snapshots from its log. Each target
// checks that decoding never panics and that whatever decodes re-encodes
// to bytes that decode and re-encode to the same bytes.

// fuzzStable runs one decoder-encoder pair over data.
func fuzzStable[T any](t *testing.T, data []byte, decode func([]byte) (T, error), encode func(T) []byte) {
	v, err := decode(data)
	if err != nil {
		return
	}
	enc := encode(v)
	v2, err := decode(enc)
	if err != nil {
		t.Fatalf("re-encoded value failed to decode: %v\n% x", err, enc)
	}
	if enc2 := encode(v2); !bytes.Equal(enc, enc2) {
		t.Fatalf("round trip not byte-stable:\n% x\n% x", enc, enc2)
	}
}

// addSeeds adds each encoding whole and with its last byte cut.
func addSeeds(f *testing.F, encs ...[]byte) {
	for _, b := range encs {
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte{})
}

func FuzzUnmarshalPathGraph(f *testing.F) {
	cube, err := Cube(3, 1, 0)
	if err != nil {
		f.Fatal(err)
	}
	hosts := cube.Hosts()
	pg, err := BuildPathGraph(cube, hosts[0].Host, hosts[len(hosts)-1].Host, PathGraphOptions{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	addSeeds(f, goldenPathGraph().Marshal(), pg.Marshal())
	// A host cache that already holds the golden graph's switches, a twin
	// of one of its cables and a host it does not name, and the same cache
	// in the map form. A body with the two ends of a pair listing different
	// counts is refused: the golden graph with switch 1's entries cut to
	// one, and with switch 2 listing itself.
	base := goldenPathGraph().Graph
	_, golden, err := oracleUnmarshalPathGraph(goldenPathGraph().Marshal())
	if err != nil {
		f.Fatal(err)
	}
	obase := newOracleSubgraph()
	obase.Merge(golden)
	for _, c := range []interface {
		AddEdge(SwitchID, Port, SwitchID, Port)
		AddHost(HostAttach)
	}{base, obase} {
		c.AddEdge(1, 7, 2, 7)
		c.AddHost(HostAttach{Host: packet.MACFromUint64(0x33), Switch: 9, Port: 1})
	}
	if !bytes.Equal(base.Marshal(), obase.Marshal()) {
		f.Fatal("the base cache differs from its map form")
	}
	for _, b := range [][]byte{unevenPathGraph(), selfListingPathGraph()} {
		if _, err := UnmarshalPathGraph(b); err == nil {
			f.Fatalf("accepted an unpaired body\n% x", b)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzStable(t, data, UnmarshalPathGraph, (*PathGraph).Marshal)
		checkDecodeIntoCache(t, data, base, obase)
	})
}

// checkDecodeIntoCache decodes data into a copy of base and holds the
// result to the map reference in oracle_test.go, whose form of base is
// obase: the same verdict as its reader; on acceptance, the cache its
// Merge of the body leaves; on rejection, base's bytes unchanged.
func checkDecodeIntoCache(t *testing.T, data []byte, base *Subgraph, obase *oracleSubgraph) {
	t.Helper()
	cache := base.Clone()
	pg, err := DecodePathGraph(data, cache)
	ref, refGraph, refErr := oracleUnmarshalPathGraph(data)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("verdict %v, the reference reader's %v\n% x", err, refErr, data)
	}
	if err != nil {
		if !bytes.Equal(cache.Marshal(), base.Marshal()) {
			t.Fatalf("a rejected body changed the cache\n% x", data)
		}
		return
	}
	want := obase.Clone()
	want.Merge(refGraph)
	if !bytes.Equal(cache.Marshal(), want.Marshal()) {
		t.Fatalf("decoding into the cache differs from the map reader's Merge\n% x", data)
	}
	if pg.Graph != cache || pg.Src != ref.Src || pg.Dst != ref.Dst || !pg.Primary.Equal(ref.Primary) || !pg.Backup.Equal(ref.Backup) {
		t.Fatalf("header differs from the reference reader's\n% x", data)
	}
}

func FuzzUnmarshalPatch(f *testing.F) {
	addSeeds(f, samplePatch().Marshal(), (&Patch{Version: 1}).Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzStable(t, data, UnmarshalPatch, (*Patch).Marshal)
	})
}

func FuzzUnmarshalTopology(f *testing.F) {
	line, err := Line(3, 4)
	if err != nil {
		f.Fatal(err)
	}
	addSeeds(f, goldenTopology(f).Marshal(), line.Marshal(), New().Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzStable(t, data, UnmarshalTopology, (*Topology).Marshal)
	})
}

// unevenPathGraph is the golden path graph with switch 1 listing one cable
// fewer toward switch 2 than switch 2 lists back: the golden body with its
// first entry's neighbour renamed to 3, so the pair 1–2 lists 0 and 1 and
// the pair 1–3 lists 2 and 1.
func unevenPathGraph() []byte {
	b := goldenPathGraph().Marshal()
	at := bytes.Index(b, []byte{0xd0, 0xb2, 0x01}) + 3 + 4 + 4 + 2 // switch 1's first entry
	b[at+3] = 3
	return b
}

// selfListingPathGraph is the golden path graph with switch 1's first
// entry naming switch 1.
func selfListingPathGraph() []byte {
	b := goldenPathGraph().Marshal()
	at := bytes.Index(b, []byte{0xd0, 0xb2, 0x01}) + 3 + 4 + 4 + 2
	b[at+3] = 1
	return b
}
