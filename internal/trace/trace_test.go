package trace

import (
	"bytes"
	"testing"

	"dumbnet/internal/packet"
)

func hopFrame(src, dst uint64) []byte {
	frame := make([]byte, packet.EthernetHeaderLen)
	d := packet.MACFromUint64(dst)
	s := packet.MACFromUint64(src)
	copy(frame[0:6], d[:])
	copy(frame[6:12], s[:])
	return frame
}

func TestRecorderRingOverwrite(t *testing.T) {
	r := NewRecorder(Config{Capacity: 4, SampleMod: 1})
	frame := hopFrame(1, 2)
	for i := 0; i < 10; i++ {
		r.PacketHop(int64(i), 1, 7, packet.Tag(i), frame)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want ring capacity 4", r.Len())
	}
	if r.Total() != 10 || r.Overwritten() != 6 {
		t.Fatalf("Total/Overwritten = %d/%d, want 10/6", r.Total(), r.Overwritten())
	}
	recs := r.Records()
	for i, rec := range recs {
		want := int64(6 + i) // oldest surviving record is #6
		if rec.At != want {
			t.Fatalf("record %d At = %d, want %d (oldest-first order)", i, rec.At, want)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 || r.Records() != nil {
		t.Fatal("Reset did not empty the ring")
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	frame := hopFrame(1, 2)
	r.PacketHop(0, 0, 1, 0, frame)
	r.PacketDrop(0, 1, DropNoPort, frame)
	r.Ctrl(0, CtrlPathRequest, packet.MAC{}, packet.MAC{}, 0)
	r.Recovery(0, RecoveryDetect, 1, 0, false, packet.MAC{}, packet.MAC{})
	r.Scenario(0, ScenarioFailLink, 1, 2)
	if r.Len() != 0 || r.Total() != 0 || r.Overwritten() != 0 || r.Records() != nil {
		t.Fatal("nil recorder should observe nothing")
	}
	r.Reset() // must not panic
}

func TestFlowSampling(t *testing.T) {
	r := NewRecorder(Config{Capacity: 64, SampleMod: 4})
	// A sampled flow keeps its full path; an unsampled flow records nothing.
	var sampledFlow, unsampledFlow []byte
	for i := uint64(1); i < 100; i++ {
		f := hopFrame(i, i+1000)
		if r.sampled(f) {
			if sampledFlow == nil {
				sampledFlow = f
			}
		} else if unsampledFlow == nil {
			unsampledFlow = f
		}
		if sampledFlow != nil && unsampledFlow != nil {
			break
		}
	}
	if sampledFlow == nil || unsampledFlow == nil {
		t.Fatal("SampleMod=4 should split flows into sampled and unsampled")
	}
	for hop := 0; hop < 3; hop++ {
		r.PacketHop(int64(hop), 1, packet.SwitchID(hop), 0, sampledFlow)
		r.PacketHop(int64(hop), 1, packet.SwitchID(hop), 0, unsampledFlow)
	}
	if r.Len() != 3 {
		t.Fatalf("got %d records, want 3 (complete path for sampled flow only)", r.Len())
	}
	// Sampling is a pure function of the address pair.
	if !r.sampled(sampledFlow) || r.sampled(unsampledFlow) {
		t.Fatal("sampling decision must be deterministic per flow")
	}

	off := NewRecorder(Config{Capacity: 8, SampleMod: 0})
	off.PacketHop(0, 1, 1, 0, sampledFlow)
	if off.Len() != 0 {
		t.Fatal("SampleMod=0 must disable hop records")
	}
	off.PacketDrop(0, 1, DropNoPort, sampledFlow)
	if off.Len() != 1 {
		t.Fatal("drops are recorded regardless of sampling")
	}
}

func TestRegistryInstruments(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("fabric/drops")
	c.Inc()
	c.Add(4)
	if got := reg.Counter("fabric/drops").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5 (get-or-create must return the same counter)", got)
	}
	g := reg.Gauge("hosts/warm")
	g.Set(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Fatalf("gauge = %v, want 2", g.Value())
	}
	var lazy uint64 = 7
	reg.CounterFunc("switch/alarms", func() uint64 { return lazy })

	h := reg.Histogram("recovery/latency")
	for _, v := range []int64{100, 200, 400, 800, 100000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Min() != 100 || h.Max() != 100000 {
		t.Fatalf("hist count/min/max = %d/%d/%d", h.Count(), h.Min(), h.Max())
	}
	if p50 := h.Quantile(0.5); p50 < 400 || p50 > 1024 {
		t.Fatalf("p50 = %d, want within a power-of-two of the median", p50)
	}
	if p100 := h.Quantile(1); p100 != 100000 {
		t.Fatalf("p100 = %d, want clamped to max", p100)
	}

	snap := reg.Snapshot(42)
	if snap.At != 42 {
		t.Fatalf("snapshot At = %d", snap.At)
	}
	wantOrder := []string{"fabric/drops", "hosts/warm", "switch/alarms", "recovery/latency"}
	if len(snap.Entries) != len(wantOrder) {
		t.Fatalf("snapshot has %d entries, want %d", len(snap.Entries), len(wantOrder))
	}
	for i, name := range wantOrder {
		if snap.Entries[i].Name != name {
			t.Fatalf("entry %d = %q, want %q (registration order)", i, snap.Entries[i].Name, name)
		}
	}
	if e, _ := snap.Get("switch/alarms"); e.Value != 7 {
		t.Fatalf("counter-func value = %v, want 7", e.Value)
	}
	lazy = 9
	if e, _ := reg.Snapshot(43).Get("switch/alarms"); e.Value != 9 {
		t.Fatal("counter funcs must be evaluated at snapshot time")
	}
	if e, _ := snap.Get("recovery/latency"); e.Hist == nil || e.Hist.Count != 5 {
		t.Fatal("histogram snapshot missing")
	}
	if tbl := snap.Table("metrics", true); tbl.NumRows() != 4 {
		t.Fatalf("table rows = %d, want 4", tbl.NumRows())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering a name as two instrument kinds must panic")
		}
	}()
	reg := NewRegistry()
	reg.Counter("x")
	reg.Gauge("x")
}

// sampleRecords exercises every record family for export tests.
func sampleRecords() []Record {
	r := NewRecorder(Config{Capacity: 64, SampleMod: 1})
	h1, h2 := packet.MACFromUint64(1), packet.MACFromUint64(2)
	frame := hopFrame(1, 2)
	r.Scenario(1000, ScenarioFailLink, 3, 5)
	r.Recovery(2000, RecoveryDetect, 3, 2, false, packet.MAC{}, packet.MAC{})
	r.Ctrl(2500, CtrlPathRequest, h1, h2, 11)
	r.Recovery(3000, RecoveryNotify, 3, 2, false, h1, packet.MAC{})
	r.Recovery(3500, RecoveryReroute, 3, 2, false, h1, h2)
	r.PacketHop(4000, 500, 4, 7, frame)
	r.PacketDrop(4200, 0, DropImpairLoss, frame)
	r.Recovery(5000, RecoveryFirstPacket, 3, 2, false, h1, h2)
	return r.Records()
}

func TestChromeExportRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("ReadChrome on our own export: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip returned %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d round-tripped as %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestChromeExportDeterministic(t *testing.T) {
	recs := sampleRecords()
	var a, b bytes.Buffer
	if err := WriteChrome(&a, recs); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical records must serialize to identical bytes")
	}
}

func TestTimelineExtraction(t *testing.T) {
	recs := sampleRecords()
	tls := ExtractTimelines(recs)
	if len(tls) != 1 {
		t.Fatalf("got %d timelines, want 1", len(tls))
	}
	tl := tls[0]
	if tl.Scenario != ScenarioFailLink || tl.A != 3 || tl.B != 5 {
		t.Fatalf("anchor mismatch: %+v", tl)
	}
	if !tl.Complete() {
		t.Fatalf("timeline should be complete: %s", tl.String())
	}
	if tl.Detect != 2000 || tl.Notify != 3000 || tl.Reroute != 3500 || tl.FirstPacket != 5000 {
		t.Fatalf("phase timestamps wrong: %+v", tl)
	}
	if tl.Patch != noPhase || tl.CtrlEvent != noPhase {
		t.Fatalf("absent phases must be -1: %+v", tl)
	}
	if tl.Duration() != 4000 {
		t.Fatalf("Duration = %d, want 4000", tl.Duration())
	}
}

func TestTimelineDetectFilter(t *testing.T) {
	r := NewRecorder(DefaultConfig())
	// fail-link between sw1—sw2: a detect from unrelated sw9 must not count.
	r.Scenario(100, ScenarioFailLink, 1, 2)
	r.Recovery(150, RecoveryDetect, 9, 0, false, packet.MAC{}, packet.MAC{})
	r.Recovery(200, RecoveryDetect, 2, 4, false, packet.MAC{}, packet.MAC{})
	// A port-up alarm (heal) is never a failure detection.
	r.Scenario(300, ScenarioCrashSwitch, 7, 0)
	r.Recovery(310, RecoveryDetect, 3, 1, true, packet.MAC{}, packet.MAC{})
	r.Recovery(350, RecoveryDetect, 4, 1, false, packet.MAC{}, packet.MAC{})
	tls := ExtractTimelines(r.Records())
	if len(tls) != 2 {
		t.Fatalf("got %d timelines, want 2", len(tls))
	}
	if tls[0].Detect != 200 {
		t.Fatalf("fail-link detect = %d, want 200 (sw9's alarm filtered)", tls[0].Detect)
	}
	if tls[1].Detect != 350 {
		t.Fatalf("crash detect = %d, want 350 (port-up alarm filtered, neighbor alarm kept)", tls[1].Detect)
	}
}

func TestTimelineWithoutAnchors(t *testing.T) {
	r := NewRecorder(DefaultConfig())
	r.Recovery(100, RecoveryDetect, 1, 2, false, packet.MAC{}, packet.MAC{})
	r.Recovery(200, RecoveryNotify, 1, 2, false, packet.MACFromUint64(1), packet.MAC{})
	r.Recovery(300, RecoveryReroute, 1, 2, false, packet.MACFromUint64(1), packet.MAC{})
	tls := ExtractTimelines(r.Records())
	if len(tls) != 1 {
		t.Fatalf("got %d timelines, want 1 (bare-detect anchoring)", len(tls))
	}
	if tls[0].Scenario != 0 || tls[0].Start != 100 || !tls[0].Complete() {
		t.Fatalf("bare-detect timeline wrong: %+v", tls[0])
	}
}

func TestAppendDoesNotAllocate(t *testing.T) {
	r := NewRecorder(Config{Capacity: 1 << 10, SampleMod: 1})
	frame := hopFrame(1, 2)
	h1, h2 := packet.MACFromUint64(1), packet.MACFromUint64(2)
	allocs := testing.AllocsPerRun(1000, func() {
		r.PacketHop(1, 2, 3, 4, frame)
		r.PacketDrop(1, 3, DropNoPort, frame)
		r.Ctrl(1, CtrlPathRequest, h1, h2, 1)
		r.Recovery(1, RecoveryNotify, 1, 2, false, h1, h2)
		r.Scenario(1, ScenarioIdle, 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("recording allocated %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkPacketHopRecord(b *testing.B) {
	r := NewRecorder(Config{Capacity: 1 << 16, SampleMod: 1})
	frame := hopFrame(1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.PacketHop(int64(i), 100, 3, 4, frame)
	}
}

func BenchmarkPacketHopUnsampled(b *testing.B) {
	r := NewRecorder(Config{Capacity: 1 << 16, SampleMod: 1 << 20})
	frame := hopFrame(1, 2)
	if r.sampled(frame) {
		b.Skip("flow unexpectedly sampled at mod 2^20")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.PacketHop(int64(i), 100, 3, 4, frame)
	}
}
