package trace

import (
	"testing"

	"dumbnet/internal/packet"
)

// --- Tap subscription semantics ---

func TestTapReceivesRecordsInOrder(t *testing.T) {
	r := NewRecorder(Config{Capacity: 8, SampleMod: 1})
	tap := r.Subscribe(16)
	for i := 0; i < 5; i++ {
		r.PacketHop(int64(i), 10, packet.SwitchID(i+1), 2, hopFrame(1, 2))
	}
	if tap.Len() != 5 {
		t.Fatalf("Len = %d, want 5", tap.Len())
	}
	var ats []int64
	n := tap.Drain(func(rec *Record) {
		ats = append(ats, rec.At)
		if rec.Kind != KindHop {
			t.Fatalf("kind = %v, want hop", rec.Kind)
		}
	})
	if n != 5 || len(ats) != 5 {
		t.Fatalf("drained %d/%d, want 5", n, len(ats))
	}
	for i, at := range ats {
		if at != int64(i) {
			t.Fatalf("record %d At = %d, want %d (oldest-first order)", i, at, i)
		}
	}
	if tap.Len() != 0 || tap.Dropped() != 0 {
		t.Fatalf("after drain: Len=%d Dropped=%d, want 0/0", tap.Len(), tap.Dropped())
	}
}

func TestTapDropsWhenFull(t *testing.T) {
	r := NewRecorder(Config{Capacity: 64, SampleMod: 1})
	tap := r.Subscribe(4)
	for i := 0; i < 10; i++ {
		r.PacketHop(int64(i), 10, 1, 2, hopFrame(1, 2))
	}
	if tap.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (capacity)", tap.Len())
	}
	if tap.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tap.Dropped())
	}
	// The queued records are the OLDEST four — a full tap drops new
	// records, it does not overwrite (unlike the flight-recorder ring).
	first := int64(-1)
	tap.Drain(func(rec *Record) {
		if first < 0 {
			first = rec.At
		}
	})
	if first != 0 {
		t.Fatalf("oldest queued At = %d, want 0", first)
	}
	// Drained taps accept records again; the drop counter is cumulative.
	r.PacketHop(99, 10, 1, 2, hopFrame(1, 2))
	if tap.Len() != 1 || tap.Dropped() != 6 {
		t.Fatalf("after refill: Len=%d Dropped=%d, want 1/6", tap.Len(), tap.Dropped())
	}
}

func TestTapWrapsAcrossDrains(t *testing.T) {
	r := NewRecorder(Config{Capacity: 64, SampleMod: 1})
	tap := r.Subscribe(4)
	next := int64(0)
	emit := func(k int) {
		for i := 0; i < k; i++ {
			r.PacketHop(next, 10, 1, 2, hopFrame(1, 2))
			next++
		}
	}
	var got []int64
	drain := func() { tap.Drain(func(rec *Record) { got = append(got, rec.At) }) }
	// Interleave emits and drains so head walks around the buffer.
	emit(3)
	drain()
	emit(4) // head=3: writes wrap around the end of buf
	drain()
	emit(2)
	drain()
	if len(got) != 9 {
		t.Fatalf("drained %d records, want 9", len(got))
	}
	for i, at := range got {
		if at != int64(i) {
			t.Fatalf("record %d At = %d, want %d (FIFO across wrap)", i, at, i)
		}
	}
	if tap.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", tap.Dropped())
	}
}

func TestRecorderResetLeavesTapsAttached(t *testing.T) {
	r := NewRecorder(Config{Capacity: 8, SampleMod: 1})
	tap := r.Subscribe(2)
	for i := 0; i < 3; i++ {
		r.PacketHop(int64(i), 10, 1, 2, hopFrame(1, 2))
	}
	if tap.Len() != 2 || tap.Dropped() != 1 {
		t.Fatalf("pre-reset: Len=%d Dropped=%d, want 2/1", tap.Len(), tap.Dropped())
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatalf("reset ring: Len=%d Total=%d, want 0/0", r.Len(), r.Total())
	}
	// Reset rewinds the post-mortem ring only: the tap keeps its queue and
	// drop count, and keeps receiving.
	if tap.Len() != 2 || tap.Dropped() != 1 {
		t.Fatalf("post-reset: Len=%d Dropped=%d, want 2/1", tap.Len(), tap.Dropped())
	}
	tap.Drain(func(*Record) {})
	r.PacketHop(9, 10, 1, 2, hopFrame(1, 2))
	if tap.Len() != 1 {
		t.Fatalf("tap detached by Reset: Len = %d, want 1", tap.Len())
	}
}

func TestNilTapIsSafe(t *testing.T) {
	var nilRec *Recorder
	tap := nilRec.Subscribe(8)
	if tap != nil {
		t.Fatalf("nil recorder Subscribe = %v, want nil", tap)
	}
	if tap.Len() != 0 || tap.Cap() != 0 || tap.Dropped() != 0 {
		t.Fatal("nil tap accessors should be zero")
	}
	if n := tap.Drain(func(*Record) { t.Fatal("fn called on nil tap") }); n != 0 {
		t.Fatalf("nil tap Drain = %d, want 0", n)
	}
}

func TestSubscribeDefaultCapacity(t *testing.T) {
	r := NewRecorder(DefaultConfig())
	if got := r.Subscribe(0).Cap(); got != DefaultTapCapacity {
		t.Fatalf("Cap = %d, want DefaultTapCapacity %d", got, DefaultTapCapacity)
	}
	if got := r.Subscribe(-5).Cap(); got != DefaultTapCapacity {
		t.Fatalf("Cap = %d, want DefaultTapCapacity %d", got, DefaultTapCapacity)
	}
}

// TestPublishWithTapAllocFree is the CI alloc guard for the tentpole's
// publish path: recording with a live subscriber must stay 0 allocs/op,
// whether the tap has room (copy into preallocated buffer) or is full
// (counter bump).
func TestPublishWithTapAllocFree(t *testing.T) {
	r := NewRecorder(Config{Capacity: 1 << 10, SampleMod: 1})
	tap := r.Subscribe(1 << 10)
	frame := hopFrame(7, 9)
	send := func() {
		r.PacketHop(100, 10, 3, 2, frame)
		r.PacketDrop(101, 3, DropQueueOverflow, frame)
		r.Ctrl(102, CtrlPathRequest, packet.MACFromUint64(7), packet.MACFromUint64(9), 1)
		r.Recovery(103, RecoveryDetect, 3, 2, false, packet.MACFromUint64(7), packet.MACFromUint64(9))
	}
	send() // warm-up
	if avg := testing.AllocsPerRun(500, send); avg != 0 {
		t.Fatalf("publish with tap room: %v allocs/op, want 0", avg)
	}
	for tap.Len() < tap.Cap() {
		send()
	}
	if avg := testing.AllocsPerRun(500, send); avg != 0 {
		t.Fatalf("publish with tap full: %v allocs/op, want 0", avg)
	}
	if tap.Dropped() == 0 {
		t.Fatal("expected drops once the tap filled")
	}
}

// --- Ring edge cases (satellite) ---

func TestOverwrittenAccountingAcrossWrap(t *testing.T) {
	r := NewRecorder(Config{Capacity: 8, SampleMod: 1})
	if r.Overwritten() != 0 {
		t.Fatalf("empty ring Overwritten = %d, want 0", r.Overwritten())
	}
	for i := 0; i < 20; i++ {
		r.PacketHop(int64(i), 10, 1, 2, hopFrame(1, 2))
		wantLen := i + 1
		if wantLen > 8 {
			wantLen = 8
		}
		if r.Len() != wantLen {
			t.Fatalf("after %d appends: Len = %d, want %d", i+1, r.Len(), wantLen)
		}
		if r.Total() != uint64(i+1) {
			t.Fatalf("after %d appends: Total = %d", i+1, r.Total())
		}
		wantOver := uint64(0)
		if i+1 > 8 {
			wantOver = uint64(i + 1 - 8)
		}
		if r.Overwritten() != wantOver {
			t.Fatalf("after %d appends: Overwritten = %d, want %d", i+1, r.Overwritten(), wantOver)
		}
	}
	// The survivors are exactly the newest Capacity records, oldest-first.
	recs := r.Records()
	if len(recs) != 8 {
		t.Fatalf("Records len = %d, want 8", len(recs))
	}
	for i, rec := range recs {
		if rec.At != int64(12+i) {
			t.Fatalf("survivor %d At = %d, want %d", i, rec.At, 12+i)
		}
	}
}

func TestResetSemantics(t *testing.T) {
	r := NewRecorder(Config{Capacity: 4, SampleMod: 1})
	for i := 0; i < 7; i++ {
		r.PacketHop(int64(i), 10, 1, 2, hopFrame(1, 2))
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 || r.Overwritten() != 0 {
		t.Fatalf("after Reset: Len=%d Total=%d Overwritten=%d, want all 0",
			r.Len(), r.Total(), r.Overwritten())
	}
	if recs := r.Records(); recs != nil {
		t.Fatalf("after Reset: Records = %d entries, want none", len(recs))
	}
	// Capacity is retained and recording restarts from a clean ring.
	for i := 0; i < 3; i++ {
		r.PacketHop(int64(100+i), 10, 1, 2, hopFrame(1, 2))
	}
	recs := r.Records()
	if len(recs) != 3 || recs[0].At != 100 || recs[2].At != 102 {
		t.Fatalf("post-Reset records wrong: %+v", recs)
	}
	// Nil Reset is a no-op.
	var nilRec *Recorder
	nilRec.Reset()
}

// TestFlowHashSamplingUniformity checks that flowHash spreads address pairs
// evenly enough that SampleMod=N keeps ~1/N of flows, across three MAC
// distribution shapes (sequential hosts, one source fanning out, strided
// pairs like pod-local traffic).
func TestFlowHashSamplingUniformity(t *testing.T) {
	shapes := map[string]func(i int) (src, dst uint64){
		"sequential": func(i int) (uint64, uint64) { return uint64(i), uint64(i + 1) },
		"fanout":     func(i int) (uint64, uint64) { return 42, uint64(i) + 1 },
		"strided":    func(i int) (uint64, uint64) { return uint64(i) * 16, uint64(i)*16 + 7 },
	}
	const flows = 4096
	for name, gen := range shapes {
		for _, mod := range []uint64{2, 4, 8} {
			r := NewRecorder(Config{Capacity: flows + 1, SampleMod: mod})
			for i := 0; i < flows; i++ {
				src, dst := gen(i)
				r.PacketHop(int64(i), 10, 1, 2, hopFrame(src, dst))
			}
			got := float64(r.Len())
			want := float64(flows) / float64(mod)
			if got < want*0.75 || got > want*1.25 {
				t.Errorf("%s mod=%d: sampled %v flows of %d, want %v ±25%%",
					name, mod, got, flows, want)
			}
		}
	}
	// Buckets of flowHash itself should be near-uniform too.
	var buckets [4]int
	for i := 0; i < flows; i++ {
		buckets[flowHash(hopFrame(uint64(i), uint64(i*3+1)))%4]++
	}
	want := flows / 4
	for b, n := range buckets {
		if n < want*3/4 || n > want*5/4 {
			t.Errorf("flowHash bucket %d: %d of %d, want ~%d ±25%%", b, n, flows, want)
		}
	}
}

// --- Benchmarks (wired into dumbnet-bench's Telemetry* suite) ---

func BenchmarkPublish0Subscribers(b *testing.B) {
	r := NewRecorder(DefaultConfig())
	frame := hopFrame(7, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.PacketHop(int64(i), 100, 1, 2, frame)
	}
}

func BenchmarkPublish1Subscriber(b *testing.B) {
	r := NewRecorder(DefaultConfig())
	tap := r.Subscribe(1 << 12)
	frame := hopFrame(7, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.PacketHop(int64(i), 100, 1, 2, frame)
		if tap.Len() == tap.Cap() {
			b.StopTimer()
			tap.Drain(func(*Record) {})
			b.StartTimer()
		}
	}
}
