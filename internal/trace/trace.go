// Package trace is DumbNet's flight recorder: an always-on, low-overhead
// record of what the fabric did, kept in a fixed-size ring buffer so any
// run — especially a chaos run — can be explained after the fact.
//
// Three record families cover the paper's whole story:
//
//   - packet records: one span per switch hop (sim-time, switch ID, popped
//     tag) plus every drop with its cause, sampled per flow so the
//     zero-allocation forwarding path stays zero-allocation;
//   - control-plane records: path request → controller compute → reply →
//     cache install, and controller failover;
//   - recovery records: link-down detect (switch alarm) → stage-1 notify
//     (host applies the event) → reroute (host repairs its PathTable) →
//     stage-2 patch → first packet on the new path.
//
// The package also hosts the unified metrics registry (registry.go): ordered
// counters, gauges and sim-time histograms, snapshotable at any sim time.
//
// trace deliberately depends only on internal/packet (identity types) and
// internal/metrics (table rendering), so internal/sim can import it and hang
// a Recorder off the engine where every component can reach it. Timestamps
// are int64 virtual nanoseconds — sim.Time without the import cycle.
package trace

import "dumbnet/internal/packet"

// Kind classifies a record.
type Kind uint8

// Record kinds.
const (
	KindHop      Kind = iota + 1 // a switch forwarded a frame (popped a tag)
	KindDrop                     // a frame died, Op is the DropCause
	KindCtrl                     // control-plane span, Op is the CtrlOp
	KindRecovery                 // failure-recovery span, Op is the RecoveryOp
	KindScenario                 // chaos scenario event, Op is the ScenarioOp
)

func (k Kind) String() string {
	switch k {
	case KindHop:
		return "hop"
	case KindDrop:
		return "drop"
	case KindCtrl:
		return "ctrl"
	case KindRecovery:
		return "recovery"
	case KindScenario:
		return "scenario"
	}
	return "?"
}

// DropCause says why a frame died (KindDrop records).
type DropCause uint8

// Drop causes, covering the switch's drop classes and the link's.
const (
	DropNoPort        DropCause = iota + 1 // tag named an unwired port
	DropLinkDown                           // tag named a downed link
	DropBadFrame                           // unparseable frame
	DropEndOfPath                          // ø reached a switch
	DropSwitchDown                         // switch was crashed
	DropQueueOverflow                      // link transmit queue overflowed
	DropLinkDownTx                         // send attempted on a downed link
	DropImpairLoss                         // impairment loss
	CorruptImpair                          // impairment bit-flip (not a loss)
)

func (c DropCause) String() string {
	switch c {
	case DropNoPort:
		return "no-port"
	case DropLinkDown:
		return "link-down"
	case DropBadFrame:
		return "bad-frame"
	case DropEndOfPath:
		return "end-of-path"
	case DropSwitchDown:
		return "switch-down"
	case DropQueueOverflow:
		return "queue-overflow"
	case DropLinkDownTx:
		return "down-tx"
	case DropImpairLoss:
		return "impair-loss"
	case CorruptImpair:
		return "impair-corrupt"
	}
	return "?"
}

// CtrlOp labels a control-plane span (KindCtrl records).
type CtrlOp uint8

// Control-plane span points.
const (
	CtrlPathRequest  CtrlOp = iota + 1 // host sent a path request
	CtrlPathRetry                      // host re-sent after a timeout
	CtrlFailover                       // host rotated to a backup controller
	CtrlGotRequest                     // controller received a path request
	CtrlSentResponse                   // controller replied with a path graph
	CtrlPathResponse                   // host integrated a path response
	CtrlRouteInstall                   // host installed routes for the dst
)

func (o CtrlOp) String() string {
	switch o {
	case CtrlPathRequest:
		return "path-request"
	case CtrlPathRetry:
		return "path-retry"
	case CtrlFailover:
		return "ctrl-failover"
	case CtrlGotRequest:
		return "ctrl-got-request"
	case CtrlSentResponse:
		return "ctrl-sent-response"
	case CtrlPathResponse:
		return "path-response"
	case CtrlRouteInstall:
		return "route-install"
	}
	return "?"
}

// RecoveryOp labels a failure-recovery span (KindRecovery records).
type RecoveryOp uint8

// Recovery span points, in the order the paper's §4.2 story fires them.
const (
	RecoveryDetect      RecoveryOp = iota + 1 // switch originated a port alarm
	RecoveryNotify                            // host applied the link event
	RecoveryCtrlEvent                         // controller saw the link event
	RecoveryPatch                             // controller committed a patch
	RecoveryReroute                           // host repaired its PathTable
	RecoveryFirstPacket                       // first frame sent on a repaired path
	RecoveryBlackhole                         // host invalidated a silent path
)

func (o RecoveryOp) String() string {
	switch o {
	case RecoveryDetect:
		return "detect"
	case RecoveryNotify:
		return "notify"
	case RecoveryCtrlEvent:
		return "ctrl-event"
	case RecoveryPatch:
		return "patch"
	case RecoveryReroute:
		return "reroute"
	case RecoveryFirstPacket:
		return "first-packet"
	case RecoveryBlackhole:
		return "blackhole"
	}
	return "?"
}

// ScenarioOp labels a chaos-driver event (KindScenario records).
type ScenarioOp uint8

// Scenario events: the kind of every chaos.Event. The multicast and WAN
// kinds appear in chaos reports only; the chaos driver never records them
// in the flight recorder.
const (
	ScenarioImpair ScenarioOp = iota + 1
	ScenarioFailLink
	ScenarioHealLink
	ScenarioFlapLink
	ScenarioCrashSwitch
	ScenarioRestartSwitch
	ScenarioCrashCtrl
	ScenarioRestartCtrl
	ScenarioHealAll
	ScenarioIdle
	ScenarioCreateTenant
	ScenarioDeleteTenant
	ScenarioMigrateHost
	ScenarioMcastGroup
	ScenarioMcastProbe
	ScenarioFailWAN
	ScenarioHealWAN
	ScenarioCrashGateway
	ScenarioRestartGateway
	ScenarioHealAllWAN
)

func (o ScenarioOp) String() string {
	switch o {
	case ScenarioImpair:
		return "impair"
	case ScenarioFailLink:
		return "fail-link"
	case ScenarioHealLink:
		return "heal-link"
	case ScenarioFlapLink:
		return "flap-link"
	case ScenarioCrashSwitch:
		return "crash-switch"
	case ScenarioRestartSwitch:
		return "restart-switch"
	case ScenarioCrashCtrl:
		return "crash-ctrl"
	case ScenarioRestartCtrl:
		return "restart-ctrl"
	case ScenarioHealAll:
		return "heal-all"
	case ScenarioIdle:
		return "idle"
	case ScenarioCreateTenant:
		return "create-tenant"
	case ScenarioDeleteTenant:
		return "delete-tenant"
	case ScenarioMigrateHost:
		return "migrate-host"
	case ScenarioMcastGroup:
		return "mcast-group"
	case ScenarioMcastProbe:
		return "mcast-probe"
	case ScenarioFailWAN:
		return "fail-wan"
	case ScenarioHealWAN:
		return "heal-wan"
	case ScenarioCrashGateway:
		return "crash-gateway"
	case ScenarioRestartGateway:
		return "restart-gateway"
	case ScenarioHealAllWAN:
		return "heal-all-wan"
	}
	return "?"
}

// Record is one flight-recorder entry. All fields are fixed-size values so a
// full ring costs one allocation for the lifetime of the recorder and
// appending never allocates. Field use varies by kind:
//
//	KindHop:      Sw forwarded Src→Dst out Port (the popped tag), Dur is
//	              the forwarding pipeline delay.
//	KindDrop:     Op is the DropCause; Sw is 0 for link-level drops.
//	KindCtrl:     Op is the CtrlOp; Src is the acting host, Dst the peer
//	              (queried destination or controller), Seq the request seq.
//	KindRecovery: Op is the RecoveryOp; Sw/Port/Up name the link event,
//	              Src the acting host (zero for switch/controller records),
//	              Dst the affected destination where known.
//	KindScenario: Op is the ScenarioOp; Sw/Sw2 are the link endpoints or
//	              Sw the crashed/restarted switch.
type Record struct {
	At   int64 // virtual time, nanoseconds
	Dur  int64 // span length in nanoseconds (0: instant)
	Seq  uint64
	Src  packet.MAC
	Dst  packet.MAC
	Sw   packet.SwitchID
	Sw2  packet.SwitchID
	Kind Kind
	Op   uint8
	Port packet.Tag
	Up   bool
}

// OpString renders the kind-specific Op.
func (r *Record) OpString() string {
	switch r.Kind {
	case KindDrop:
		return DropCause(r.Op).String()
	case KindCtrl:
		return CtrlOp(r.Op).String()
	case KindRecovery:
		return RecoveryOp(r.Op).String()
	case KindScenario:
		return ScenarioOp(r.Op).String()
	}
	return ""
}

// Config tunes the recorder. The zero value is not useful; start from
// DefaultConfig.
type Config struct {
	// Capacity is the ring size in records. The ring is allocated once, up
	// front; when full, the oldest records are overwritten (flight-recorder
	// semantics). <= 0 means the default of 1<<17.
	Capacity int
	// SampleMod selects which flows get per-hop packet traces: 0 disables
	// hop records entirely, 1 traces every flow, N > 1 traces flows whose
	// (src, dst) hash ≡ 0 mod N. Sampling by flow — not per frame — keeps
	// every sampled packet's path complete end to end, and is deterministic
	// for a given address pair.
	SampleMod uint64
}

// DefaultConfig traces everything with a 128Ki-record ring. Drops, control
// spans and recovery spans always record; only packet hops are sampled.
func DefaultConfig() Config {
	return Config{Capacity: 1 << 17, SampleMod: 1}
}

// Recorder is the flight recorder: a preallocated ring of Records. It is
// single-threaded like the simulator it observes. All recording methods are
// nil-safe: a nil *Recorder records nothing, so call sites need no guards.
type Recorder struct {
	cfg   Config
	ring  []Record
	next  int    // next write position
	count int    // records currently held (≤ len(ring))
	total uint64 // records ever appended
	taps  []*Tap // live subscriptions, offered every appended record
}

// NewRecorder allocates the ring up front.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1 << 17
	}
	return &Recorder{cfg: cfg, ring: make([]Record, cfg.Capacity)}
}

// append writes one record, overwriting the oldest when full, and offers a
// copy to every live tap. Both halves are allocation-free: the ring write is
// an indexed copy, and Tap.offer either copies into the tap's preallocated
// buffer or bumps its drop counter.
func (r *Recorder) append(rec Record) {
	r.ring[r.next] = rec
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
	}
	if r.count < len(r.ring) {
		r.count++
	}
	r.total++
	for _, t := range r.taps {
		t.offer(rec)
	}
}

// Tap is a non-blocking, drop-counted subscription onto a Recorder: a
// bounded FIFO of Record values the recorder copies into as it appends.
// When the buffer is full the new record is discarded and Dropped()
// advances — the publisher (the simulation hot path) never blocks and never
// allocates. A consumer drains at its own pace (telemetry flush events) with
// Drain. Like the recorder itself, a tap is single-threaded: subscribe and
// drain on the engine that owns the recorder.
type Tap struct {
	buf     []Record
	head    int    // next record to drain
	n       int    // records currently queued (≤ len(buf))
	dropped uint64 // records discarded because the buffer was full
}

// DefaultTapCapacity bounds a subscription created with capacity <= 0.
const DefaultTapCapacity = 1 << 15

// Subscribe attaches a new tap with the given buffer capacity (records);
// capacity <= 0 selects DefaultTapCapacity. The buffer is allocated once,
// up front. Nil-safe: a nil recorder returns a nil tap, whose methods are
// all no-ops.
func (r *Recorder) Subscribe(capacity int) *Tap {
	if r == nil {
		return nil
	}
	if capacity <= 0 {
		capacity = DefaultTapCapacity
	}
	t := &Tap{buf: make([]Record, capacity)}
	r.taps = append(r.taps, t)
	return t
}

// offer copies one record into the tap, or counts a drop when full.
func (t *Tap) offer(rec Record) {
	if t.n == len(t.buf) {
		t.dropped++
		return
	}
	i := t.head + t.n
	if i >= len(t.buf) {
		i -= len(t.buf)
	}
	t.buf[i] = rec
	t.n++
}

// Drain pops every queued record oldest-first, invoking fn with a pointer
// into the tap's buffer (valid only for the duration of the call — copy to
// retain). Returns the number of records drained.
func (t *Tap) Drain(fn func(*Record)) int {
	if t == nil {
		return 0
	}
	drained := 0
	for t.n > 0 {
		rec := &t.buf[t.head]
		t.head++
		if t.head == len(t.buf) {
			t.head = 0
		}
		t.n--
		drained++
		fn(rec)
	}
	return drained
}

// Len reports how many records are queued.
func (t *Tap) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Cap reports the tap's buffer capacity.
func (t *Tap) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Dropped reports how many records were discarded because the buffer was
// full — the consumer fell more than Cap() records behind the publisher.
func (t *Tap) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Len reports how many records the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.count
}

// Total reports how many records were ever appended.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Overwritten reports how many records the ring has lost to wrap-around.
func (r *Recorder) Overwritten() uint64 {
	if r == nil {
		return 0
	}
	return r.total - uint64(r.count)
}

// Records returns the held records oldest-first (a copy; the ring keeps
// recording).
func (r *Recorder) Records() []Record {
	if r == nil || r.count == 0 {
		return nil
	}
	out := make([]Record, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// Reset empties the ring (capacity is retained). Taps are left attached and
// keep their queued records and drop counts: resetting the flight recorder
// rewinds the post-mortem view, not live subscriptions.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.next, r.count, r.total = 0, 0, 0
}

// flowHash mixes the 12 Ethernet address bytes (dst ‖ src) with FNV-1a from
// packet.FNVShortBasis; the pinned trace digests fix it. It is the
// flow-sampling key: deterministic for an address pair, so the same
// seed yields the same sampled flows.
// A splitmix64 finalizer follows the FNV loop because SampleMod reads the
// hash's low bits, and raw FNV-1a over near-identical MAC pairs leaves
// those badly skewed — without it, mod-2 sampling keeps ~100% of
// sequentially-numbered hosts (see TestFlowHashSamplingUniformity).
func flowHash(frame []byte) uint64 {
	h := packet.FNV(packet.FNVShortBasis, frame[:12])
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// sampled reports whether this frame's flow is traced.
func (r *Recorder) sampled(frame []byte) bool {
	if r.cfg.SampleMod == 0 || len(frame) < 12 {
		return false
	}
	if r.cfg.SampleMod == 1 {
		return true
	}
	return flowHash(frame)%r.cfg.SampleMod == 0
}

// PacketHop records a switch forwarding a frame: one span per hop with the
// popped tag (= output port). frame must be the raw Ethernet bytes; the
// addresses are read from their fixed offsets, nothing is parsed.
func (r *Recorder) PacketHop(at, dur int64, sw packet.SwitchID, port packet.Tag, frame []byte) {
	if r == nil || !r.sampled(frame) {
		return
	}
	rec := Record{At: at, Dur: dur, Kind: KindHop, Sw: sw, Port: port}
	copy(rec.Dst[:], frame[0:6])
	copy(rec.Src[:], frame[6:12])
	r.append(rec)
}

// PacketDrop records a frame death with its cause. Drops are not sampled.
// sw is 0 for link-level causes. Frames too short to carry addresses are
// recorded with zero MACs.
func (r *Recorder) PacketDrop(at int64, sw packet.SwitchID, cause DropCause, frame []byte) {
	if r == nil {
		return
	}
	rec := Record{At: at, Kind: KindDrop, Sw: sw, Op: uint8(cause)}
	if len(frame) >= 12 {
		copy(rec.Dst[:], frame[0:6])
		copy(rec.Src[:], frame[6:12])
	}
	r.append(rec)
}

// Ctrl records a control-plane span point.
func (r *Recorder) Ctrl(at int64, op CtrlOp, host, peer packet.MAC, seq uint64) {
	if r == nil {
		return
	}
	r.append(Record{At: at, Kind: KindCtrl, Op: uint8(op), Src: host, Dst: peer, Seq: seq})
}

// Recovery records a failure-recovery span point for the link event
// (sw, port, up). host is the acting host (zero for switch or controller
// records); peer the affected destination where known.
func (r *Recorder) Recovery(at int64, op RecoveryOp, sw packet.SwitchID, port packet.Tag, up bool, host, peer packet.MAC) {
	if r == nil {
		return
	}
	r.append(Record{At: at, Kind: KindRecovery, Op: uint8(op), Sw: sw, Port: port, Up: up, Src: host, Dst: peer})
}

// Scenario records a chaos-driver event; a and b are the link endpoints (or
// a the crashed switch, with b zero).
func (r *Recorder) Scenario(at int64, op ScenarioOp, a, b packet.SwitchID) {
	if r == nil {
		return
	}
	r.append(Record{At: at, Kind: KindScenario, Op: uint8(op), Sw: a, Sw2: b})
}

// ScenarioTenant records a tenant-lifecycle chaos event; host is the
// migrated member (zero for create/delete, which carry no single host).
func (r *Recorder) ScenarioTenant(at int64, op ScenarioOp, host packet.MAC) {
	if r == nil {
		return
	}
	r.append(Record{At: at, Kind: KindScenario, Op: uint8(op), Src: host})
}
