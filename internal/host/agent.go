// Package host implements the DumbNet host agent (paper §5.2): the
// kernel-module-style datapath that encapsulates outgoing packets with
// routing tags and validates incoming ones, the two-level path cache
// (TopoCache + PathTable), stage-1 failure handling with host-based
// flooding, the topology-discovery responder, and the extension hooks
// (custom routing functions, flowlet-based traffic engineering, path
// verification) from §6.
package host

import (
	"errors"
	"fmt"
	"sync"

	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
)

// Config tunes the agent.
type Config struct {
	// KPaths is how many shortest paths the PathTable caches per
	// destination (paper: "TopoCache computes k shortest paths and
	// PathTable caches them all").
	KPaths int
	// ProcessDelay models the per-packet software datapath cost (the
	// DPDK/KNI overhead measured in Fig 9/10); charged on send and on
	// receive.
	ProcessDelay sim.Time
	// EncapDelay is the extra header-manipulation cost of inserting the
	// tag stack (the "+MPLS header copy" overhead of Fig 9).
	EncapDelay sim.Time
	// RequestTimeout is the base controller path-request retry interval;
	// retries back off exponentially from it (with jitter) up to
	// RequestBackoffMax.
	RequestTimeout sim.Time
	// RequestBackoffMax caps the exponential retry backoff; 0 means 80 ms.
	RequestBackoffMax sim.Time
	// RequestBudget is how many attempts a path query gets per controller
	// before failing over to the next advertised replica (and, once every
	// replica's budget is spent, abandoning the query); 0 means 6.
	RequestBudget int
	// MaxSeenEvents caps the link-event dedup map with FIFO eviction;
	// 0 means 4096, negative means unbounded.
	MaxSeenEvents int
	// BlackholeThreshold is how many consecutive sends to a destination
	// with no return traffic trigger blackhole handling (invalidate the
	// path, mark its hops suspect, re-query). 0 means 8, negative
	// disables detection.
	BlackholeThreshold int
	// BlackholeWindow is how long the return-traffic silence must last
	// before the send counter can trigger; 0 means 10 ms.
	BlackholeWindow sim.Time
	// SuspectTTL is how long blackhole-suspected hops are avoided when
	// synthesizing paths from the TopoCache; 0 means 1 s.
	SuspectTTL sim.Time
	// MaxPending bounds packets queued per destination while a path
	// request is outstanding.
	MaxPending int
	// VerifyPaths runs the path verifier on every application-installed
	// route (§6.1). Routes from the agent's own cache are trusted.
	VerifyPaths bool
	// UseMPLS selects the commodity-switch encoding (§5.3): routing tags
	// travel as an MPLS label stack instead of the native one-byte tags.
	UseMPLS bool
	// ECNEchoInterval rate-limits congestion echoes per source (the ECN
	// extension); 0 means the 500 µs default.
	ECNEchoInterval sim.Time
	// DisableHostFlood turns off stage-1 peer-to-peer flooding, leaving
	// only the switches' hop-limited broadcast — used by the hop-limit
	// ablation to measure how far the hardware flood alone reaches.
	DisableHostFlood bool
}

// DefaultConfig mirrors the prototype's behaviour.
func DefaultConfig() Config {
	return Config{
		KPaths:             4,
		ProcessDelay:       2 * sim.Microsecond,
		EncapDelay:         80 * sim.Nanosecond,
		RequestTimeout:     5 * sim.Millisecond,
		RequestBackoffMax:  80 * sim.Millisecond,
		RequestBudget:      6,
		MaxPending:         128,
		MaxSeenEvents:      4096,
		BlackholeThreshold: 8,
		BlackholeWindow:    10 * sim.Millisecond,
		SuspectTTL:         sim.Second,
	}
}

// Stats counts agent activity.
type Stats struct {
	Sent          uint64 // data frames transmitted
	Received      uint64 // data frames delivered to the application
	CtrlReceived  uint64 // control messages processed
	PathQueries   uint64 // MsgPathRequest sent to the controller
	PathResponses uint64 // MsgPathResponse integrated
	QueryRetries  uint64
	PendingDrops  uint64 // packets dropped because the pending queue filled
	NoRouteDrops  uint64 // packets dropped with no route and no controller
	BadFrames     uint64 // undecodable or mid-path frames received
	EventsSeen    uint64 // distinct link events learned
	EventsDup     uint64 // duplicate link events suppressed
	FloodsSent    uint64 // host-flood transmissions
	PatchesAppled uint64 // topology patches applied
	FailoverHits  uint64 // sends that used a repaired/backup path after invalidation
	VerifyFails   uint64 // application routes rejected by the verifier

	EventsEvicted    uint64 // dedup entries dropped by FIFO eviction
	CtrlFailovers    uint64 // switches to a backup controller replica
	QueriesAbandoned uint64 // path queries given up after the full retry budget
	Blackholes       uint64 // paths invalidated by blackhole detection

	CEReceived        uint64 // frames that arrived with the CE mark
	CongestionEchoes  uint64 // echoes sent back to marking senders
	CongestionNotices uint64 // echoes received about our own traffic

	McastSent     uint64 // multicast frames transmitted
	McastReceived uint64 // multicast frames delivered to the application
	GroupEventsIn uint64 // group-membership events processed

	BulkResolves  uint64 // fluid-send route reservations (hybrid mode)
	BulkTransfers uint64 // packet-level bulk transfers opened
}

// Errors.
var (
	ErrNoController = errors.New("host: controller location unknown")
	ErrNoRoute      = errors.New("host: no route to destination")
	ErrPending      = errors.New("host: path request pending")
	ErrVerifyFailed = errors.New("host: route failed verification")
)

// FlowKey identifies a transport flow for path binding.
type FlowKey struct {
	Dst              packet.MAC
	SrcPort, DstPort uint16
	Proto            uint8
}

// hash mixes the flow key into a uint64 (FNV-1a with a splitmix-style
// finalizer; raw FNV low bits correlate badly under small moduli).
func (k FlowKey) hash() uint64 {
	h := uint64(1469598103934665603)
	mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	for _, b := range k.Dst {
		mix(b)
	}
	mix(byte(k.SrcPort >> 8))
	mix(byte(k.SrcPort))
	mix(byte(k.DstPort >> 8))
	mix(byte(k.DstPort))
	mix(k.Proto)
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// pendingPacket is a queued send awaiting a path. payload is the queue's
// own copy: the caller's buffers are free again as soon as Send returns.
type pendingPacket struct {
	innerType uint16
	payload   []byte
	flow      FlowKey
}

// Agent is one DumbNet host.
type Agent struct {
	eng  *sim.Engine
	mac  packet.MAC
	cfg  Config
	link *sim.Link

	cache  *topo.Subgraph // TopoCache: aggregated path graphs
	table  *PathTable
	attach topo.HostAttach // own attachment (learned from hello)

	ctrl     packet.MAC  // controller identity
	ctrlPath packet.Path // tags to reach the controller
	seq      uint64

	// Controller replica set for failover, as advertised via MsgCtrlList.
	ctrlList    []packet.CtrlReplica
	ctrlListSeq uint64
	ctrlIdx     int // index of ctrl within ctrlList, -1 if not from the list

	pending      map[packet.MAC][]pendingPacket
	requestOpen  map[packet.MAC]bool
	requestCtrl  map[packet.MAC]packet.MAC // which controller each open query targets
	reqStart     map[packet.MAC]sim.Time   // open path queries -> first-send time
	reqLat       *trace.Histogram          // query-to-route-install latency (sim ns)
	seenEvents   map[eventKey]bool
	eventOrder   []eventKey // FIFO eviction order for seenEvents
	eventHead    int
	patchVersion uint64
	lastEcho     map[packet.MAC]sim.Time
	bh           map[packet.MAC]*bhState // blackhole detector state per destination
	suspect      map[HopRef]sim.Time     // blackhole-suspected hops → expiry
	mcastTrees   map[uint32][]byte       // group -> cached encoded tree

	// Bulk-transfer state (lazily allocated; see bulk.go).
	pendingRoute map[packet.MAC][]pendingResolve
	bulkTx       map[uint32]*bulkTx
	bulkRx       map[bulkRxKey]*bulkRx
	bulkSeq      uint32

	// OnData delivers application payloads (src, innerType, payload).
	// payload aliases the receive buffer, which goes back to the frame pool
	// when the callback returns: it is valid only for the duration of the
	// call, and a sink that keeps bytes must copy them.
	OnData func(src packet.MAC, innerType uint16, payload []byte)
	// OnControl, when set, sees every control message before the agent's
	// own handling; returning true consumes it. The controller embeds an
	// agent and uses this hook.
	OnControl func(t packet.MsgType, msg any, from packet.MAC) bool
	// OnLinkEvent is notified after a new (deduplicated) link event is
	// applied to the cache — used by experiments to timestamp stage-1
	// notification arrival.
	OnLinkEvent func(ev *packet.LinkEvent)
	// OnPatch is notified after a topology patch is applied.
	OnPatch func(p *topo.Patch)
	// OnCongestionNotice fires when an ECN echo about our traffic arrives.
	OnCongestionNotice func(dst packet.MAC)
	// OnBulkDone fires at the receiver when a packet-level bulk transfer
	// completes (last data frame arrived).
	OnBulkDone func(src packet.MAC, id uint32, at sim.Time)
	// Chooser selects among cached paths per flow; defaults to sticky
	// per-flow binding. Replace with NewFlowletChooser for flowlet TE.
	Chooser RouteChooser

	// linkHealth, when set, lets path-aware choosers (the "telemetry"
	// policy) consult the telemetry scoreboard of this agent's shard.
	linkHealth LinkHealth

	stats Stats
}

type eventKey struct {
	sw   packet.SwitchID
	port packet.Tag
	seq  uint64
	up   bool
}

// bhState tracks return-traffic liveness per destination for blackhole
// detection. The detector only arms once the destination has been heard
// from at least once (one-way traffic is not evidence of a dead path).
type bhState struct {
	sends    int         // consecutive sends since the last frame from dst
	lastRx   sim.Time    // virtual time we last heard from dst (0 = never)
	lastHops []HopRef    // hops of the most recently used path
	lastTags packet.Path // tags of the most recently used path
}

// New creates an agent for the host with the given MAC.
func New(eng *sim.Engine, mac packet.MAC, cfg Config) *Agent {
	if cfg.KPaths <= 0 {
		cfg.KPaths = 4
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 128
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * sim.Millisecond
	}
	if cfg.RequestBackoffMax <= 0 {
		cfg.RequestBackoffMax = 80 * sim.Millisecond
	}
	if cfg.RequestBackoffMax < cfg.RequestTimeout {
		cfg.RequestBackoffMax = cfg.RequestTimeout
	}
	if cfg.RequestBudget <= 0 {
		cfg.RequestBudget = 6
	}
	if cfg.MaxSeenEvents == 0 {
		cfg.MaxSeenEvents = 4096
	}
	if cfg.BlackholeThreshold == 0 {
		cfg.BlackholeThreshold = 8
	}
	if cfg.BlackholeWindow <= 0 {
		cfg.BlackholeWindow = 10 * sim.Millisecond
	}
	if cfg.SuspectTTL <= 0 {
		cfg.SuspectTTL = sim.Second
	}
	a := &Agent{
		eng:         eng,
		mac:         mac,
		cfg:         cfg,
		cache:       topo.NewSubgraph(),
		ctrlIdx:     -1,
		pending:     make(map[packet.MAC][]pendingPacket),
		requestOpen: make(map[packet.MAC]bool),
		requestCtrl: make(map[packet.MAC]packet.MAC),
		reqStart:    make(map[packet.MAC]sim.Time),
		reqLat:      eng.Metrics().Histogram("host.pathreq.latency"),
		seenEvents:  make(map[eventKey]bool),
		lastEcho:    make(map[packet.MAC]sim.Time),
		bh:          make(map[packet.MAC]*bhState),
		suspect:     make(map[HopRef]sim.Time),
		mcastTrees:  make(map[uint32][]byte),
	}
	a.table = NewPathTable(cfg.KPaths)
	a.Chooser = NewStickyChooser()
	return a
}

// MAC returns the host's address.
func (a *Agent) MAC() packet.MAC { return a.mac }

// Engine returns the engine this agent runs on — in a sharded deployment,
// the shard that owns the host's attachment switch. All timing observed at
// this host (ping RTTs, timeouts) must be read from this engine's clock.
func (a *Agent) Engine() *sim.Engine { return a.eng }

// Stats returns a copy of the counters.
func (a *Agent) Stats() Stats { return a.stats }

// Cache exposes the TopoCache (read/extend by extensions, §6.1: "TopoCache
// offers an interface to reveal partial or entire network topology").
func (a *Agent) Cache() *topo.Subgraph { return a.cache }

// Table exposes the PathTable.
func (a *Agent) Table() *PathTable { return a.table }

// RequestBudget reports the current per-controller path-query retry budget.
func (a *Agent) RequestBudget() int { return a.cfg.RequestBudget }

// SetRequestBudget overrides the per-controller path-query retry budget at
// runtime — tenant degradation classes throttle how hard a slice's hosts
// may hammer the controller. n <= 0 restores the default.
func (a *Agent) SetRequestBudget(n int) {
	if n <= 0 {
		n = 6
	}
	a.cfg.RequestBudget = n
}

// Attach returns the host's own attachment point (zero until bootstrapped).
func (a *Agent) Attach() topo.HostAttach { return a.attach }

// Controller returns the known controller identity and path.
func (a *Agent) Controller() (packet.MAC, packet.Path, bool) {
	return a.ctrl, a.ctrlPath, !a.ctrl.IsZero()
}

// SetUplink wires the agent to its access link (fabric.AttachHost result).
func (a *Agent) SetUplink(l *sim.Link) { a.link = l }

// SetBootstrap installs the bootstrap info directly (used by tests and by
// deployments with static configuration instead of a hello patch).
func (a *Agent) SetBootstrap(attach topo.HostAttach, ctrl packet.MAC, ctrlPath packet.Path) {
	a.attach = attach
	a.ctrl = ctrl
	a.ctrlPath = ctrlPath.Clone()
	a.cache.AddHost(attach)
}

// nextSeq returns a fresh sequence number.
func (a *Agent) nextSeq() uint64 {
	a.seq++
	return a.seq
}

// deliverEvent defers one parsed frame through the datapath processing
// delay. Pooled, so the per-frame receive path allocates nothing. buf is the
// raw receive buffer, which the agent owns from Receive on and returns to
// the frame pool once deliver is done with it: DecodeControl copies control
// payloads out in full, and OnData payloads are callback-scoped. It is nil
// for the self-addressed loopback, whose payload is a plain heap copy.
type deliverEvent struct {
	a   *Agent
	f   packet.Frame
	buf []byte
}

var deliverPool = sync.Pool{New: func() any { return new(deliverEvent) }}

func (d *deliverEvent) RunEvent() {
	d.a.deliver(&d.f)
	if d.buf != nil {
		packet.PutBuffer(d.buf)
	}
	*d = deliverEvent{}
	deliverPool.Put(d)
}

// SendFrame transmits a raw DumbNet frame with explicit tags after the
// datapath processing delay. Exported for the controller and extensions.
func (a *Agent) SendFrame(dst packet.MAC, tags packet.Path, innerType uint16, payload []byte) error {
	return a.sendFrame(dst, tags, innerType, nil, payload)
}

// sendFrame is the one encode path: it writes the header and head through
// the frame encoder and body straight after it, once, into a pooled buffer
// that the uplink owns from then on. Neither head nor body is retained.
func (a *Agent) sendFrame(dst packet.MAC, tags packet.Path, innerType uint16, head, body []byte) error {
	if dst == a.mac && len(tags) == 0 {
		// Self-addressed control (e.g. the controller's own agent talking
		// to the controller process): loop back locally.
		d := deliverPool.Get().(*deliverEvent)
		d.a = a
		d.f = packet.Frame{Dst: dst, Src: a.mac, InnerType: innerType, Payload: joinParts(head, body)}
		a.eng.AfterEvent(a.cfg.ProcessDelay, d)
		return nil
	}
	if a.link == nil {
		return fmt.Errorf("host %v: no uplink", a.mac)
	}
	f := packet.Frame{Dst: dst, Src: a.mac, Tags: tags, InnerType: innerType, Payload: head}
	total := len(head) + len(body)
	var buf []byte
	var n int
	var err error
	if a.cfg.UseMPLS {
		buf = packet.GetBuffer(packet.EncodedLenMPLS(len(tags), total))
		n, err = f.EncodeMPLSTo(buf)
	} else {
		buf = packet.GetBuffer(packet.EncodedLen(len(tags), total))
		n, err = f.EncodeTo(buf)
	}
	if err != nil {
		packet.PutBuffer(buf)
		return err
	}
	copy(buf[n:], body)
	a.link.SendFromAfter(a, buf, a.cfg.ProcessDelay+a.cfg.EncapDelay)
	return nil
}

// joinParts returns a fresh copy of head+body — for the cold paths that
// keep a payload past the send call without encoding it into a frame.
func joinParts(head, body []byte) []byte {
	return append(append(make([]byte, 0, len(head)+len(body)), head...), body...)
}

// SendData sends an application payload to dst with the default flow key.
func (a *Agent) SendData(dst packet.MAC, payload []byte) error {
	return a.Send(dst, packet.EtherTypeIPv4, payload, FlowKey{Dst: dst})
}

// Send routes a payload to dst, querying the controller on a path miss and
// queueing the packet until the path graph arrives.
func (a *Agent) Send(dst packet.MAC, innerType uint16, payload []byte, flow FlowKey) error {
	return a.SendParts(dst, innerType, nil, payload, flow)
}

// SendParts is Send for a payload that exists in two pieces — a protocol
// head the caller just built and a body it was handed — so that layering a
// header on top of a payload costs no intermediate buffer: both are written
// once, into the frame. The agent keeps neither slice; the caller may reuse
// them as soon as SendParts returns.
func (a *Agent) SendParts(dst packet.MAC, innerType uint16, head, body []byte, flow FlowKey) error {
	if dst == a.mac {
		if a.OnData != nil {
			a.OnData(a.mac, innerType, joinParts(head, body))
		}
		return nil
	}
	tags, hops, ok := a.routeForHops(dst, flow)
	if ok {
		a.noteSend(dst, tags, hops)
		a.stats.Sent++
		return a.sendFrame(dst, tags, innerType, head, body)
	}
	// Path miss: queue and query the controller.
	if a.ctrl.IsZero() {
		a.stats.NoRouteDrops++
		return ErrNoController
	}
	if len(a.pending[dst]) >= a.cfg.MaxPending {
		a.stats.PendingDrops++
		return ErrPending
	}
	// The queue outlives this call, so it holds its own copy: the caller's
	// slices may be a receive buffer about to be recycled, or a buffer the
	// application is about to refill.
	a.pending[dst] = append(a.pending[dst], pendingPacket{innerType: innerType, payload: joinParts(head, body), flow: flow})
	a.requestPath(dst)
	return nil
}

// routeFor returns header tags for dst, or false on a cache miss.
func (a *Agent) routeFor(dst packet.MAC, flow FlowKey) (packet.Path, bool) {
	tags, _, ok := a.routeForHops(dst, flow)
	return tags, ok
}

// routeForHops is routeFor plus the chosen path's hop references, which the
// blackhole detector records so it can mark the right links suspect.
func (a *Agent) routeForHops(dst packet.MAC, flow FlowKey) (packet.Path, []HopRef, bool) {
	entry := a.table.Lookup(dst)
	if entry == nil {
		// Try to synthesize from the TopoCache (the destination may be
		// reachable via previously merged path graphs).
		if !a.fillTableFromCache(dst) {
			return nil, nil, false
		}
		entry = a.table.Lookup(dst)
	}
	var idx int
	if pa, ok := a.Chooser.(PathAwareChooser); ok {
		idx = pa.ChoosePath(a.eng.Now(), flow, entry.Paths)
	} else {
		idx = a.Chooser.Choose(a.eng.Now(), flow, len(entry.Paths))
	}
	if idx < 0 || idx >= len(entry.Paths) {
		idx = 0
	}
	if entry.Rerouted {
		// First packet routed through a recovery-repaired entry: close the
		// recovery timeline.
		entry.Rerouted = false
		a.eng.Tracer().Recovery(int64(a.eng.Now()), trace.RecoveryFirstPacket, 0, 0, false, a.mac, dst)
	}
	return entry.Paths[idx].Tags, entry.Paths[idx].Hops, true
}

// Receive implements sim.Node: the ingress half of the kernel module. Both
// encodings are accepted regardless of the send-side configuration, as on
// a real NIC. The frame is decoded straight into a pooled deliver event:
// no Frame allocation, no closure.
func (a *Agent) Receive(port int, frame []byte) {
	d := deliverPool.Get().(*deliverEvent)
	var err error
	if len(frame) >= packet.EthernetHeaderLen &&
		frame[12] == byte(packet.EtherTypeMPLS>>8) && frame[13] == byte(packet.EtherTypeMPLS&0xFF) {
		err = packet.DecodeMPLSFrom(&d.f, frame)
	} else if len(frame) >= packet.EthernetHeaderLen &&
		frame[12] == byte(packet.EtherTypeDumbNetMcast>>8) && frame[13] == byte(packet.EtherTypeDumbNetMcast&0xFF) {
		// A multicast frame reaching a host must have its tree fully
		// consumed (the switch pops one level per fork); DecodeMcastFrom
		// rejects anything mid-tree.
		err = packet.DecodeMcastFrom(&d.f, frame)
	} else {
		err = packet.DecodeFrom(&d.f, frame)
	}
	if err != nil || len(d.f.Tags) != 0 {
		// Undecodable, or path not fully consumed: the kernel module drops
		// it (§5.1).
		*d = deliverEvent{}
		deliverPool.Put(d)
		a.stats.BadFrames++
		return
	}
	d.a = a
	d.buf = frame
	a.eng.AfterEvent(a.cfg.ProcessDelay, d)
}

func (a *Agent) deliver(f *packet.Frame) {
	if f.Flags&packet.FlagCE != 0 {
		a.handleCE(f.Src)
	}
	a.noteRx(f.Src)
	if f.InnerType != packet.EtherTypeControl {
		a.stats.Received++
		if f.Dst[0] == 0x33 && f.Dst[1] == 0x33 {
			a.stats.McastReceived++
		}
		if f.InnerType == EtherTypeBulk {
			a.handleBulk(f.Src, f.Payload)
			return
		}
		if a.OnData != nil {
			a.OnData(f.Src, f.InnerType, f.Payload)
		}
		return
	}
	t, msg, err := packet.DecodeControl(f.Payload)
	if err != nil {
		a.stats.BadFrames++
		return
	}
	a.stats.CtrlReceived++
	if a.OnControl != nil && a.OnControl(t, msg, f.Src) {
		return
	}
	switch t {
	case packet.MsgProbe:
		a.handleProbe(msg.(*packet.Probe))
	case packet.MsgLinkEvent:
		a.handleLinkEvent(msg.(*packet.LinkEvent))
	case packet.MsgHostFlood:
		a.handleHostFlood(msg.(*packet.Blob))
	case packet.MsgPathResponse:
		a.handlePathResponse(msg.(*packet.Blob))
	case packet.MsgTopoPatch:
		a.handleTopoPatch(msg.(*packet.Blob))
	case packet.MsgCongestion:
		a.handleCongestion(msg.(*packet.Congestion))
	case packet.MsgCtrlList:
		a.handleCtrlList(msg.(*packet.CtrlList))
	case packet.MsgGroupEvent:
		a.handleGroupEvent(msg.(*packet.GroupEvent))
	case packet.MsgData:
		blob := msg.(*packet.Blob)
		a.stats.Received++
		if a.OnData != nil {
			a.OnData(f.Src, packet.EtherTypeControl, blob.Body)
		}
	}
}

// handleProbe answers topology-discovery probes (§4.1): reply with our
// identity along the reverse path the prober supplied.
func (a *Agent) handleProbe(p *packet.Probe) {
	if len(p.Return) == 0 {
		return
	}
	body, err := packet.EncodeControl(packet.MsgProbeReply, &packet.ProbeReply{
		Responder: a.mac,
		Seq:       p.Seq,
		Path:      p.Path,
		KnowsCtrl: !a.ctrl.IsZero(),
	})
	if err != nil {
		return
	}
	_ = a.SendFrame(p.Origin, p.Return, packet.EtherTypeControl, body)
}
