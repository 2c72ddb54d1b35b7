// Package telemetry turns the flight recorder online: a streaming analytics
// consumer fed by a non-blocking, drop-counted tap on trace.Recorder
// (trace.Tap), windowed aggregators over the record stream, a detector set
// whose verdicts land in a congestion Scoreboard, and a Hub that merges
// per-shard consumers into the one fabric view (core.Network.Telemetry),
// with JSON and Prometheus exporters.
//
// DumbNet's switches are dumb — there are no switch counters to scrape — so
// visibility comes from the end-host/controller trace stream the fabric
// already emits (the paper's host-centric premise, §5; doublezero's
// flow-analytics/state-ingest split is the pipeline exemplar). The closed
// loop is host.Policy "telemetry": agents consult their shard's Scoreboard
// through the host.LinkHealth interface and steer flows off flagged links.
//
// Determinism rules:
//
//   - All aggregation is driven by in-sim periodic flush events (one
//     self-rescheduling event per consumer per engine), so results depend
//     only on virtual time, never on wall-clock or goroutine interleaving.
//   - A consumer is shard-local: it subscribes to its own engine's recorder,
//     flushes on its own engine's clock, and its Scoreboard is read only by
//     agents on the same shard. Flushes touch no network state and draw no
//     randomness, so attaching telemetry leaves every other event — and
//     therefore the chaos determinism digests — bit-identical.
//   - Cross-shard merging (Hub snapshots) happens on
//     demand from the driver goroutine between runs, never inside a window.
package telemetry

import (
	"dumbnet/internal/metrics"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
)

// GlobalKey is the scoreboard subject for fabric-wide verdicts. Every
// subject is a topo.PortRef: a directed link (a hop's popped tag, a
// recovery record's alarmed port), a switch (Port 0: switch drops carry no
// port), or, as here, the fabric (link-level drops carry no switch).
var GlobalKey = topo.PortRef{}

// Config tunes the windowed aggregation and the detector set. The zero
// value is not useful; start from DefaultConfig.
type Config struct {
	// Window is the flush period: every aggregate and detector advances
	// once per window of virtual time.
	Window sim.Time
	// TapCapacity bounds each consumer's trace.Tap buffer (records);
	// <= 0 selects trace.DefaultTapCapacity.
	TapCapacity int
	// TopK sizes the heavy-hitter space-saving sketch.
	TopK int
	// UtilThreshold is the frames-per-window level that counts a directed
	// link as hot. Hop records carry no frame length, so utilization is
	// frames per window.
	UtilThreshold uint64
	// UtilWindows is how many consecutive hot windows raise a congestion
	// flag.
	UtilWindows int
	// DropBurst is the drops-per-window level that raises a drop-burst flag
	// (per switch for switch-attributed causes, fabric-wide for link-level
	// causes).
	DropBurst uint64
	// MinActive is the frames-per-window level that counts a link as
	// active; SilenceWindows of zero frames on a link that was active for
	// ActiveWindows — while the rest of the fabric still carries traffic
	// and no down alarm explains it — raise a blackhole flag.
	MinActive      uint64
	ActiveWindows  int
	SilenceWindows int
	// HealSLO bounds the detect→reroute span of a recovery; longer spans
	// raise a heal-SLO flag and count a breach.
	HealSLO sim.Time
	// SLOFlagWindows is how many windows a heal-SLO flag stays raised
	// (breaches are events, not states; the flag decays).
	SLOFlagWindows int
	// ClearWindows is how many consecutive quiet windows clear a
	// congestion or drop-burst flag (quiet = below half the raise level).
	ClearWindows int
}

// DefaultConfig matches the chaos battery's traffic scales.
func DefaultConfig() Config {
	return Config{
		Window:         10 * sim.Millisecond,
		TapCapacity:    trace.DefaultTapCapacity,
		TopK:           16,
		UtilThreshold:  256,
		UtilWindows:    2,
		DropBurst:      16,
		MinActive:      16,
		ActiveWindows:  2,
		SilenceWindows: 4,
		HealSLO:        50 * sim.Millisecond,
		SLOFlagWindows: 16,
		ClearWindows:   2,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.TapCapacity <= 0 {
		c.TapCapacity = d.TapCapacity
	}
	if c.TopK <= 0 {
		c.TopK = d.TopK
	}
	if c.UtilThreshold == 0 {
		c.UtilThreshold = d.UtilThreshold
	}
	if c.UtilWindows <= 0 {
		c.UtilWindows = d.UtilWindows
	}
	if c.DropBurst == 0 {
		c.DropBurst = d.DropBurst
	}
	if c.MinActive == 0 {
		c.MinActive = d.MinActive
	}
	if c.ActiveWindows <= 0 {
		c.ActiveWindows = d.ActiveWindows
	}
	if c.SilenceWindows <= 0 {
		c.SilenceWindows = d.SilenceWindows
	}
	if c.HealSLO <= 0 {
		c.HealSLO = d.HealSLO
	}
	if c.SLOFlagWindows <= 0 {
		c.SLOFlagWindows = d.SLOFlagWindows
	}
	if c.ClearWindows <= 0 {
		c.ClearWindows = d.ClearWindows
	}
	return c
}

// dropCauseSlots bounds the per-cause drop arrays (trace.DropCause values
// are small consecutive constants).
const dropCauseSlots = 16

// maxPending bounds the open-span maps (ctrl request→response, recovery
// detect→reroute) so a lossy run cannot grow them without bound.
const maxPending = 4096

// linkState is one subject's windowed aggregation state.
type linkState struct {
	frames      uint64 // hop records this window
	drops       uint64 // switch-attributed drops this window (Port==0 keys)
	lastFrames  uint64 // previous completed window
	totalFrames uint64
	totalDrops  uint64

	hot       int  // consecutive windows at/over UtilThreshold
	cool      int  // consecutive windows under half of it
	burstCool int  // consecutive windows under half of DropBurst
	activeRun int  // consecutive windows at/over MinActive
	armed     bool // silence detector armed by sustained activity
	quiet     int  // consecutive zero-frame windows since armed
	knownDown bool // a port alarm explains the silence (not a blackhole)
}

// reqKey pairs a control-plane request with its response.
type reqKey struct {
	host packet.MAC
	seq  uint64
}

// Consumer is one engine's streaming analytics pipeline: it drains its tap
// on a periodic in-sim flush event, updates the windowed aggregates, runs
// the detectors, and publishes verdicts to its Scoreboard. A consumer built
// with NewOfflineConsumer (no engine) is driven by IngestRecord/EndWindow
// instead — the offline twin dumbnet-trace -top uses.
type Consumer struct {
	eng   *sim.Engine
	cfg   Config
	tap   *trace.Tap
	board *Scoreboard

	links map[topo.PortRef]*linkState

	dropWindow [dropCauseSlots]uint64
	dropTotal  [dropCauseSlots]uint64

	windowFrames    uint64 // hop records this window, engine-wide
	windowDrops     uint64 // drops this window, engine-wide
	totalFrames     uint64
	totalDrops      uint64
	idleRun         int // consecutive windows with zero engine-wide frames
	globalBurstCool int // consecutive quiet windows for the fabric-wide burst flag

	top    *TopK
	tenant func(src, dst packet.MAC) string

	recovery metrics.StreamHist // detect→reroute spans
	ctrlLat  metrics.StreamHist // path request→response spans

	healBreaches uint64
	pendingReq   map[reqKey]int64
	pendingDown  map[topo.PortRef]int64

	flushes uint64
	drained uint64
	ev      flushEvent
	started bool
}

// flushEvent is the consumer's pooled periodic event: one instance per
// consumer, rescheduled from its own RunEvent, so steady-state flushing
// allocates nothing.
type flushEvent struct{ c *Consumer }

func (f *flushEvent) RunEvent() { f.c.flush() }

// NewConsumer builds a consumer over an engine's tap. cfg zero fields are
// defaulted. Call Start to schedule the periodic flush.
func NewConsumer(eng *sim.Engine, tap *trace.Tap, cfg Config) *Consumer {
	cfg = cfg.withDefaults()
	c := &Consumer{
		eng:         eng,
		cfg:         cfg,
		tap:         tap,
		board:       NewScoreboard(),
		links:       make(map[topo.PortRef]*linkState),
		top:         NewTopK(cfg.TopK),
		pendingReq:  make(map[reqKey]int64),
		pendingDown: make(map[topo.PortRef]int64),
	}
	c.ev.c = c
	return c
}

// NewOfflineConsumer builds an engine-less consumer for replaying saved
// records (see Offline).
func NewOfflineConsumer(cfg Config) *Consumer {
	return NewConsumer(nil, nil, cfg)
}

// SetTenantResolver installs the (src, dst) → tenant-label function used to
// key the heavy-hitter sketch. Resolvers must be safe to call from the
// consumer's engine goroutine (vnet.Manager's locked TenantOf is).
func (c *Consumer) SetTenantResolver(fn func(src, dst packet.MAC) string) {
	c.tenant = fn
}

// Start schedules the first periodic flush on the consumer's engine.
// Idempotent. Note that a started consumer keeps the engine's event queue
// non-empty forever — drains become time-bounded (core marks the network
// perpetual).
func (c *Consumer) Start() {
	if c.started || c.eng == nil {
		return
	}
	c.started = true
	c.eng.AfterEvent(c.cfg.Window, &c.ev)
}

// Engine returns the engine this consumer is bound to (nil offline).
func (c *Consumer) Engine() *sim.Engine { return c.eng }

// Board returns the consumer's scoreboard — the host.LinkHealth
// implementation its shard's agents consult.
func (c *Consumer) Board() *Scoreboard { return c.board }

// Flushes reports completed windows; Drained the records consumed;
// TapDropped the records the tap discarded because the consumer fell a full
// buffer behind.
func (c *Consumer) Flushes() uint64 { return c.flushes }
func (c *Consumer) Drained() uint64 { return c.drained }
func (c *Consumer) TapDropped() uint64 {
	return c.tap.Dropped()
}

// HealBreaches reports recoveries whose detect→reroute span exceeded the
// SLO.
func (c *Consumer) HealBreaches() uint64 { return c.healBreaches }

// Recovery and CtrlLatency expose the streaming histograms (read-only use).
func (c *Consumer) Recovery() *metrics.StreamHist    { return &c.recovery }
func (c *Consumer) CtrlLatency() *metrics.StreamHist { return &c.ctrlLat }

// Top returns the heavy-hitter sketch's current contents, hottest first.
func (c *Consumer) Top() []FlowCount { return c.top.Top() }

// flush is the periodic event body: drain, close the window, re-arm.
func (c *Consumer) flush() {
	c.drained += uint64(c.tap.Drain(c.ingest))
	c.EndWindow()
	c.eng.AfterEvent(c.cfg.Window, &c.ev)
}

// IngestRecord feeds one record into the current window. The pointer is not
// retained. Exported for the offline twin and benchmarks; online consumers
// are fed by their tap.
func (c *Consumer) IngestRecord(rec *trace.Record) { c.ingest(rec) }

func (c *Consumer) ingest(rec *trace.Record) {
	switch rec.Kind {
	case trace.KindHop:
		c.windowFrames++
		c.totalFrames++
		ls := c.link(topo.PortRef{Switch: rec.Sw, Port: rec.Port})
		ls.frames++
		ls.totalFrames++
		id := FlowID{Src: rec.Src, Dst: rec.Dst}
		if c.tenant != nil {
			id.Tenant = c.tenant(rec.Src, rec.Dst)
		}
		c.top.Offer(id)

	case trace.KindDrop:
		c.windowDrops++
		c.totalDrops++
		if int(rec.Op) < dropCauseSlots {
			c.dropWindow[rec.Op]++
			c.dropTotal[rec.Op]++
		}
		if rec.Sw != 0 {
			ls := c.link(topo.PortRef{Switch: rec.Sw})
			ls.drops++
			ls.totalDrops++
		}

	case trace.KindCtrl:
		switch trace.CtrlOp(rec.Op) {
		case trace.CtrlPathRequest, trace.CtrlPathRetry:
			if len(c.pendingReq) < maxPending {
				c.pendingReq[reqKey{rec.Src, rec.Seq}] = rec.At
			}
		case trace.CtrlPathResponse:
			k := reqKey{rec.Src, rec.Seq}
			if t0, ok := c.pendingReq[k]; ok {
				delete(c.pendingReq, k)
				c.ctrlLat.Observe(rec.At - t0)
			}
		}

	case trace.KindRecovery:
		key := topo.PortRef{Switch: rec.Sw, Port: rec.Port}
		switch trace.RecoveryOp(rec.Op) {
		case trace.RecoveryDetect:
			if rec.Up {
				// Heal alarm: the link is back; silence (if any) ended.
				delete(c.pendingDown, key)
				if ls, ok := c.links[key]; ok {
					ls.knownDown = false
					ls.quiet = 0
					ls.armed = false
				}
				c.board.clear(key, ReasonBlackhole)
			} else {
				// An alarmed down is an explained outage, not a silent
				// blackhole — and it opens a heal-SLO span.
				if _, open := c.pendingDown[key]; !open && len(c.pendingDown) < maxPending {
					c.pendingDown[key] = rec.At
				}
				if ls, ok := c.links[key]; ok {
					ls.knownDown = true
				}
				c.board.clear(key, ReasonBlackhole)
			}
		case trace.RecoveryReroute:
			if t0, ok := c.pendingDown[key]; ok {
				delete(c.pendingDown, key)
				span := rec.At - t0
				c.recovery.Observe(span)
				if span > int64(c.cfg.HealSLO) {
					c.healBreaches++
					c.board.raiseTTL(key, ReasonHealSLO, c.cfg.SLOFlagWindows)
				}
			}
		}
	}
}

// link returns (creating) a subject's state.
func (c *Consumer) link(k topo.PortRef) *linkState {
	ls, ok := c.links[k]
	if !ok {
		ls = &linkState{}
		c.links[k] = ls
	}
	return ls
}

// EndWindow closes the current aggregation window and runs the detectors.
// Exported for the offline twin and benchmarks; online consumers close
// windows on their periodic flush event.
func (c *Consumer) EndWindow() {
	c.flushes++
	idle := c.windowFrames == 0
	if idle {
		c.idleRun++
	} else {
		c.idleRun = 0
	}
	for key, ls := range c.links {
		if key.Port != 0 {
			c.detectLink(key, ls, idle)
		} else {
			c.detectSwitch(key, ls)
		}
		ls.lastFrames, ls.frames = ls.frames, 0
		ls.drops = 0
	}
	// Fabric-wide drop burst: link-level causes carry no switch, so the
	// burst detector also watches the engine-wide drop rate.
	if c.windowDrops >= c.cfg.DropBurst {
		c.board.raise(GlobalKey, ReasonDropBurst)
	} else if c.windowDrops < (c.cfg.DropBurst+1)/2 {
		if c.board.has(GlobalKey, ReasonDropBurst) {
			if c.globalBurstCool++; c.globalBurstCool >= c.cfg.ClearWindows {
				c.board.clear(GlobalKey, ReasonDropBurst)
				c.globalBurstCool = 0
			}
		}
	} else {
		c.globalBurstCool = 0
	}
	c.board.tick() // decay TTL'd (heal-SLO) flags
	c.windowFrames = 0
	c.windowDrops = 0
	for i := range c.dropWindow {
		c.dropWindow[i] = 0
	}
}

// detectLink runs the per-directed-link detectors at a window boundary.
func (c *Consumer) detectLink(key topo.PortRef, ls *linkState, idle bool) {
	// Sustained-utilization congestion.
	if ls.frames >= c.cfg.UtilThreshold {
		ls.cool = 0
		if ls.hot++; ls.hot >= c.cfg.UtilWindows {
			c.board.raise(key, ReasonCongestion)
		}
	} else {
		ls.hot = 0
		if ls.frames < (c.cfg.UtilThreshold+1)/2 {
			if ls.cool++; ls.cool >= c.cfg.ClearWindows {
				c.board.clear(key, ReasonCongestion)
			}
		} else {
			ls.cool = 0
		}
	}
	// Blackhole silence: a link that sustained MinActive traffic for
	// ActiveWindows arms the detector; SilenceWindows of zero frames — while
	// the engine still carries traffic and no alarm explains it — raise the
	// flag. Frames reappearing, a port alarm, or the whole engine going idle
	// for ClearWindows (no traffic, no evidence) clear it.
	switch {
	case ls.frames >= c.cfg.MinActive:
		if ls.activeRun++; ls.activeRun >= c.cfg.ActiveWindows {
			ls.armed = true
			ls.knownDown = false
		}
		ls.quiet = 0
		c.board.clear(key, ReasonBlackhole)
	case ls.frames > 0:
		ls.activeRun = 0
		ls.quiet = 0
		c.board.clear(key, ReasonBlackhole)
	default:
		ls.activeRun = 0
		if ls.armed && !ls.knownDown && !idle {
			if ls.quiet++; ls.quiet >= c.cfg.SilenceWindows {
				c.board.raise(key, ReasonBlackhole)
			}
		}
	}
	if c.idleRun >= c.cfg.ClearWindows {
		ls.armed = false
		ls.quiet = 0
		c.board.clear(key, ReasonBlackhole)
	}
}

// detectSwitch runs the per-switch drop-burst detector.
func (c *Consumer) detectSwitch(key topo.PortRef, ls *linkState) {
	if ls.drops >= c.cfg.DropBurst {
		ls.burstCool = 0
		c.board.raise(key, ReasonDropBurst)
	} else if ls.drops < (c.cfg.DropBurst+1)/2 {
		if ls.burstCool++; ls.burstCool >= c.cfg.ClearWindows {
			c.board.clear(key, ReasonDropBurst)
		}
	} else {
		ls.burstCool = 0
	}
}
