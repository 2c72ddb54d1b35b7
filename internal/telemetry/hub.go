package telemetry

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"dumbnet/internal/metrics"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
	"dumbnet/internal/trace"
)

// Hub owns one Consumer per attached engine and presents the merged fabric
// view: total counters, a combined top-k, merged streaming histograms, and
// the union of scoreboard flags. Attach/Start are called by core during
// network construction; the merged read methods (Flagged, Snapshot, the
// exporters) must only be called from the driver goroutine while the sim is
// parked — exactly when core's Run/RunChaos have returned.
type Hub struct {
	cfg       Config
	consumers []*Consumer
	tenant    func(src, dst packet.MAC) string
}

// NewHub returns a hub with the given (defaulted) configuration.
func NewHub(cfg Config) *Hub {
	return &Hub{cfg: cfg.withDefaults()}
}

// SetTenantResolver installs the tenant-label function on the hub and every
// consumer attached so far (and every one attached later).
func (h *Hub) SetTenantResolver(fn func(src, dst packet.MAC) string) {
	h.tenant = fn
	for _, c := range h.consumers {
		c.SetTenantResolver(fn)
	}
}

// Attach builds a consumer over eng's recorder (installing a recorder with
// trace defaults if the engine has none) and registers it. Call Start once
// all engines are attached.
func (h *Hub) Attach(eng *sim.Engine) *Consumer {
	rec := eng.Tracer()
	if rec == nil {
		rec = trace.NewRecorder(trace.DefaultConfig())
		eng.SetTracer(rec)
	}
	c := NewConsumer(eng, rec.Subscribe(h.cfg.TapCapacity), h.cfg)
	if h.tenant != nil {
		c.SetTenantResolver(h.tenant)
	}
	h.consumers = append(h.consumers, c)
	return c
}

// Start schedules every consumer's periodic flush. Idempotent.
func (h *Hub) Start() {
	for _, c := range h.consumers {
		c.Start()
	}
}

// Consumers returns the attached consumers in attach order.
func (h *Hub) Consumers() []*Consumer { return h.consumers }

// ConsumerFor returns the consumer bound to eng, or nil.
func (h *Hub) ConsumerFor(eng *sim.Engine) *Consumer {
	for _, c := range h.consumers {
		if c.eng == eng {
			return c
		}
	}
	return nil
}

// Merged counters (sum across consumers). Driver-goroutine only.

// Flagged counts currently flagged subjects across all shards.
func (h *Hub) Flagged() int {
	n := 0
	for _, c := range h.consumers {
		n += c.board.FlaggedCount()
	}
	return n
}

// Raised and Cleared total the flag lifecycle transitions.
func (h *Hub) Raised() uint64 {
	var n uint64
	for _, c := range h.consumers {
		n += c.board.Raised()
	}
	return n
}

func (h *Hub) Cleared() uint64 {
	var n uint64
	for _, c := range h.consumers {
		n += c.board.Cleared()
	}
	return n
}

// Flushes totals completed windows; TapDropped totals records lost to full
// tap buffers.
func (h *Hub) Flushes() uint64 {
	var n uint64
	for _, c := range h.consumers {
		n += c.flushes
	}
	return n
}

func (h *Hub) TapDropped() uint64 {
	var n uint64
	for _, c := range h.consumers {
		n += c.TapDropped()
	}
	return n
}

// LinkStat is one subject's totals in a snapshot.
type LinkStat struct {
	Link   string     `json:"link"`
	Frames uint64     `json:"frames"`
	Drops  uint64     `json:"drops,omitempty"`
	Last   uint64     `json:"last_window_frames"`
	Flags  FlagReason `json:"-"`
	Reason string     `json:"flags,omitempty"`
}

// HistStat summarizes a streaming histogram in a snapshot.
type HistStat struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_ns"`
	P50   int64   `json:"p50_ns"`
	P99   int64   `json:"p99_ns"`
	Max   int64   `json:"max_ns"`
}

// FlowStat is one heavy hitter in a snapshot.
type FlowStat struct {
	Flow  string `json:"flow"`
	Count uint64 `json:"frames"`
	Err   uint64 `json:"err,omitempty"`
}

// Snapshot is the merged fabric view at one instant.
type Snapshot struct {
	Windows      uint64            `json:"windows"`
	Frames       uint64            `json:"frames"`
	Drops        uint64            `json:"drops"`
	TapDropped   uint64            `json:"tap_dropped"`
	Flagged      int               `json:"flagged"`
	Raised       uint64            `json:"flags_raised"`
	Cleared      uint64            `json:"flags_cleared"`
	HealBreaches uint64            `json:"heal_breaches"`
	Links        []LinkStat        `json:"links,omitempty"`
	DropCauses   map[string]uint64 `json:"drop_causes,omitempty"`
	TopFlows     []FlowStat        `json:"top_flows,omitempty"`
	Recovery     HistStat          `json:"recovery"`
	CtrlLatency  HistStat          `json:"ctrl_latency"`
}

func histStat(hs *metrics.StreamHist) HistStat {
	return HistStat{
		Count: hs.Count(), Mean: hs.Mean(),
		P50: hs.Quantile(0.50), P99: hs.Quantile(0.99), Max: hs.Max(),
	}
}

// Snapshot merges every consumer into one fabric view. Driver-goroutine
// only (sim parked).
func (h *Hub) Snapshot() *Snapshot {
	s := &Snapshot{DropCauses: make(map[string]uint64)}
	linkTotals := make(map[topo.PortRef]*LinkStat)
	var keys []topo.PortRef
	top := NewTopK(h.cfg.TopK)
	var recovery, ctrlLat metrics.StreamHist

	for _, c := range h.consumers {
		s.Windows += c.flushes
		s.Frames += c.totalFrames
		s.Drops += c.totalDrops
		s.TapDropped += c.TapDropped()
		s.Flagged += c.board.FlaggedCount()
		s.Raised += c.board.Raised()
		s.Cleared += c.board.Cleared()
		s.HealBreaches += c.healBreaches
		for key, ls := range c.links {
			st, ok := linkTotals[key]
			if !ok {
				st = &LinkStat{Link: key.String()}
				linkTotals[key] = st
				keys = append(keys, key)
			}
			st.Frames += ls.totalFrames
			st.Drops += ls.totalDrops
			st.Last += ls.lastFrames
			st.Flags |= c.board.Reasons(key)
		}
		for i, n := range c.dropTotal {
			if n > 0 {
				s.DropCauses[trace.DropCause(i).String()] += n
			}
		}
		top.Merge(c.top)
		recovery.Merge(&c.recovery)
		ctrlLat.Merge(&c.ctrlLat)
	}

	slices.SortFunc(keys, func(a, b topo.PortRef) int {
		return cmp.Or(cmp.Compare(a.Switch, b.Switch), cmp.Compare(a.Port, b.Port))
	})
	for _, key := range keys {
		st := linkTotals[key]
		if st.Flags != 0 {
			st.Reason = st.Flags.String()
		}
		s.Links = append(s.Links, *st)
	}
	for _, fc := range top.Top() {
		s.TopFlows = append(s.TopFlows, FlowStat{Flow: fc.Flow.String(), Count: fc.Count, Err: fc.Err})
	}
	s.Recovery = histStat(&recovery)
	s.CtrlLatency = histStat(&ctrlLat)
	return s
}

// SummaryLine renders a one-line live summary of the merged fabric view.
// Driver-goroutine only (sim parked).
func (h *Hub) SummaryLine() string {
	s := h.Snapshot()
	top := ""
	if len(s.TopFlows) > 0 {
		top = fmt.Sprintf(" top=%s(%d)", s.TopFlows[0].Flow, s.TopFlows[0].Count)
	}
	return fmt.Sprintf("windows=%d frames=%d drops=%d flagged=%d raised=%d cleared=%d slo=%d tapdrop=%d%s",
		s.Windows, s.Frames, s.Drops, s.Flagged, s.Raised, s.Cleared, s.HealBreaches, s.TapDropped, top)
}

// SnapshotJSON renders the merged snapshot as indented JSON.
func (h *Hub) SnapshotJSON() ([]byte, error) {
	return json.MarshalIndent(h.Snapshot(), "", "  ")
}

// Offline replays saved records through an engine-less consumer, windowing
// on record timestamps, and returns the resulting snapshot — the offline
// twin of the online pipeline (dumbnet-trace -top).
func Offline(recs []trace.Record, cfg Config) *Snapshot {
	h := NewHub(cfg)
	c := NewOfflineConsumer(h.cfg)
	h.consumers = append(h.consumers, c)
	if len(recs) > 0 {
		windowEnd := recs[0].At + int64(c.cfg.Window)
		for i := range recs {
			for recs[i].At >= windowEnd {
				c.EndWindow()
				windowEnd += int64(c.cfg.Window)
			}
			c.IngestRecord(&recs[i])
		}
		c.EndWindow()
	}
	return h.Snapshot()
}
