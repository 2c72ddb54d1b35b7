// Package hybrid fuses the flow-level simulator (internal/flowsim) into
// the packet-level event engine as a first-class simulation mode.
//
// The split follows the paper's own architecture: DumbNet keeps all
// intelligence at hosts and the controller, so control traffic — path
// requests, link-event floods, recovery, telemetry — is simulated
// packet-accurately, while long-lived bulk flows advance fluidly under
// max-min fair sharing. The fluid layer shares the fabric's link topology
// through the dense CSR graph: every directed switch↔switch CSR edge and
// every host uplink/downlink becomes one capacitated fluid link, so
// per-link state is flat arrays indexed by edge number, not maps.
//
// Event/fluid boundary: the fluid simulator is driven exclusively by
// engine events. Opening a transfer reserves the source route packet-side
// (host.ResolveRoute: path table, controller round-trip, retry budget)
// and hands the byte count to the fluid layer; the layer schedules one
// engine event at the next projected fluid completion. Link up/down
// transitions (chaos, flaps, switch crashes) are observed synchronously
// via sim.Link.Watch, zero/restore the corresponding fluid capacities at
// the exact virtual time of the failure, and trigger source reroutes that
// consult the host's packet-plane path table as it heals. Everything is
// scheduled on the one engine, so determinism goldens keep working: the
// same seed produces bit-identical completion digests.
package hybrid

import (
	"errors"
	"fmt"
	"math"

	"dumbnet/internal/fabric"
	"dumbnet/internal/flowsim"
	"dumbnet/internal/host"
	"dumbnet/internal/packet"
	"dumbnet/internal/sim"
	"dumbnet/internal/topo"
)

// Config tunes the fluid layer.
type Config struct {
	// MTU is the per-frame payload budget used to convert transfer bytes
	// into wire bits (header overhead included per frame). Defaults to
	// host.DefaultBulkMTU so fluid sizing matches the packet-level bulk
	// reference frame for frame.
	MTU int
	// RerouteDelay is the retry interval for flows stranded by a link
	// failure while the packet plane converges. Default 2 ms.
	RerouteDelay sim.Time
	// RerouteBudget bounds reroute attempts per failure episode; an
	// exhausted flow stays stalled until the link heals. Default 16.
	RerouteBudget int
}

func (c Config) withDefaults() Config {
	if c.MTU <= 0 {
		c.MTU = host.DefaultBulkMTU
	}
	if c.RerouteDelay <= 0 {
		c.RerouteDelay = 2 * sim.Millisecond
	}
	if c.RerouteBudget <= 0 {
		c.RerouteBudget = 16
	}
	return c
}

// Flow is one bulk transfer in the fluid layer.
type Flow struct {
	ID    uint64
	Src   packet.MAC
	Dst   packet.MAC
	Bytes int64
	Start sim.Time

	// Results, valid once Done.
	Done   bool
	Failed bool // route could not be reserved
	End    sim.Time

	fl        flowsim.Flow
	path      [8]flowsim.LinkID // fl.Path's storage until a reroute: a fat-tree route of up to 7 switches
	ly        *Layer
	agent     *host.Agent
	key       host.FlowKey
	onDone    func(*Flow)
	openIdx   int
	retries   int
	rerouting bool
}

// flowSlab is how many Flows Open carves from one allocation.
const flowSlab = 64

// resolver is the host.RouteWaiter view of a Flow: an admission that
// missed the path table, or a reroute probe, hears its route here.
type resolver Flow

func (r *resolver) RouteResolved(tags packet.Path, hops []topo.PortRef, ok bool) {
	f := (*Flow)(r)
	if f.rerouting {
		f.ly.rerouted(f, hops, ok)
	} else {
		f.ly.admit(f, tags, hops, ok)
	}
}

// FCT returns the flow completion time.
func (f *Flow) FCT() sim.Time { return f.End - f.Start }

// Stats counts fluid-layer activity.
type Stats struct {
	Opened    uint64
	Completed uint64
	Failed    uint64 // transfers whose route reservation was abandoned
	Rerouted  uint64 // successful failover reroutes
	GiveUps   uint64 // reroute budgets exhausted (flow waits for heal)
	Active    int
}

// ErrSharded is returned when the fabric spans multiple engine shards:
// the fluid layer shares one clock with the control plane and is
// deliberately single-engine (the k=32/k=64 scale it exists for fits one
// core precisely because bulk traffic is fluid).
var ErrSharded = errors.New("hybrid: fluid layer requires a single-shard fabric")

// Layer is the fluid bulk-traffic layer over a built fabric.
type Layer struct {
	eng   *sim.Engine
	dense *topo.DenseGraph
	net   *flowsim.Network
	fsim  *flowsim.Simulator
	cfg   Config

	edgeCount int32
	portBase  []int32 // dense node -> offset into byPort
	byPort    []int32 // (node, port) -> fluid link ID, -1 when unwired
	hostIdx   map[packet.MAC]int32
	linkUp    []bool    // fluid link -> current state
	capOf     []float64 // fluid link -> configured capacity (bps)

	open   []*Flow
	slab   []Flow // Open carves flows from here
	nextID uint64

	digest uint64
	stats  Stats

	timerGen   uint64
	timers     sim.FreeList[fluidTimer]
	timerArmed bool
	timerAt    sim.Time
	flushArmed bool
}

// New builds the fluid layer over a single-shard fabric: one fluid link
// per directed CSR switch edge plus an uplink/downlink pair per host,
// with state-change watchers installed on every sim.Link.
func New(eng *sim.Engine, fab *fabric.Fabric, cfg Config) (*Layer, error) {
	if fab.Group() != nil {
		return nil, ErrSharded
	}
	t := fab.Topo
	g := t.Dense()
	ly := &Layer{
		eng:     eng,
		dense:   g,
		net:     flowsim.NewNetwork(),
		cfg:     cfg.withDefaults(),
		hostIdx: make(map[packet.MAC]int32),
		digest:  packet.FNVBasis,
	}
	fcfg := fab.Config()
	swBps := fluidBps(fcfg.SwitchLink.BandwidthBps)
	hostBps := fluidBps(fcfg.HostLink.BandwidthBps)

	n := int32(g.NumNodes())
	var edges int32
	if n > 0 {
		_, edges = g.EdgeRange(n - 1)
	}
	ly.edgeCount = edges
	// One fluid link per directed CSR edge, in edge order.
	for e := int32(0); e < edges; e++ {
		ly.net.AddLink(swBps)
		ly.capOf = append(ly.capOf, swBps)
		ly.linkUp = append(ly.linkUp, true)
	}
	hosts := t.Hosts()
	for range hosts {
		for i := 0; i < 2; i++ { // uplink, downlink
			ly.net.AddLink(hostBps)
			ly.capOf = append(ly.capOf, hostBps)
			ly.linkUp = append(ly.linkUp, true)
		}
	}

	// (node, port) -> fluid link lookup table.
	ly.portBase = make([]int32, n+1)
	for i := int32(0); i < n; i++ {
		ports, err := t.PortCount(g.IDOf(i))
		if err != nil {
			return nil, err
		}
		ly.portBase[i+1] = ly.portBase[i] + int32(ports) + 1
	}
	ly.byPort = make([]int32, ly.portBase[n])
	for i := range ly.byPort {
		ly.byPort[i] = -1
	}
	for i := int32(0); i < n; i++ {
		lo, hi := g.EdgeRange(i)
		for e := lo; e < hi; e++ {
			ly.byPort[ly.portBase[i]+int32(g.EdgePort(e))] = e
		}
	}
	for h, at := range hosts {
		idx, ok := g.IndexOf(at.Switch)
		if !ok {
			return nil, fmt.Errorf("hybrid: host %v attached to unknown switch %d", at.Host, at.Switch)
		}
		ly.hostIdx[at.Host] = int32(h)
		ly.byPort[ly.portBase[idx]+int32(at.Port)] = ly.hostDown(int32(h))
	}

	// Watch every cable's link: a state flip zeroes/restores the cable's
	// two fluid directions at the failure's exact virtual time.
	for c, l := range fab.Links() {
		ab, ba := t.CableEdges(c)
		l.Watch(func(up bool) { ly.linkFlip(up, ab, ba) })
	}
	// Watch host links likewise (switch crashes drop them too).
	for h, at := range hosts {
		if l := fab.HostLink(at.Host); l != nil {
			up, down := ly.hostUp(int32(h)), ly.hostDown(int32(h))
			l.Watch(func(on bool) { ly.linkFlip(on, up, down) })
		}
	}

	ly.fsim = flowsim.NewSimulator(ly.net)
	ly.fsim.OnFinish = ly.flowFinished
	return ly, nil
}

// fluidBps maps a link bandwidth to a fluid capacity; 0 means "infinite"
// on a sim.Link, which the fluid model approximates with 1 Pbps.
func fluidBps(bps float64) float64 {
	if bps <= 0 {
		return 1e15
	}
	return bps
}

func (ly *Layer) hostUp(h int32) int32   { return ly.edgeCount + 2*h }
func (ly *Layer) hostDown(h int32) int32 { return ly.edgeCount + 2*h + 1 }

// nowSec converts the engine clock to fluid seconds.
func (ly *Layer) nowSec() float64 { return float64(ly.eng.Now()) / 1e9 }

// syncNow advances the fluid simulator to the engine's current virtual
// time, firing every completion due at or before the current engine tick.
// Every mutation goes through this first so lazily-accounted flow
// progress drains under the rates that actually held. The explicit loop
// over sub-tick events matters: engine time is integer nanoseconds while
// fluid time is float64 seconds, so a completion can land a fraction of a
// nanosecond past the converted clock — it still belongs to this tick
// (its ceil is ≤ now) and must fire here, or the completion timer would
// re-arm at the current instant forever.
func (ly *Layer) syncNow() {
	now := ly.eng.Now()
	ly.fsim.RunUntil(float64(now) / 1e9)
	for {
		t, ok := ly.fsim.NextEventTime()
		if !ok || sim.Time(math.Ceil(t*1e9)) > now {
			return
		}
		ly.fsim.RunUntil(t)
	}
}

// linkFlip is the sim.Link watch callback: re-rate the fluid component at
// the exact failure/heal instant, then start reroute probing for flows
// stranded on dead links.
func (ly *Layer) linkFlip(up bool, ids ...int32) {
	ly.syncNow()
	for _, id := range ids {
		ly.linkUp[id] = up
		if up {
			ly.net.SetCapacity(flowsim.LinkID(id), ly.capOf[id])
		} else {
			ly.net.SetCapacity(flowsim.LinkID(id), 0)
		}
	}
	if !up {
		// Deterministic scan order: ly.open mutates only via append and
		// swap-remove, both driven by deterministic engine events.
		for _, f := range ly.open {
			if !ly.pathAlive(f.fl.Path) {
				ly.scheduleReroute(f)
			}
		}
	}
	ly.reschedule()
}

func (ly *Layer) pathAlive(path []flowsim.LinkID) bool {
	for _, l := range path {
		if !ly.linkUp[int(l)] {
			return false
		}
	}
	return true
}

// fluidPath appends to path the fluid link IDs of a reserved source route
// (host-side hop references): source uplink, one directed CSR edge per
// switch-to-switch hop, and the destination downlink (the final hop's port
// points at the host, which the byPort table resolves to the downlink).
func (ly *Layer) fluidPath(path []flowsim.LinkID, src packet.MAC, hops []topo.PortRef) ([]flowsim.LinkID, error) {
	h, ok := ly.hostIdx[src]
	if !ok {
		return nil, fmt.Errorf("hybrid: unknown source host %v", src)
	}
	path = append(path, flowsim.LinkID(ly.hostUp(h)))
	for _, hop := range hops {
		idx, ok := ly.dense.IndexOf(hop.Switch)
		if !ok {
			return nil, fmt.Errorf("hybrid: route crosses unknown switch %d", hop.Switch)
		}
		off := ly.portBase[idx] + int32(hop.Port)
		if off >= ly.portBase[idx+1] {
			return nil, fmt.Errorf("hybrid: route uses out-of-range port %d on switch %d", hop.Port, hop.Switch)
		}
		id := ly.byPort[off]
		if id < 0 {
			return nil, fmt.Errorf("hybrid: route crosses unwired port %d on switch %d", hop.Port, hop.Switch)
		}
		path = append(path, flowsim.LinkID(id))
	}
	return path, nil
}

// wireBits converts transfer payload bytes into on-the-wire bits: the
// frame count and per-frame header overhead of the packet-level bulk
// protocol, evaluated for this route's tag-stack length.
func (ly *Layer) wireBits(tagLen int, bytes int64) float64 {
	full, tail := host.BulkChunks(bytes, ly.cfg.MTU)
	fullBits := float64(packet.EncodedLen(tagLen, ly.cfg.MTU) * 8)
	tailBits := float64(packet.EncodedLen(tagLen, tail) * 8)
	return float64(full)*fullBits + tailBits
}

// Open starts a bulk transfer of `bytes` payload bytes from the host
// behind agent a to dst. The route is reserved packet-side (controller
// round-trip on a cold path table); the transfer then advances fluidly.
// onDone, if set, fires at the flow's completion engine event.
func (ly *Layer) Open(a *host.Agent, dst packet.MAC, bytes int64, key host.FlowKey, onDone func(*Flow)) *Flow {
	if len(ly.slab) == 0 {
		ly.slab = make([]Flow, flowSlab)
	}
	f := &ly.slab[0]
	ly.slab = ly.slab[1:]
	ly.nextID++
	f.ID, f.Src, f.Dst, f.Bytes, f.Start = ly.nextID, a.MAC(), dst, bytes, ly.eng.Now()
	f.ly, f.agent, f.key, f.onDone = ly, a, key, onDone
	ly.stats.Opened++
	if tags, hops, ok := a.ResolveRoute(dst, key, (*resolver)(f)); ok {
		ly.admit(f, tags, hops, true)
	}
	return f
}

// admit hands a route-reserved transfer to the fluid simulator. It runs
// either synchronously under Open (warm path table) or from the path-
// response engine event (cold).
func (ly *Layer) admit(f *Flow, tags packet.Path, hops []topo.PortRef, ok bool) {
	if !ok {
		ly.finish(f, true)
		return
	}
	path := f.path[:0]
	if f.Dst != f.Src {
		var err error
		if path, err = ly.fluidPath(path, f.Src, hops); err != nil {
			ly.finish(f, true)
			return
		}
	}
	// Admissions batch per engine tick: adding a flow only queues its
	// activation inside the fluid simulator, and one deferred flush event
	// settles the whole batch. Without this, opening an n-flow stage
	// (a HiBench shuffle opens tens of thousands in one event) would
	// re-waterfill the growing component once per flow — O(n²).
	if ly.nowSec() > ly.fsim.Now() {
		ly.syncNow()
	}
	f.fl = flowsim.Flow{ID: int(f.ID), Path: path, Size: ly.wireBits(len(tags), f.Bytes), Owner: f}
	f.openIdx = len(ly.open)
	ly.open = append(ly.open, f)
	ly.fsim.Add(&f.fl)
	ly.armFlush()
}

// armFlush schedules the once-per-tick settle + completion-timer re-arm.
func (ly *Layer) armFlush() {
	if ly.flushArmed {
		return
	}
	ly.flushArmed = true
	ly.eng.After(0, func() {
		ly.flushArmed = false
		ly.syncNow()
		ly.reschedule()
	})
}

// finish records a terminal state (fluid completion or failed admission)
// and folds it into the determinism digest.
func (ly *Layer) finish(f *Flow, failed bool) {
	f.Done = true
	f.Failed = failed
	f.End = ly.eng.Now()
	if failed {
		ly.stats.Failed++
	} else {
		ly.stats.Completed++
	}
	ly.digestFlow(f)
	if f.onDone != nil {
		f.onDone(f)
	}
}

// flowFinished is the flowsim completion callback; it runs inside the
// fluid-advance engine event.
func (ly *Layer) flowFinished(fl *flowsim.Flow, nowSec float64) {
	f, _ := fl.Owner.(*Flow)
	if f == nil {
		return
	}
	fl.Owner = nil
	// Swap-remove from the open list.
	last := len(ly.open) - 1
	ly.open[f.openIdx] = ly.open[last]
	ly.open[f.openIdx].openIdx = f.openIdx
	ly.open[last] = nil
	ly.open = ly.open[:last]
	ly.finish(f, false)
}

// scheduleReroute begins failure probing for a flow stranded on a dead
// link: after RerouteDelay the source host's path table is consulted
// again (the packet plane repairs it via link-event floods and, when
// needed, a fresh controller query).
func (ly *Layer) scheduleReroute(f *Flow) {
	if f.rerouting || f.Done {
		return
	}
	f.rerouting = true
	f.retries = 0
	ly.eng.After(ly.cfg.RerouteDelay, func() { ly.tryReroute(f) })
}

func (ly *Layer) tryReroute(f *Flow) {
	if f.Done {
		f.rerouting = false
		return
	}
	if ly.pathAlive(f.fl.Path) {
		f.rerouting = false // healed under us (or an earlier retry won)
		return
	}
	f.retries++
	if f.retries > ly.cfg.RerouteBudget {
		f.rerouting = false
		ly.stats.GiveUps++ // flow stays stalled; a heal resumes it
		return
	}
	if _, hops, ok := f.agent.ResolveRoute(f.Dst, f.key, (*resolver)(f)); ok {
		ly.rerouted(f, hops, true)
	}
}

// rerouted moves a stranded flow onto a freshly reserved route, or retries
// after RerouteDelay when the route is missing or still crosses a dead link.
func (ly *Layer) rerouted(f *Flow, hops []topo.PortRef, ok bool) {
	if f.Done {
		f.rerouting = false
		return
	}
	if ok {
		if path, err := ly.fluidPath(nil, f.Src, hops); err == nil && ly.pathAlive(path) {
			ly.syncNow()
			ly.fsim.Reroute(&f.fl, path)
			ly.stats.Rerouted++
			f.rerouting = false
			ly.reschedule()
			return
		}
	}
	ly.eng.After(ly.cfg.RerouteDelay, func() { ly.tryReroute(f) })
}

// reschedule arms (or re-arms) the single engine event that re-enters the
// fluid layer at its next projected completion.
func (ly *Layer) reschedule() {
	t, ok := ly.fsim.NextEventTime()
	if !ok {
		ly.timerGen++
		ly.timerArmed = false
		return
	}
	at := sim.Time(math.Ceil(t * 1e9))
	if now := ly.eng.Now(); at < now {
		at = now
	}
	if ly.timerArmed && ly.timerAt <= at {
		return // the armed timer fires first and will re-arm
	}
	ly.timerGen++
	ly.timerArmed, ly.timerAt = true, at
	ev := ly.timers.Get()
	*ev = fluidTimer{ly, ly.timerGen}
	ly.eng.AfterEvent(at-ly.eng.Now(), ev)
}

// fluidTimer is the completion-timer event, recycled on the layer's free
// list. A re-arm or disarm bumps the layer's generation, which leaves a
// queued timer stale.
type fluidTimer struct {
	ly  *Layer
	gen uint64
}

func (t *fluidTimer) RunEvent() {
	ly, gen := t.ly, t.gen
	ly.timers.Put(t)
	if gen == ly.timerGen {
		ly.timerArmed = false
		ly.syncNow()
		ly.reschedule()
	}
}

// digestFlow folds one completion record into the FNV-1a digest: flow ID,
// endpoints, size, start/end nanoseconds and the failure flag, in
// completion order. Two runs of the same seed must agree bit for bit.
func (ly *Layer) digestFlow(f *Flow) {
	h := ly.digest
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = packet.FNVMix(h, v&0xFF)
			v >>= 8
		}
	}
	mix(f.ID)
	mix(uint64(f.Bytes))
	mix(uint64(f.Start))
	mix(uint64(f.End))
	if f.Failed {
		mix(1)
	} else {
		mix(0)
	}
	ly.digest = packet.FNV(packet.FNV(h, f.Src[:]), f.Dst[:])
}

// Digest returns the FNV-1a digest over all completion records so far —
// the hybrid determinism golden.
func (ly *Layer) Digest() uint64 { return ly.digest }

// Stats returns fluid-layer counters.
func (ly *Layer) Stats() Stats {
	st := ly.stats
	st.Active = len(ly.open)
	return st
}

// Engine returns the engine driving the layer.
func (ly *Layer) Engine() *sim.Engine { return ly.eng }

// FluidDebug reports the fluid simulator's settle-pass counters: how many
// non-trivial rate recomputations ran and how many flow rates they
// recomputed in total. Profiling aid for scale runs.
func (ly *Layer) FluidDebug() (settles, reRates uint64) {
	st := ly.fsim.SettleStats()
	return st.Settles, st.Flows
}

// FluidStats reports the fluid simulator's settle passes together with
// what they re-waterfilled.
func (ly *Layer) FluidStats() flowsim.SettleStats { return ly.fsim.SettleStats() }
