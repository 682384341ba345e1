// Package radio simulates the spontaneous local ad-hoc network of the
// paper: nodes on a 2-D plane, unit-disk connectivity (two nodes hear
// each other when within radio range), optional mobility, and a message
// medium with transmission + propagation latency and loss injection.
// Coalition negotiation happens between single-hop neighbours, matching
// the paper's "nodes move in range of each other" scenario.
package radio

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
)

// NodeID identifies a node on the medium.
type NodeID int

// Broadcast is the destination used for broadcast sends.
const Broadcast NodeID = -1

// Pos is a point on the simulation plane, in meters.
type Pos struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func (p Pos) Dist(o Pos) float64 {
	dx, dy := p.X-o.X, p.Y-o.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Mobility produces a node's position as a function of simulated time.
type Mobility interface {
	Pos(t sim.Time) Pos
}

// Static is a non-moving node.
type Static Pos

// Pos implements Mobility.
func (s Static) Pos(sim.Time) Pos { return Pos(s) }

// Waypoint is a simple random-waypoint-style mobility trace: the node
// moves between successive waypoints at constant speed, pausing at each.
// The trace is precomputed so that position lookup is deterministic and
// cheap.
type Waypoint struct {
	Points []Pos      // successive waypoints, at least one
	Speed  float64    // meters per second, > 0
	Pause  float64    // seconds paused at each waypoint
	starts []sim.Time // computed arrival times
}

// NewWaypoint builds a waypoint trace and precomputes segment timing.
func NewWaypoint(speed, pause float64, points ...Pos) (*Waypoint, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("radio: waypoint trace needs at least one point")
	}
	if speed <= 0 {
		return nil, fmt.Errorf("radio: waypoint speed must be positive")
	}
	w := &Waypoint{Points: points, Speed: speed, Pause: pause}
	w.starts = make([]sim.Time, len(points))
	t := sim.Time(0)
	for i := 1; i < len(points); i++ {
		t += pause + points[i-1].Dist(points[i])/speed
		w.starts[i] = t
	}
	return w, nil
}

// Pos implements Mobility: position at time t along the trace; the node
// stays at the final waypoint after the trace completes.
func (w *Waypoint) Pos(t sim.Time) Pos {
	if t <= 0 || len(w.Points) == 1 {
		return w.Points[0]
	}
	for i := 1; i < len(w.Points); i++ {
		arrive := w.starts[i]
		depart := w.starts[i-1] + w.Pause
		if t >= arrive {
			continue
		}
		if t <= depart {
			return w.Points[i-1]
		}
		frac := (t - depart) / (arrive - depart)
		a, b := w.Points[i-1], w.Points[i]
		return Pos{X: a.X + (b.X-a.X)*frac, Y: a.Y + (b.Y-a.Y)*frac}
	}
	return w.Points[len(w.Points)-1]
}

// Handler receives a delivered message.
type Handler func(from NodeID, msg any)

// Link is the transport-independent description of one node's radio
// parameters: where it is and how it is heard. It is the unit of the
// link model shared by the simulated medium and the TCP fabric's peer
// directory (internal/net), so that
// reachability and communication cost evaluate bit-identically on every
// runtime — a node's Hello registration on the networked fabric carries
// exactly these fields.
type Link struct {
	Pos     Pos
	RangeM  float64 // radio range in meters
	Bitrate float64 // link bitrate in bits per second
}

// LinkInRange reports whether two links can currently hear each other:
// within the smaller of the two radio ranges (symmetric links).
func LinkInRange(a, b Link) bool {
	return a.Pos.Dist(b.Pos) <= math.Min(a.RangeM, b.RangeM)
}

// LinkLatency is the one-way delivery latency of size bytes between two
// links: transmission at the slower endpoint's rate, plus per-meter
// propagation, plus fixed processing. The expression is shared verbatim
// by every runtime so the organizer's communication-cost criterion
// selects identical winners over the radio medium, goroutine channels,
// and TCP sockets.
func LinkLatency(a, b Link, size int64, propDelay, procDelay float64) float64 {
	rate := math.Min(a.Bitrate, b.Bitrate)
	tx := float64(size*8) / rate
	d := a.Pos.Dist(b.Pos)
	return tx + d*propDelay + procDelay
}

// nodeState is the medium's view of one attached node.
type nodeState struct {
	id       NodeID
	mobility Mobility
	rangeM   float64 // radio range in meters
	bitrate  float64 // link bitrate in bits per second
	handler  Handler
	down     bool
}

// Config tunes the medium.
type Config struct {
	// PropDelay is the per-meter propagation delay in seconds (default
	// effectively zero; kept configurable for long-range scenarios).
	PropDelay float64
	// ProcDelay is fixed per-message processing latency in seconds
	// (MAC + protocol stack), applied to every delivery.
	ProcDelay float64
	// LossProb is the independent probability that any single delivery
	// is dropped.
	LossProb float64
}

// Stats aggregates medium activity for the message-overhead experiments.
type Stats struct {
	Unicasts    uint64
	Broadcasts  uint64
	Deliveries  uint64
	Drops       uint64 // lost to LossProb
	Unreachable uint64 // destination out of range or down
	Bytes       uint64
	// FaultDrops and FaultDups count deliveries consumed or cloned by an
	// installed fault Interceptor (internal/faults); zero without one.
	FaultDrops uint64
	FaultDups  uint64
}

// Fate is an Interceptor's verdict on one delivery. The zero value
// delivers normally.
type Fate struct {
	// Drop consumes the delivery entirely.
	Drop bool
	// Delay adds seconds on top of the modeled latency; large spikes
	// reorder the message past later traffic.
	Delay float64
	// Dup schedules a second, identical delivery DupDelay seconds after
	// the first (0 = back-to-back on the same tick).
	Dup      bool
	DupDelay float64
}

// Interceptor decides the fate of every otherwise-successful delivery:
// the adversarial hook the deterministic fault injector
// (internal/faults) attaches to. It runs after reachability and
// LossProb, so a nil or always-zero interceptor leaves the medium's
// behavior and rng draw sequence byte-identical.
type Interceptor interface {
	DeliverFate(now float64, from, to NodeID, size int) Fate
}

// Medium connects nodes through the simulated ether. All methods must be
// called from the simulation goroutine (the engine's event loop).
type Medium struct {
	eng   *sim.Engine
	cfg   Config
	nodes map[NodeID]*nodeState
	// sorted holds the same nodes in ascending ID order. Broadcasts and
	// neighbor scans walk it, so receivers — and with them the loss and
	// fault draws — come in ID order without a sort per call.
	sorted []*nodeState
	// ids caches the ascending node-ID list; invalidated by Attach.
	ids []NodeID

	// deliveries is a free-list of in-flight delivery records, recycled
	// when their event fires: one pooled object per message instead of
	// one closure allocation per send.
	deliveries []*delivery

	// interceptor, when set, rules on every otherwise-successful
	// delivery (fault injection); nil costs one predictable branch.
	interceptor Interceptor

	// Stats is exported for experiment harvesting.
	Stats Stats
}

// NewMedium builds a medium on the engine.
func NewMedium(eng *sim.Engine, cfg Config) *Medium {
	return &Medium{eng: eng, cfg: cfg, nodes: make(map[NodeID]*nodeState)}
}

// delivery is one scheduled message delivery, pooled on the medium. It
// carries the destination itself, resolved once at send time.
type delivery struct {
	m    *Medium
	from NodeID
	to   *nodeState
	msg  any
}

// runDelivery is the shared event handler for every delivery record. A
// destination that went down while the message was in flight counts as
// unreachable.
func runDelivery(x any) {
	d := x.(*delivery)
	m := d.m
	if n := d.to; n.down || n.handler == nil {
		m.Stats.Unreachable++
	} else {
		m.Stats.Deliveries++
		n.handler(d.from, d.msg)
	}
	d.msg = nil
	m.deliveries = append(m.deliveries, d)
}

// Attach registers a node. bitrate is the node's link speed in bits/s,
// rangeM its radio range in meters.
func (m *Medium) Attach(id NodeID, mob Mobility, rangeM, bitrate float64, h Handler) error {
	if _, dup := m.nodes[id]; dup {
		return fmt.Errorf("radio: node %d already attached", id)
	}
	if mob == nil {
		return fmt.Errorf("radio: node %d has nil mobility", id)
	}
	if rangeM <= 0 || bitrate <= 0 {
		return fmt.Errorf("radio: node %d needs positive range and bitrate", id)
	}
	n := &nodeState{id: id, mobility: mob, rangeM: rangeM, bitrate: bitrate, handler: h}
	m.nodes[id] = n
	at, _ := slices.BinarySearchFunc(m.sorted, id, func(n *nodeState, id NodeID) int { return cmp.Compare(n.id, id) })
	m.sorted = slices.Insert(m.sorted, at, n)
	m.ids = nil // invalidate the cached ID list
	return nil
}

// SetDown marks a node failed (true) or recovered (false); down nodes
// neither send nor receive. Used by the failure-injection experiments.
func (m *Medium) SetDown(id NodeID, down bool) {
	if n, ok := m.nodes[id]; ok {
		n.down = down
	}
}

// Down reports whether the node is currently failed.
func (m *Medium) Down(id NodeID) bool {
	n, ok := m.nodes[id]
	return ok && n.down
}

// PosOf returns a node's current position.
func (m *Medium) PosOf(id NodeID) (Pos, bool) {
	n, ok := m.nodes[id]
	if !ok {
		return Pos{}, false
	}
	return n.mobility.Pos(m.eng.Now()), true
}

// InRange reports whether a and b can currently hear each other: both up
// and within the smaller of the two radio ranges (symmetric links).
func (m *Medium) InRange(a, b NodeID) bool {
	na, okA := m.nodes[a]
	nb, okB := m.nodes[b]
	if !okA || !okB {
		return false
	}
	_, _, ok := m.links(na, nb)
	return ok
}

// linkOf snapshots a node's link description at the current instant.
func (m *Medium) linkOf(n *nodeState) Link {
	return Link{Pos: n.mobility.Pos(m.eng.Now()), RangeM: n.rangeM, Bitrate: n.bitrate}
}

// links snapshots both endpoints' links and reports whether they can
// currently hear each other: both up and in range.
func (m *Medium) links(a, b *nodeState) (la, lb Link, ok bool) {
	if a.down || b.down {
		return la, lb, false
	}
	la, lb = m.linkOf(a), m.linkOf(b)
	return la, lb, LinkInRange(la, lb)
}

// Neighbors returns the IDs currently in range of id, in ascending order.
func (m *Medium) Neighbors(id NodeID) []NodeID {
	src, ok := m.nodes[id]
	if !ok {
		return nil
	}
	var out []NodeID
	for _, n := range m.sorted {
		if n == src {
			continue
		}
		if _, _, ok := m.links(src, n); ok {
			out = append(out, n.id)
		}
	}
	return out
}

// TxTime estimates the transfer time of size bytes from a to b at the
// current instant; used as the communication-cost term during proposal
// selection. Returns +Inf when the pair is not connected.
func (m *Medium) TxTime(a, b NodeID, size int64) float64 {
	if a == b {
		return 0
	}
	na, okA := m.nodes[a]
	nb, okB := m.nodes[b]
	if okA && okB {
		if la, lb, ok := m.links(na, nb); ok {
			return LinkLatency(la, lb, size, m.cfg.PropDelay, m.cfg.ProcDelay)
		}
	}
	return math.Inf(1)
}

// Send delivers msg of the given wire size from one node to another after
// the modeled latency. Out-of-range or down destinations are counted and
// dropped silently, like real radio.
func (m *Medium) Send(from, to NodeID, msg any, size int) {
	src, ok := m.nodes[from]
	if !ok || src.down {
		m.Stats.Unreachable++
		return
	}
	m.Stats.Unicasts++
	m.Stats.Bytes += uint64(size)
	if dst, ok := m.nodes[to]; ok {
		if la, lb, ok := m.links(src, dst); ok {
			m.transmit(src.id, dst, msg, size, la, lb)
			return
		}
	}
	m.Stats.Unreachable++
}

// SendBroadcast delivers msg to every node currently in range of from,
// in ascending ID order.
func (m *Medium) SendBroadcast(from NodeID, msg any, size int) {
	src, ok := m.nodes[from]
	if !ok || src.down {
		m.Stats.Unreachable++
		return
	}
	m.Stats.Broadcasts++
	m.Stats.Bytes += uint64(size)
	for _, dst := range m.sorted {
		if dst == src {
			continue
		}
		if la, lb, ok := m.links(src, dst); ok {
			m.transmit(src.id, dst, msg, size, la, lb)
		}
	}
}

// SetInterceptor installs (or, with nil, removes) the delivery fault
// hook. With none installed the medium behaves byte-identically to a
// build without the hook: the interceptor runs strictly after the
// LossProb draw and never touches the engine rng.
func (m *Medium) SetInterceptor(i Interceptor) { m.interceptor = i }

// transmit puts one in-range transmission over the links la -> lb through
// the loss draw and the fault hook, and schedules what survives.
func (m *Medium) transmit(from NodeID, dst *nodeState, msg any, size int, la, lb Link) {
	if m.cfg.LossProb > 0 && m.eng.Rand().Float64() < m.cfg.LossProb {
		m.Stats.Drops++
		return
	}
	lat := LinkLatency(la, lb, int64(size), m.cfg.PropDelay, m.cfg.ProcDelay)
	if m.interceptor != nil {
		fate := m.interceptor.DeliverFate(m.eng.Now(), from, dst.id, size)
		if fate.Drop {
			m.Stats.FaultDrops++
			return
		}
		lat += fate.Delay
		if fate.Dup {
			m.Stats.FaultDups++
			m.schedule(from, dst, msg, lat+fate.DupDelay)
		}
	}
	m.schedule(from, dst, msg, lat)
}

// schedule queues one delivery event after lat seconds, recycling a
// pooled record.
func (m *Medium) schedule(from NodeID, to *nodeState, msg any, lat float64) {
	var d *delivery
	if n := len(m.deliveries); n > 0 {
		d = m.deliveries[n-1]
		m.deliveries = m.deliveries[:n-1]
	} else {
		d = &delivery{m: m}
	}
	d.from, d.to, d.msg = from, to, msg
	m.eng.AfterArg(lat, runDelivery, d)
}

// NodeIDs returns all attached node IDs in ascending order. The slice is
// freshly allocated and owned by the caller; hot paths should prefer IDs.
func (m *Medium) NodeIDs() []NodeID {
	ids := make([]NodeID, len(m.sorted))
	for i, n := range m.sorted {
		ids[i] = n.id
	}
	return ids
}

// IDs returns the cached ascending node-ID list. The slice is shared and
// MUST be treated as read-only; it is rebuilt after every Attach. Hot
// per-tick readers (utilization sampling, adaptation scans, churn victim
// selection) use it to avoid rebuilding the list every event.
func (m *Medium) IDs() []NodeID {
	if m.ids == nil {
		m.ids = m.NodeIDs()
	}
	return m.ids
}
