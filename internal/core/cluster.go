package core

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/task"
)

// NodeSpec describes one node to add to a Cluster.
type NodeSpec struct {
	ID       radio.NodeID
	Mobility radio.Mobility
	// RangeM is radio range in meters; Bitrate the link speed in bits/s.
	RangeM, Bitrate float64
	// Capacity sizes the node's Resource Managers.
	Capacity resource.Vector
	// Profile is a display name ("phone", "laptop", ...).
	Profile string
	// BatteryDrain, when positive, drains the Energy capacity like a
	// battery (capacity units per simulated second). A node
	// whose battery empties goes down (radio off, provider silent) and
	// the operation-phase monitor treats it as failed.
	BatteryDrain float64
}

// Node is one simulated device: the shared Host (resources, QoS
// Provider, organizers for locally requested services) attached to the
// radio medium.
type Node struct {
	*Host
	ID      radio.NodeID
	Profile string
}

// Cluster assembles the full simulated system on a discrete-event engine:
// the radio medium, the node population, the shared application catalog,
// and service submission.
type Cluster struct {
	Eng     *sim.Engine
	Medium  *radio.Medium
	Catalog *Catalog
	// Obs aggregates every hardening counter in the cluster: each node's
	// Host registers its retransmission, dedup and stale-release
	// counters, and anything driving the cluster (the session engine)
	// registers its own. One Snapshot covers them all, so no report has
	// to loop over nodes summing fields by hand.
	Obs *obs.Registry

	providerCfg ProviderConfig
	retry       proto.RetryConfig
	nodes       map[radio.NodeID]*Node

	// selfSends is a free-list of pooled local-dispatch records: sends to
	// the local node bypass the radio but still cross the event loop, and
	// pooling the record avoids one closure allocation per intra-node call.
	selfSends []*selfSend
}

// NewCluster builds an empty cluster on a fresh engine.
func NewCluster(seed int64, radioCfg radio.Config, providerCfg ProviderConfig) *Cluster {
	eng := sim.New(seed)
	return &Cluster{
		Eng:         eng,
		Medium:      radio.NewMedium(eng, radioCfg),
		Catalog:     NewCatalog(),
		Obs:         obs.NewRegistry(),
		providerCfg: providerCfg,
		nodes:       make(map[radio.NodeID]*Node),
	}
}

// SetRetry enables the at-least-once reliability layer for every node
// added afterwards: protocol sends are wrapped in sequence-numbered
// envelopes and blindly retransmitted per cfg, with receiver-side
// deduplication in dispatch. It must be called before the first AddNode
// so all nodes speak the same discipline.
func (c *Cluster) SetRetry(cfg proto.RetryConfig) error {
	if len(c.nodes) > 0 {
		return fmt.Errorf("core: SetRetry must precede AddNode (%d nodes exist)", len(c.nodes))
	}
	c.retry = cfg
	return nil
}

// simTimers adapts the engine to proto.Timers.
type simTimers struct{ eng *sim.Engine }

func (t simTimers) Now() float64               { return t.eng.Now() }
func (t simTimers) After(d float64, fn func()) { t.eng.After(d, fn) }

// simTransport adapts the radio medium to proto.Transport. Sends to the
// local node bypass the radio (they model intra-node calls) and are
// delivered on the next event-loop tick.
type simTransport struct {
	c    *Cluster
	id   radio.NodeID
	host *Host // the node's own host, where self-sends land; set by AddNode
}

func (t *simTransport) Self() radio.NodeID { return t.id }

// selfSend is one pending intra-node dispatch, pooled on the cluster.
type selfSend struct {
	t *simTransport
	m proto.Msg
}

// runSelfSend is the shared event handler for every selfSend record.
func runSelfSend(x any) {
	s := x.(*selfSend)
	t, m := s.t, s.m
	s.t, s.m = nil, nil
	t.c.selfSends = append(t.c.selfSends, s)
	t.host.Deliver(t.id, m)
}

// Send implements proto.Transport. Modeled radio loss is not a send
// error (see the Transport contract), so the sim transport always
// returns nil.
func (t *simTransport) Send(to radio.NodeID, m proto.Msg) error {
	if to == t.id {
		c := t.c
		var s *selfSend
		if n := len(c.selfSends); n > 0 {
			s = c.selfSends[n-1]
			c.selfSends = c.selfSends[:n-1]
		} else {
			s = &selfSend{}
		}
		s.t, s.m = t, m
		c.Eng.AfterArg(0, runSelfSend, s)
		return nil
	}
	t.c.Medium.Send(t.id, to, m, m.WireSize())
	return nil
}

func (t *simTransport) Broadcast(m proto.Msg) error {
	t.c.Medium.SendBroadcast(t.id, m, m.WireSize())
	return nil
}

func (t *simTransport) CommCost(to radio.NodeID, size int64) float64 {
	if to == t.id {
		return 0
	}
	return t.c.Medium.TxTime(t.id, to, size)
}

// AddNode creates a node, wires its host to the medium, and returns it.
func (c *Cluster) AddNode(spec NodeSpec) (*Node, error) {
	if _, dup := c.nodes[spec.ID]; dup {
		return nil, fmt.Errorf("core: node %d already exists", spec.ID)
	}
	res := resource.NewSet(spec.Capacity)
	tr := &simTransport{c: c, id: spec.ID}
	h := NewHost(tr, simTimers{c.Eng}, c.Catalog, c.Obs, res, c.providerCfg, c.retry)
	tr.host = h
	handler := func(from radio.NodeID, msg any) {
		if pm, ok := msg.(proto.Msg); ok {
			h.Deliver(from, pm)
		}
	}
	if err := c.Medium.Attach(spec.ID, spec.Mobility, spec.RangeM, spec.Bitrate, handler); err != nil {
		return nil, err
	}
	n := &Node{Host: h, ID: spec.ID, Profile: spec.Profile}
	c.nodes[spec.ID] = n
	if spec.BatteryDrain > 0 {
		c.runBattery(spec.ID, res, spec.BatteryDrain)
	}
	return n, nil
}

// runBattery drains the node's Energy capacity by drain units once per
// simulated second and takes the node off the air when it empties.
func (c *Cluster) runBattery(id radio.NodeID, res *resource.Set, drain float64) {
	const tick = 1.0
	var loop func()
	loop = func() {
		if c.Medium.Down(id) {
			return // failed by other means; stop draining
		}
		left := res.Capacity()[resource.Energy] - drain*tick
		if left < 0 {
			left = 0
		}
		res.SetCapacity(resource.Energy, left)
		if left == 0 {
			c.FailNode(id)
			return
		}
		c.Eng.After(tick, loop)
	}
	c.Eng.After(tick, loop)
}

// Node returns a node by ID, or nil.
func (c *Cluster) Node(id radio.NodeID) *Node {
	return c.nodes[id]
}

// Nodes returns all node IDs, ascending.
func (c *Cluster) Nodes() []radio.NodeID { return c.Medium.NodeIDs() }

// Submit schedules a service request at the given node and simulated
// time; onFormed fires when each (re)formation attempt completes. It
// returns the organizer so callers can dissolve or inspect the coalition.
func (c *Cluster) Submit(at float64, node radio.NodeID, svc *task.Service, cfg OrganizerConfig, onFormed func(*Result)) (*Organizer, error) {
	n, ok := c.nodes[node]
	if !ok {
		return nil, fmt.Errorf("core: unknown node %d", node)
	}
	o, err := n.Organize(svc, cfg, onFormed)
	if err != nil {
		return nil, err
	}
	if at < c.Eng.Now() {
		at = c.Eng.Now()
	}
	c.Eng.At(at, o.Start)
	return o, nil
}

// FailNode takes a node off the air (radio down, provider ignoring
// traffic); used by the failure-injection experiments.
func (c *Cluster) FailNode(id radio.NodeID) {
	c.Medium.SetDown(id, true)
	if n, ok := c.nodes[id]; ok {
		n.Provider.SetDown(true)
	}
}

// RecoverNode brings a failed node back.
func (c *Cluster) RecoverNode(id radio.NodeID) {
	c.Medium.SetDown(id, false)
	if n, ok := c.nodes[id]; ok {
		n.Provider.SetDown(false)
	}
}

// RebootNode brings a failed node back with amnesia: its provider's
// reservations, holds and offers are purged before the radio comes up,
// modeling a device that left the neighbourhood and returned with no
// coalition state. The churn engine uses this so nodes that missed a
// Dissolve while off the air do not leak ledger entries forever.
func (c *Cluster) RebootNode(id radio.NodeID) {
	if n, ok := c.nodes[id]; ok {
		n.Provider.Reset()
	}
	c.RecoverNode(id)
}

// RetireService forgets a dissolved organizer on the given node (see
// Host.Retire).
func (c *Cluster) RetireService(node radio.NodeID, svcID string) error {
	n, ok := c.nodes[node]
	if !ok {
		return fmt.Errorf("core: unknown node %d", node)
	}
	return n.Retire(svcID)
}

// Run drives the simulation until the horizon (0 = until idle).
func (c *Cluster) Run(until float64) float64 { return c.Eng.Run(until) }

// GridPlacement returns a static position on a sqrt-grid with the given
// spacing; a convenience for experiments that want guaranteed
// connectivity without mobility.
func GridPlacement(i, total int, spacing float64) radio.Static {
	side := int(math.Ceil(math.Sqrt(float64(total))))
	if side == 0 {
		side = 1
	}
	return radio.Static{X: float64(i%side) * spacing, Y: float64(i/side) * spacing}
}
