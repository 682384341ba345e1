// Package live runs the coalition formation protocol over real
// concurrency: every node is a goroutine (the agent), radio links are
// buffered channels, and latency is modeled with scaled wall-clock
// timers. Every node is the same core.Host the simulator and the TCP
// runtime assemble; only the transport and timers differ, which is how
// experiment E10 checks runtime equivalence.
package live

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/task"
	"repro/internal/trace"
)

// envelope is one in-flight message.
type envelope struct {
	from radio.NodeID
	msg  proto.Msg
}

// Config tunes the runtime.
type Config struct {
	// TimeScale converts virtual seconds (the protocol's time base) to
	// wall-clock: wall = virtual * TimeScale. Default 0.02 (a 0.25 s
	// proposal window becomes 5 ms of wall time).
	TimeScale float64
	// InboxDepth is each node's channel buffer; overflowing messages are
	// dropped like a saturated radio (default 256).
	InboxDepth int
	// Provider configures every node's QoS Provider.
	Provider core.ProviderConfig
	// Retry enables the at-least-once reliability layer on every node's
	// transport (DESIGN.md §12): retriable messages are sequenced and
	// blindly retransmitted on the bounded backoff schedule, and each
	// node's dispatcher deduplicates by (sender, seq) before handling.
	Retry proto.RetryConfig
	// Trace receives runtime events (today: inbox overflows), so daemon
	// backpressure shows up on the PR-8 flight recorder alongside the
	// protocol timeline. Nil discards.
	Trace trace.Tracer
}

// Runtime hosts the goroutine nodes.
type Runtime struct {
	cfg     Config
	catalog *core.Catalog
	start   time.Time

	mu    sync.RWMutex
	nodes map[radio.NodeID]*Node

	// Sent, Delivered and Dropped count message traffic. Overflows counts
	// the subset of drops caused by a full inbox (receiver saturation, as
	// opposed to range or membership failures) — the live analogue of a
	// congested radio queue, watched by the chaos invariants. All four
	// register into Obs alongside each node's protocol counters.
	Sent      obs.Counter
	Delivered obs.Counter
	Dropped   obs.Counter
	Overflows obs.Counter

	// Obs aggregates the runtime's traffic counters and every node's
	// retransmission/dedup counters into one snapshot.
	Obs *obs.Registry
}

// Node is one live agent: the shared core.Host behind a channel inbox
// drained by the node's own goroutine.
type Node struct {
	*core.Host
	ID   radio.NodeID
	Link radio.Link

	rt    *Runtime
	inbox chan envelope
	quit  chan struct{}
	done  chan struct{}
}

// NewRuntime builds an empty runtime.
func NewRuntime(cfg Config) *Runtime {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 0.02
	}
	if cfg.InboxDepth <= 0 {
		cfg.InboxDepth = 256
	}
	if cfg.Trace == nil {
		cfg.Trace = trace.Nop{}
	}
	rt := &Runtime{
		cfg:     cfg,
		catalog: core.NewCatalog(),
		start:   time.Now(),
		nodes:   make(map[radio.NodeID]*Node),
		Obs:     obs.NewRegistry(),
	}
	rt.Obs.Register(obs.LiveSent, &rt.Sent)
	rt.Obs.Register(obs.LiveDelivered, &rt.Delivered)
	rt.Obs.Register(obs.LiveDropped, &rt.Dropped)
	rt.Obs.Register(obs.LiveOverflows, &rt.Overflows)
	return rt
}

// Catalog exposes the shared application catalog.
func (rt *Runtime) Catalog() *core.Catalog { return rt.catalog }

// liveTimers adapts wall-clock time to the protocol's virtual seconds.
type liveTimers struct{ rt *Runtime }

func (t liveTimers) Now() float64 {
	return time.Since(t.rt.start).Seconds() / t.rt.cfg.TimeScale
}

func (t liveTimers) After(d float64, fn func()) {
	if d < 0 {
		d = 0
	}
	time.AfterFunc(time.Duration(d*t.rt.cfg.TimeScale*float64(time.Second)), fn)
}

// liveTransport sends through channels with modeled latency.
type liveTransport struct {
	rt *Runtime
	id radio.NodeID
}

func (t liveTransport) Self() radio.NodeID { return t.id }

// Send implements proto.Transport. In-process channels cannot fail the
// way a socket can; modeled loss (range, membership, overflow) is not a
// send error, so the live transport always returns nil.
func (t liveTransport) Send(to radio.NodeID, m proto.Msg) error {
	t.rt.send(t.id, to, m)
	return nil
}

func (t liveTransport) Broadcast(m proto.Msg) error {
	t.rt.mu.RLock()
	src, ok := t.rt.nodes[t.id]
	var dests []*Node
	if ok {
		for _, n := range t.rt.nodes {
			if n.ID != t.id && radio.LinkInRange(src.Link, n.Link) {
				dests = append(dests, n)
			}
		}
	}
	t.rt.mu.RUnlock()
	for _, n := range dests {
		t.rt.send(t.id, n.ID, m)
	}
	return nil
}

func (t liveTransport) CommCost(to radio.NodeID, size int64) float64 {
	if to == t.id {
		return 0
	}
	t.rt.mu.RLock()
	defer t.rt.mu.RUnlock()
	src, okA := t.rt.nodes[t.id]
	dst, okB := t.rt.nodes[to]
	if !okA || !okB || !radio.LinkInRange(src.Link, dst.Link) {
		return math.Inf(1)
	}
	return radio.LinkLatency(src.Link, dst.Link, size, 0, 0)
}

// send models latency with a timer, then posts to the destination inbox.
func (rt *Runtime) send(from, to radio.NodeID, m proto.Msg) {
	rt.Sent.Add(1)
	rt.mu.RLock()
	src, okA := rt.nodes[from]
	dst, okB := rt.nodes[to]
	rt.mu.RUnlock()
	if !okA || !okB {
		rt.Dropped.Add(1)
		return
	}
	var latency float64 // virtual seconds
	if from != to {
		if !radio.LinkInRange(src.Link, dst.Link) {
			rt.Dropped.Add(1)
			return
		}
		latency = radio.LinkLatency(src.Link, dst.Link, int64(m.WireSize()), 0, 0)
	}
	deliver := func() {
		select {
		case dst.inbox <- envelope{from: from, msg: m}:
			rt.Delivered.Add(1)
		default:
			rt.Dropped.Add(1)
			rt.Overflows.Add(1)
			rt.cfg.Trace.Emit(trace.Event{
				T:      liveTimers{rt}.Now(),
				Node:   int(to),
				Role:   "engine",
				Kind:   "inbox-overflow",
				Detail: fmt.Sprintf("dropped %s from node %d (inbox full)", m.Kind(), from),
			})
		}
	}
	if latency <= 0 {
		deliver()
		return
	}
	liveTimers{rt}.After(latency, deliver)
}

// AddNode spawns a node goroutine.
func (rt *Runtime) AddNode(id radio.NodeID, pos radio.Pos, rangeM, bitrate float64, capacity resource.Vector) (*Node, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, dup := rt.nodes[id]; dup {
		return nil, fmt.Errorf("live: node %d already exists", id)
	}
	tr := liveTransport{rt: rt, id: id}
	n := &Node{
		Host:  core.NewHost(tr, liveTimers{rt}, rt.catalog, rt.Obs, resource.NewSet(capacity), rt.cfg.Provider, rt.cfg.Retry),
		ID:    id,
		Link:  radio.Link{Pos: pos, RangeM: rangeM, Bitrate: bitrate},
		rt:    rt,
		inbox: make(chan envelope, rt.cfg.InboxDepth),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	rt.nodes[id] = n
	go n.loop()
	return n, nil
}

// loop is the agent goroutine: it drains the inbox into the host.
func (n *Node) loop() {
	defer close(n.done)
	for {
		select {
		case <-n.quit:
			return
		case env := <-n.inbox:
			n.Deliver(env.from, env.msg)
		}
	}
}

// Submit starts a negotiation from this node; onFormed fires on each
// completed (re)formation attempt, from a timer goroutine.
func (n *Node) Submit(svc *task.Service, cfg core.OrganizerConfig, onFormed func(*core.Result)) (*core.Organizer, error) {
	o, err := n.Organize(svc, cfg, onFormed)
	if err != nil {
		return nil, err
	}
	o.Start()
	return o, nil
}

// Node returns a node by ID, or nil.
func (rt *Runtime) Node(id radio.NodeID) *Node {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.nodes[id]
}

// Shutdown stops all node goroutines and waits for them to drain.
func (rt *Runtime) Shutdown() {
	rt.mu.Lock()
	nodes := make([]*Node, 0, len(rt.nodes))
	for _, n := range rt.nodes {
		nodes = append(nodes, n)
	}
	rt.mu.Unlock()
	for _, n := range nodes {
		close(n.quit)
	}
	for _, n := range nodes {
		<-n.done
	}
}

// VirtualSleep blocks for d virtual seconds of wall time; tests use it to
// wait out negotiation windows.
func (rt *Runtime) VirtualSleep(d float64) {
	time.Sleep(time.Duration(d * rt.cfg.TimeScale * float64(time.Second)))
}
