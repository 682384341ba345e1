// Package net runs the coalition formation protocol over real TCP
// sockets: the third runtime after the discrete-event simulator
// (internal/core over internal/radio) and the in-process goroutine
// runtime (internal/live). Every node is an OS process hosting an
// Endpoint — a listener, a pool of framed connections, and a peer
// directory learned from Hello handshakes — and the exact protocol
// state machines of internal/core run on top through the shared
// proto.Transport/proto.Timers contract. Frames are proto.Codec
// encodings; reachability and communication cost evaluate through
// radio.Link with the same arithmetic as the simulated medium, so a
// TCP-loopback negotiation selects the same coalition as the sim run
// of the same scenario (experiment E28).
package net

import (
	"errors"
	"fmt"
	"math"
	gonet "net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/trace"
)

// Config tunes an Endpoint.
type Config struct {
	// Self is this node's protocol identity.
	Self radio.NodeID
	// ListenAddr is the TCP address to accept peers on ("127.0.0.1:0"
	// for an ephemeral loopback port). Empty disables listening: a
	// dial-only endpoint, which is how a pure client joins the fabric.
	ListenAddr string
	// Link is this node's radio link description (position, range,
	// bitrate); it is what the Hello handshake advertises and what the
	// communication-cost model evaluates against peer links.
	Link radio.Link
	// Capacity is the node's total resource vector, advertised in Hello.
	Capacity resource.Vector
	// TimeScale converts the protocol's virtual seconds to wall-clock
	// for the endpoint's Timers, exactly like the live runtime
	// (default 0.02).
	TimeScale float64
	// PropDelay and ProcDelay parameterize the communication-cost model
	// (radio.LinkLatency); set them to the sim scenario's radio.Config
	// values when comparing runtimes.
	PropDelay, ProcDelay float64
	// DialTimeout bounds connect plus the Hello handshake (default 2s).
	DialTimeout time.Duration
	// WriteTimeout bounds each frame write (default 2s), and with it how
	// long a receiver that stopped reading can stall a sender. An expired
	// deadline is a send error: the connection is dropped and re-dialed
	// on the next send.
	WriteTimeout time.Duration
	// MaxFrame caps frame payloads in both directions (default
	// proto.DefaultMaxFrame).
	MaxFrame int
	// InboxDepth is the decoded-message queue depth (default 256). A
	// connection's read loop waits at a full inbox — nothing is dropped;
	// TCP flow control carries the backpressure to the sender, whose
	// WriteTimeout bounds it.
	InboxDepth int
	// Trace receives endpoint events (send errors, peer lifecycle). Nil
	// discards.
	Trace trace.Tracer
	// Obs, when set, is the registry the endpoint's counters register
	// into; nil creates a private one.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.TimeScale <= 0 {
		c.TimeScale = 0.02
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 2 * time.Second
	}
	if c.InboxDepth <= 0 {
		c.InboxDepth = 256
	}
	if c.Trace == nil {
		c.Trace = trace.Nop{}
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	return c
}

// Delivery is one decoded inbound message, as read from Inbox.
type Delivery struct {
	From radio.NodeID
	Msg  proto.Msg
}

// peer is one pooled connection.
type peer struct {
	id   radio.NodeID
	conn gonet.Conn
	wmu  sync.Mutex // serializes frame writes; guards sent
	// sent is the catalog this connection has carried to the peer: a
	// Submit pushes only what is missing from it. It lives and dies with
	// the connection, so a peer that restarted (and lost its catalog) is
	// re-seeded through the fresh connection's empty set.
	sent map[catalogKey]struct{}
}

// catalogKey names one catalog entry: a spec by name or a demand model
// by reference.
type catalogKey struct {
	spec bool
	name string
}

// dial is one outbound connection attempt in flight; senders that need
// the same peer meanwhile wait on done and share its outcome.
type dial struct {
	done chan struct{}
	p    *peer
	err  error
}

var (
	errClosed = errors.New("net: endpoint closed")
	// errAlreadyConnected is admit's refusal of a second socket to one peer.
	errAlreadyConnected = errors.New("already connected")
)

// frameBufs recycles encode buffers across sends, sized so that a
// negotiation frame never grows one.
var frameBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// Endpoint is the TCP implementation of proto.Network: a listener, a
// connection pool with lazy (re)dialing, read loops decoding frames
// into one inbox, and a peer directory driven by Hello handshakes.
type Endpoint struct {
	cfg   Config
	codec proto.Codec
	start time.Time

	mu     sync.Mutex
	ln     gonet.Listener
	peers  map[radio.NodeID]*peer
	dials  map[radio.NodeID]*dial
	addrs  map[radio.NodeID]string
	links  map[radio.NodeID]radio.Link
	caps   map[radio.NodeID]resource.Vector
	closed bool
	wg     sync.WaitGroup
	// onPeerDown, when set, hears of every lost connection
	// (proto.Connected).
	onPeerDown func(radio.NodeID)

	inbox chan Delivery
	// done is closed by Close; it releases read loops waiting at a full
	// inbox.
	done chan struct{}
	// Self-sends that found the inbox full wait here, in order, for the
	// pump goroutine to move them in: the node loop is the inbox's only
	// reader, so a self-send from it must neither block nor be dropped.
	selfMu  sync.Mutex
	selfq   []Delivery
	pumping bool
	// onCatalog, when set (by the owning Node, before Start), consumes
	// catalog pushes on the read loop instead of the inbox: a push is
	// applied where it is read, ahead of whatever the inbox still holds.
	onCatalog func(*proto.CatalogUpdate)

	// Sent counts frames written, Delivered frames decoded and queued
	// (catalog pushes: applied), SendErrors sends that surfaced a socket
	// failure, Overflows the times a message found the inbox full and had
	// to wait. All register into the configured obs registry under the
	// canonical net.* names.
	Sent, Delivered, SendErrors, Overflows obs.Counter
}

// NewEndpoint builds an endpoint; Listen starts accepting.
func NewEndpoint(cfg Config) *Endpoint {
	cfg = cfg.withDefaults()
	e := &Endpoint{
		cfg:   cfg,
		codec: proto.Codec{MaxFrame: cfg.MaxFrame},
		start: time.Now(),
		peers: make(map[radio.NodeID]*peer),
		dials: make(map[radio.NodeID]*dial),
		addrs: make(map[radio.NodeID]string),
		links: make(map[radio.NodeID]radio.Link),
		caps:  make(map[radio.NodeID]resource.Vector),
		inbox: make(chan Delivery, cfg.InboxDepth),
		done:  make(chan struct{}),
	}
	e.cfg.Obs.Register(obs.NetSent, &e.Sent)
	e.cfg.Obs.Register(obs.NetDelivered, &e.Delivered)
	e.cfg.Obs.Register(obs.NetSendErrors, &e.SendErrors)
	e.cfg.Obs.Register(obs.NetOverflows, &e.Overflows)
	return e
}

// Self implements proto.Transport.
func (e *Endpoint) Self() radio.NodeID { return e.cfg.Self }

// Obs returns the registry the endpoint's counters live in.
func (e *Endpoint) Obs() *obs.Registry { return e.cfg.Obs }

// Inbox is the stream of decoded inbound messages; the owning node's
// loop drains it and feeds proto.Dispatch.
func (e *Endpoint) Inbox() <-chan Delivery { return e.inbox }

// NotifyPeerDown implements proto.Connected: TCP delivers a connection's
// frames in order and loses none while the connection is up (a full
// inbox makes its read loop wait, not drop), and fn hears of every
// connection lost while the endpoint is open.
func (e *Endpoint) NotifyPeerDown(fn func(peer radio.NodeID)) {
	e.mu.Lock()
	e.onPeerDown = fn
	e.mu.Unlock()
}

// Timers returns the endpoint's scaled wall-clock timers.
func (e *Endpoint) Timers() proto.Timers {
	return clockTimers{start: e.start, scale: e.cfg.TimeScale}
}

// clockTimers maps virtual protocol seconds onto scaled wall-clock,
// identically to the live runtime.
type clockTimers struct {
	start time.Time
	scale float64
}

func (t clockTimers) Now() float64 {
	return time.Since(t.start).Seconds() / t.scale
}

func (t clockTimers) After(d float64, fn func()) {
	if d < 0 {
		d = 0
	}
	time.AfterFunc(time.Duration(d*t.scale*float64(time.Second)), fn)
}

// Listen implements proto.Network: it binds the configured address and
// starts the accept loop.
func (e *Endpoint) Listen() error {
	if e.cfg.ListenAddr == "" {
		return errors.New("net: endpoint has no listen address")
	}
	ln, err := gonet.Listen("tcp", e.cfg.ListenAddr)
	if err != nil {
		return err
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		ln.Close()
		return errClosed
	}
	e.ln = ln
	e.mu.Unlock()
	e.wg.Add(1)
	go e.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address ("" before Listen), so tests
// and daemons can bind port 0 and report the real port.
func (e *Endpoint) Addr() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ln == nil {
		return ""
	}
	return e.ln.Addr().String()
}

// Dial implements proto.Network: it registers the peer's address and
// attempts to connect and handshake. The address stays registered on
// failure, so a later Send re-dials — which is how a transient dial
// failure heals through the reliability layer's retransmissions.
func (e *Endpoint) Dial(to radio.NodeID, addr string) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return errClosed
	}
	e.addrs[to] = addr
	e.mu.Unlock()
	_, err := e.connect(to)
	return err
}

// connect returns the live connection to a peer, dialing and
// handshaking if necessary. Concurrent callers share one dial: a second
// socket to the same peer would be refused by the far side.
func (e *Endpoint) connect(to radio.NodeID) (*peer, error) {
	for waited := false; ; waited = true {
		e.mu.Lock()
		if e.closed {
			// A retransmission timer outliving Close must not open sockets.
			e.mu.Unlock()
			return nil, errClosed
		}
		if p, ok := e.peers[to]; ok {
			e.mu.Unlock()
			return p, nil
		}
		d, inFlight := e.dials[to]
		if !inFlight {
			addr, ok := e.addrs[to]
			if !ok {
				e.mu.Unlock()
				return nil, fmt.Errorf("net: no address for node %d", to)
			}
			d = &dial{done: make(chan struct{})}
			e.dials[to] = d
			e.mu.Unlock()
			d.p, d.err = e.dial(to, addr)
			e.mu.Lock()
			delete(e.dials, to)
			e.mu.Unlock()
			close(d.done)
			return d.p, d.err
		}
		e.mu.Unlock()
		<-d.done
		// A shared success is a live connection. A shared failure began
		// before this call and may be stale — the peer may have come up
		// since — so it is believed only at the second time of asking.
		if d.err == nil || waited {
			return d.p, d.err
		}
	}
}

// dial opens and handshakes one outbound connection.
func (e *Endpoint) dial(to radio.NodeID, addr string) (*peer, error) {
	conn, err := gonet.DialTimeout("tcp", addr, e.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("net: dial node %d: %w", to, err)
	}
	// Handshake synchronously under the dial deadline: send our Hello,
	// require theirs. Once this returns, the peer's link is in the
	// directory, so in-range and cost queries see the node immediately.
	deadline := time.Now().Add(e.cfg.DialTimeout)
	conn.SetDeadline(deadline)
	if err := e.writeFrame(conn, e.hello()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("net: hello to node %d: %w", to, err)
	}
	m, err := e.codec.ReadMsg(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("net: hello from node %d: %w", to, err)
	}
	h, ok := m.(*proto.Hello)
	if !ok {
		conn.Close()
		return nil, fmt.Errorf("net: node %d opened with %s, want hello", to, m.Kind())
	}
	if h.Node != to {
		conn.Close()
		return nil, fmt.Errorf("net: dialed node %d but %d answered", to, h.Node)
	}
	conn.SetDeadline(time.Time{})
	p, err := e.admit(h, conn)
	if err != nil {
		conn.Close()
		if errors.Is(err, errAlreadyConnected) {
			// The peer's own dial was admitted while ours was under way:
			// that connection serves, ours is surplus.
			return p, nil
		}
		return nil, err
	}
	return p, nil
}

// hello builds this endpoint's handshake message.
func (e *Endpoint) hello() *proto.Hello {
	return &proto.Hello{
		Node: e.cfg.Self,
		X:    e.cfg.Link.Pos.X, Y: e.cfg.Link.Pos.Y,
		RangeM: e.cfg.Link.RangeM, Bitrate: e.cfg.Link.Bitrate,
		Capacity: e.cfg.Capacity,
	}
}

// admit records a handshaken connection and starts its read loop. An
// existing connection to the same peer wins: the newcomer is refused
// with errAlreadyConnected and the winner returned, so both sides keep
// exactly one socket per pair.
func (e *Endpoint) admit(h *proto.Hello, conn gonet.Conn) (*peer, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, errClosed
	}
	if cur, dup := e.peers[h.Node]; dup {
		return cur, fmt.Errorf("net: node %d %w", h.Node, errAlreadyConnected)
	}
	p := &peer{id: h.Node, conn: conn, sent: make(map[catalogKey]struct{})}
	e.peers[h.Node] = p
	e.links[h.Node] = radio.Link{Pos: radio.Pos{X: h.X, Y: h.Y}, RangeM: h.RangeM, Bitrate: h.Bitrate}
	e.caps[h.Node] = h.Capacity
	e.emit("peer-up", fmt.Sprintf("node %d at %s", h.Node, conn.RemoteAddr()))
	e.wg.Add(1)
	go e.readLoop(p)
	return p, nil
}

// acceptLoop admits inbound peers: read their Hello, answer with ours,
// then hand the connection to a read loop.
func (e *Endpoint) acceptLoop(ln gonet.Listener) {
	defer e.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.wg.Add(1)
		go func(conn gonet.Conn) {
			defer e.wg.Done()
			conn.SetDeadline(time.Now().Add(e.cfg.DialTimeout))
			m, err := e.codec.ReadMsg(conn)
			if err != nil {
				conn.Close()
				return
			}
			h, ok := m.(*proto.Hello)
			if !ok {
				conn.Close()
				return
			}
			if err := e.writeFrame(conn, e.hello()); err != nil {
				conn.Close()
				return
			}
			conn.SetDeadline(time.Time{})
			if _, err := e.admit(h, conn); err != nil {
				conn.Close()
			}
		}(conn)
	}
}

// readLoop decodes frames from one peer until the connection ends. The
// connection's Decoder reuses one frame buffer; what it hands out never
// aliases that buffer, so the inbox's consumers may keep any message.
func (e *Endpoint) readLoop(p *peer) {
	defer e.wg.Done()
	dec := e.codec.NewDecoder()
	for {
		m, err := dec.ReadMsg(p.conn)
		if err != nil {
			e.dropPeer(p, "read: "+err.Error())
			return
		}
		switch v := m.(type) {
		case *proto.Hello:
			// Directory refresh on an established connection.
			e.mu.Lock()
			e.links[v.Node] = radio.Link{Pos: radio.Pos{X: v.X, Y: v.Y}, RangeM: v.RangeM, Bitrate: v.Bitrate}
			e.caps[v.Node] = v.Capacity
			e.mu.Unlock()
			continue
		case *proto.Bye:
			e.dropPeer(p, "bye: "+v.Reason)
			return
		case *proto.CatalogUpdate:
			if e.onCatalog != nil {
				e.onCatalog(v)
				e.Delivered.Add(1)
				continue
			}
		}
		if !e.enqueue(Delivery{From: p.id, Msg: m}) {
			return // Close has the connection
		}
	}
}

// enqueue hands one message to the inbox, waiting while the inbox is
// full: the connection stops being read, its socket buffers fill, and the
// sender's writes slow to the consumer's pace. It reports false when the
// endpoint closed first.
func (e *Endpoint) enqueue(d Delivery) bool {
	select {
	case e.inbox <- d:
	default:
		e.Overflows.Add(1)
		select {
		case e.inbox <- d:
		case <-e.done:
			return false
		}
	}
	e.Delivered.Add(1)
	return true
}

// enqueueSelf hands the inbox a message this node sent itself, without
// ever blocking: behind a full inbox, or behind earlier self-sends still
// waiting, it queues for the pump goroutine.
func (e *Endpoint) enqueueSelf(d Delivery) error {
	e.selfMu.Lock()
	defer e.selfMu.Unlock()
	if !e.pumping {
		select {
		case e.inbox <- d:
			e.Delivered.Add(1)
			return nil
		default:
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return errClosed
		}
		e.wg.Add(1) // under mu, like admit: Close has not begun to wait
		e.mu.Unlock()
		e.pumping = true
		go e.pumpSelf()
	}
	e.Overflows.Add(1)
	e.selfq = append(e.selfq, d)
	return nil
}

// pumpSelf moves queued self-sends into the inbox as it drains, and ends
// when none is left.
func (e *Endpoint) pumpSelf() {
	defer e.wg.Done()
	for {
		e.selfMu.Lock()
		if len(e.selfq) == 0 {
			e.selfq, e.pumping = nil, false
			e.selfMu.Unlock()
			return
		}
		d := e.selfq[0]
		e.selfq[0] = Delivery{}
		e.selfq = e.selfq[1:]
		e.selfMu.Unlock()
		select {
		case e.inbox <- d:
			e.Delivered.Add(1)
		case <-e.done:
			return
		}
	}
}

// dropPeer closes and forgets one connection; the address survives, so
// the next send re-dials. The first drop of a connection while the
// endpoint is open is the peer-down event of proto.Connected.
func (e *Endpoint) dropPeer(p *peer, why string) {
	p.conn.Close()
	e.mu.Lock()
	cur, ok := e.peers[p.id]
	lost := ok && cur == p && !e.closed
	if lost {
		delete(e.peers, p.id)
	}
	notify := e.onPeerDown
	e.mu.Unlock()
	if lost {
		e.emit("peer-down", fmt.Sprintf("node %d: %s", p.id, why))
		if notify != nil {
			notify(p.id)
		}
	}
}

// writeFrame encodes and writes one frame under the write deadline.
func (e *Endpoint) writeFrame(conn gonet.Conn, m proto.Msg) error {
	frame, err := e.encode(m)
	if err != nil {
		return err
	}
	defer frameBufs.Put(frame)
	return e.writeBytes(conn, *frame)
}

// encode frames m into a pooled buffer, which the caller returns to
// frameBufs once the frame is written.
func (e *Endpoint) encode(m proto.Msg) (*[]byte, error) {
	buf := frameBufs.Get().(*[]byte)
	frame, err := e.codec.AppendFrame((*buf)[:0], m)
	if err != nil {
		frameBufs.Put(buf)
		return nil, err
	}
	*buf = frame
	return buf, nil
}

func (e *Endpoint) writeBytes(conn gonet.Conn, frame []byte) error {
	conn.SetWriteDeadline(time.Now().Add(e.cfg.WriteTimeout))
	_, err := conn.Write(frame)
	return err
}

// Send implements proto.Transport. Unlike the sim and live transports
// a TCP send can genuinely fail — dial refused, connection broken,
// write deadline expired — and the failure is returned, counted, and
// traced; the broken connection is dropped so the reliability layer's
// retries re-dial. A send to self never blocks (see enqueueSelf).
func (e *Endpoint) Send(to radio.NodeID, m proto.Msg) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return errClosed
	}
	if to == e.cfg.Self {
		e.Sent.Add(1)
		return e.enqueueSelf(Delivery{From: to, Msg: m})
	}
	p, err := e.connect(to)
	if err != nil {
		e.sendFailed(to, m.Kind(), err)
		return err
	}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return e.sendLocked(p, m)
}

// sendLocked encodes m and writes it to a peer whose wmu the caller
// holds.
func (e *Endpoint) sendLocked(p *peer, m proto.Msg) error {
	frame, err := e.encode(m)
	if err != nil {
		e.sendFailed(p.id, m.Kind(), err)
		return err
	}
	defer frameBufs.Put(frame)
	return e.writeTo(p, m.Kind(), *frame)
}

// writeTo writes one encoded frame to a peer whose wmu the caller holds.
// A failure is returned, counted and traced, and drops the connection.
func (e *Endpoint) writeTo(p *peer, kind string, frame []byte) error {
	if err := e.writeBytes(p.conn, frame); err != nil {
		e.dropPeer(p, "write: "+err.Error())
		e.sendFailed(p.id, kind, err)
		return err
	}
	e.Sent.Add(1)
	return nil
}

func (e *Endpoint) sendFailed(to radio.NodeID, kind string, err error) {
	e.SendErrors.Add(1)
	e.emit("send-error", fmt.Sprintf("%s to node %d: %v", kind, to, err))
}

// Broadcast implements proto.Transport: the frame, encoded once, goes
// to every known peer (registered address or live connection, never
// self) whose link is in radio range, mirroring the medium's single-hop
// semantics. Send failures are aggregated; partial delivery is normal on
// a fabric with a dead daemon and the negotiation tolerates it.
func (e *Endpoint) Broadcast(m proto.Msg) error {
	frame, err := e.encode(m)
	if err != nil {
		e.sendFailed(e.cfg.Self, m.Kind(), err)
		return err
	}
	defer frameBufs.Put(frame)
	var arr [maxStackFanout]*peer
	ps, errs := e.neighbours(m.Kind(), arr[:0])
	for _, p := range ps {
		p.wmu.Lock()
		err := e.writeTo(p, m.Kind(), *frame)
		p.wmu.Unlock()
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// maxStackFanout is the neighbourhood size up to which a broadcast's
// scratch lists stay on the stack.
const maxStackFanout = 16

// neighbours appends to ps the connection of every known peer in radio
// range, in ID order, connecting where needed. A failed dial is counted
// and traced as a failed send of a kind message, and returned.
func (e *Endpoint) neighbours(kind string, ps []*peer) ([]*peer, []error) {
	var arr [maxStackFanout]radio.NodeID
	order := arr[:0]
	e.mu.Lock()
	for id := range e.addrs {
		order = append(order, id)
	}
	for id := range e.peers {
		if _, ok := e.addrs[id]; !ok {
			order = append(order, id)
		}
	}
	e.mu.Unlock()
	sortNodeIDs(order)
	var errs []error
	for _, id := range order {
		if id == e.cfg.Self {
			continue
		}
		// Connect first so the directory has the peer's link, then apply
		// the range filter; an unreachable peer is a send error.
		p, err := e.connect(id)
		if err != nil {
			e.sendFailed(id, kind, err)
			errs = append(errs, err)
			continue
		}
		e.mu.Lock()
		l, ok := e.links[id]
		e.mu.Unlock()
		if ok && radio.LinkInRange(e.cfg.Link, l) { // else silent, like the medium
			ps = append(ps, p)
		}
	}
	return ps, errs
}

func sortNodeIDs(ids []radio.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// CommCost implements proto.Transport with the shared link-model
// arithmetic (radio.LinkLatency), so cost-based selection picks the
// same winners as the simulated medium for the same topology.
func (e *Endpoint) CommCost(to radio.NodeID, size int64) float64 {
	if to == e.cfg.Self {
		return 0
	}
	e.mu.Lock()
	l, ok := e.links[to]
	e.mu.Unlock()
	if !ok || !radio.LinkInRange(e.cfg.Link, l) {
		return math.Inf(1)
	}
	return radio.LinkLatency(e.cfg.Link, l, size, e.cfg.PropDelay, e.cfg.ProcDelay)
}

// PeerLink reports a peer's directory entry.
func (e *Endpoint) PeerLink(id radio.NodeID) (radio.Link, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	l, ok := e.links[id]
	return l, ok
}

// PeerCapacity reports a peer's advertised capacity.
func (e *Endpoint) PeerCapacity(id radio.NodeID) (resource.Vector, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.caps[id]
	return c, ok
}

// Peers returns the IDs of currently connected peers, ascending.
func (e *Endpoint) Peers() []radio.NodeID {
	e.mu.Lock()
	ids := make([]radio.NodeID, 0, len(e.peers))
	for id := range e.peers {
		ids = append(ids, id)
	}
	e.mu.Unlock()
	sortNodeIDs(ids)
	return ids
}

// Close implements proto.Network: it stops accepting, says Bye to every
// peer, closes all connections, and waits for the read loops to drain.
// Close is idempotent.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	ln := e.ln
	peers := make([]*peer, 0, len(e.peers))
	for _, p := range e.peers {
		peers = append(peers, p)
	}
	e.peers = make(map[radio.NodeID]*peer)
	e.mu.Unlock()
	close(e.done)
	if ln != nil {
		ln.Close()
	}
	bye := &proto.Bye{Reason: "closing"}
	for _, p := range peers {
		p.wmu.Lock()
		_ = e.writeFrame(p.conn, bye) // best effort
		p.wmu.Unlock()
		p.conn.Close()
	}
	e.wg.Wait()
	return nil
}

// emit publishes an endpoint trace event stamped with the scaled clock.
func (e *Endpoint) emit(kind, detail string) {
	e.cfg.Trace.Emit(trace.Event{
		T:      e.Timers().Now(),
		Node:   int(e.cfg.Self),
		Role:   "engine",
		Kind:   kind,
		Detail: detail,
	})
}
