package proto

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/radio"
)

// This file is the at-least-once reliability layer of the negotiation
// protocol (DESIGN.md §12). The paper's handshakes assume a lossy
// ad-hoc radio but carry no redundancy; over a faulty medium
// (internal/faults) a single lost Award or TaskRelease silently
// degrades a formation or leaks a reservation. The hardening is the
// classic pair:
//
//   - at-least-once delivery: the Reliable transport wraps retriable
//     messages in a Sequenced envelope and retransmits them a bounded
//     number of times with exponential backoff and deterministic jitter
//     — no acks, so the message flow stays the paper's;
//   - idempotence: receivers drop (sender, seq) duplicates through a
//     Dedup window before dispatch, so retransmissions and
//     fault-injected duplicates collapse to one effective delivery.
//
// When a frame is retransmitted depends on what the link can tell the
// sender. A best-effort link (the simulated radio, internal/live) tells
// it nothing, so every frame is retransmitted blindly on the schedule
// and the overhead is a fixed small factor. A connection-oriented link
// (internal/net, the Connected capability) loses a frame only with its
// connection, so a frame is written once and the schedule runs for it
// only on evidence: its send failed, or its peer's connection went down
// within the schedule's span of the send.
//
// Everything is deterministic: retry delays come from a splitmix64
// hash of (self, seq, attempt), never from an rng, so enabling
// reliability changes no random draw sequence anywhere.

// Sequenced wraps a protocol message with the sender-local sequence
// number the reliability layer retransmits and deduplicates by.
// Transports deliver it like any message; receiving dispatchers unwrap
// via Unwrap after consulting their Dedup filter.
type Sequenced struct {
	Seq   uint64
	Inner Msg
}

// WireSize implements Msg: the inner size plus the 8-byte sequence.
func (m *Sequenced) WireSize() int { return 8 + m.Inner.WireSize() }

// Kind implements Msg, delegating to the wrapped message so traces and
// overhead accounting see the protocol vocabulary, not the envelope.
func (m *Sequenced) Kind() string { return m.Inner.Kind() }

// Unwrap peels a Sequenced envelope: it returns the inner message and
// the sequence number, or the message itself with seq 0 when it is not
// sequenced (sequence numbers start at 1, so 0 means "unsequenced").
func Unwrap(m Msg) (Msg, uint64) {
	if s, ok := m.(*Sequenced); ok {
		return s.Inner, s.Seq
	}
	return m, 0
}

// RetryConfig bounds the retransmission schedule.
type RetryConfig struct {
	// Retries is the number of retransmissions after the initial send
	// (0 disables the layer entirely).
	Retries int
	// Backoff is the delay before the first retransmission in seconds
	// (default 0.05); each further one doubles it by Factor (default 2)
	// up to MaxBackoff (default 1).
	Backoff    float64
	Factor     float64
	MaxBackoff float64
	// Jitter is the relative jitter amplitude (default 0.5): attempt i
	// is delayed by backoff_i * (1 + Jitter*u) where u in [0,1) is a
	// deterministic hash of (sender, seq, i). Jitter spreads the
	// retransmissions of a burst so they do not re-collide inside one
	// loss burst or congested window.
	Jitter float64
}

// Enabled reports whether the configuration retransmits at all.
func (c RetryConfig) Enabled() bool { return c.Retries > 0 }

// withDefaults normalizes zero values.
func (c RetryConfig) withDefaults() RetryConfig {
	if c.Backoff <= 0 {
		c.Backoff = 0.05
	}
	if c.Factor <= 1 {
		c.Factor = 2
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 1
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	} else if c.Jitter == 0 {
		c.Jitter = 0.5
	}
	return c
}

// DefaultRetryConfig is the schedule the chaos experiments run: three
// transmissions total (initial + 2), 50 ms then 100 ms backoff, both
// jittered — bounded well under the organizer's 250 ms proposal and
// ack windows, so retransmission (not renegotiation) is the first line
// of defense against loss.
var DefaultRetryConfig = RetryConfig{Retries: 2}

// splitmix64 is the deterministic jitter hash (Steele et al.).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jitter01 maps (self, seq, attempt) to [0,1).
func jitter01(self radio.NodeID, seq uint64, attempt int) float64 {
	h := splitmix64(uint64(self)*0x9e3779b97f4a7c15 ^ seq<<8 ^ uint64(attempt))
	return float64(h>>11) / float64(1<<53)
}

// Retriable reports whether the reliability layer covers a message
// kind. Heartbeats are excluded: they are periodic by construction, so
// the next tick is their retransmission and wrapping them would only
// inflate steady-state traffic.
func Retriable(m Msg) bool {
	_, hb := m.(*Heartbeat)
	return !hb
}

// Connected is the optional capability by which a transport states a
// stronger contract than Transport's: frames to a peer arrive in order,
// none is lost while the connection to that peer is up, and every
// connection that went down is reported. Reliable looks for it once, when
// it is built; internal/net's Endpoint has it, the simulated radio and
// internal/live do not.
type Connected interface {
	// NotifyPeerDown registers the function the transport calls — from its
	// own goroutines, holding none of its locks — each time an established
	// connection to a peer is lost. A later registration replaces the
	// earlier one.
	NotifyPeerDown(fn func(peer radio.NodeID))
}

// Reliable decorates a Transport with bounded retransmission of
// sequenced messages: blind on a best-effort transport, on evidence of
// loss on a Connected one. Sequence allocation and the retry counter are
// atomic so the live runtime's timer goroutines can share one per node;
// the simulator's single-threaded use pays only the uncontended cost.
type Reliable struct {
	inner Transport
	tm    Timers
	cfg   RetryConfig
	seq   atomic.Uint64

	// sent is nil on a best-effort transport, which pays for no ring.
	sent *replayRing

	// retx counts retry sends actually issued, for the overhead columns
	// of the chaos experiments; it registers into the owning runtime's
	// obs.Registry as "proto.retransmissions".
	retx obs.Counter
}

// NewReliable wraps a transport. A disabled config (Retries == 0) makes
// every Send and Broadcast a passthrough; a caller that knows the layer
// is off keeps the bare transport instead, as core.NewHost does.
func NewReliable(inner Transport, tm Timers, cfg RetryConfig) *Reliable {
	r := &Reliable{inner: inner, tm: tm, cfg: cfg.withDefaults()}
	if c, ok := inner.(Connected); ok && r.cfg.Enabled() {
		r.sent = &replayRing{horizon: r.cfg.span()}
		c.NotifyPeerDown(r.peerDown)
	}
	return r
}

// Self implements Transport.
func (r *Reliable) Self() radio.NodeID { return r.inner.Self() }

// CommCost implements Transport.
func (r *Reliable) CommCost(to radio.NodeID, size int64) float64 {
	return r.inner.CommCost(to, size)
}

// Send implements Transport: retriable messages to other nodes are
// wrapped, sent, and retransmitted on the backoff schedule — always on a
// best-effort transport, on evidence of loss on a Connected one.
// Self-sends and heartbeats pass through unwrapped. The returned error
// is the initial transmission's; a failed send is retried on either kind
// of transport, so a transient dial failure heals through the schedule.
func (r *Reliable) Send(to radio.NodeID, m Msg) error {
	if to == r.inner.Self() || !r.cfg.Enabled() || !Retriable(m) {
		return r.inner.Send(to, m)
	}
	return r.send(to, m)
}

// Broadcast implements Transport: each retransmission re-broadcasts,
// reaching whatever neighbours are in range at that instant.
func (r *Reliable) Broadcast(m Msg) error {
	if !r.cfg.Enabled() || !Retriable(m) {
		return r.inner.Broadcast(m)
	}
	return r.send(radio.Broadcast, m)
}

// send wraps m and transmits it to one node or, for radio.Broadcast, to
// all neighbours.
func (r *Reliable) send(to radio.NodeID, m Msg) error {
	w := &Sequenced{Seq: r.seq.Add(1), Inner: m}
	if r.sent == nil {
		err := r.transmit(to, w)
		r.scheduleRetries(to, w)
		return err
	}
	// Remembered before it is written: a connection that dies under the
	// write must find the frame in the ring.
	f := r.sent.push(w, to, r.tm)
	err := r.transmit(to, w)
	if err != nil && r.sent.claim(f, w) {
		r.scheduleRetries(to, w)
	}
	return err
}

func (r *Reliable) transmit(to radio.NodeID, w *Sequenced) error {
	if to == radio.Broadcast {
		return r.inner.Broadcast(w)
	}
	return r.inner.Send(to, w)
}

// peerDown is the Connected transport's report that the connection to a
// peer was lost: every frame that went to that peer, alone or in a
// broadcast, within the retry horizon may have been in the connection's
// buffers, so the schedule runs for each. The retries re-dial; a frame
// that had arrived after all is the receiver's Dedup window's to drop.
func (r *Reliable) peerDown(peer radio.NodeID) {
	for _, f := range r.sent.claimSentTo(peer, r.tm.Now()) {
		r.scheduleRetries(f.to, f.w)
	}
}

// Retransmissions reports the retry sends issued so far.
func (r *Reliable) Retransmissions() uint64 { return r.retx.Load() }

// RetxCounter exposes the retransmission counter for registration into
// an obs.Registry under obs.Retransmissions.
func (r *Reliable) RetxCounter() *obs.Counter { return &r.retx }

// Held reports how many sent frames are kept for replay: 0 on a
// best-effort transport, never more than DedupWindow.
func (r *Reliable) Held() int {
	if r.sent == nil {
		return 0
	}
	r.sent.mu.Lock()
	defer r.sent.mu.Unlock()
	return r.sent.n
}

// scheduleRetries arms the bounded retransmission timers: attempt i
// (1-based) fires min(Backoff*Factor^(i-1), MaxBackoff)*(1+Jitter*u_i)
// seconds after attempt i-1.
func (r *Reliable) scheduleRetries(to radio.NodeID, w *Sequenced) {
	delay := 0.0
	backoff := r.cfg.Backoff
	for i := 1; i <= r.cfg.Retries; i++ {
		step := math.Min(backoff, r.cfg.MaxBackoff)
		delay += step * (1 + r.cfg.Jitter*jitter01(r.inner.Self(), w.Seq, i))
		r.tm.After(delay, func() {
			r.retx.Inc()
			_ = r.transmit(to, w) // a retry that fails is not retried: Retries bounds the sends
		})
		backoff *= r.cfg.Factor
	}
}

// span is the longest the schedule can run: the last retry's delay at
// full jitter (0.225 s at DefaultRetryConfig). It is the retry horizon
// of a Connected transport, so what a replay covers is what the blind
// schedule covered.
func (c RetryConfig) span() float64 {
	span, backoff := 0.0, c.Backoff
	for i := 1; i <= c.Retries; i++ {
		span += math.Min(backoff, c.MaxBackoff) * (1 + c.Jitter)
		backoff *= c.Factor
	}
	return span
}

// sentFrame is one sequenced frame as it first went out.
type sentFrame struct {
	w        *Sequenced
	to       radio.NodeID // radio.Broadcast for a broadcast
	at       float64
	retrying bool // the schedule has run for it; it runs once
}

// replayRing is what a Connected transport may yet ask Reliable to send
// again: the frames of the last horizon seconds, oldest first, and never
// more than DedupWindow of them — anything older the receiver would call
// a duplicate anyway. Frames leave as later ones arrive, so an idle node
// pins at most its last burst.
type replayRing struct {
	mu      sync.Mutex
	horizon float64
	head, n int
	frames  [DedupWindow]sentFrame
}

func (q *replayRing) at(i int) *sentFrame { return &q.frames[(q.head+i)%DedupWindow] }

// push remembers a frame about to go out and returns its slot for claim.
// The clock is read under the lock, so the ring is ordered by time.
func (q *replayRing) push(w *Sequenced, to radio.NodeID, tm Timers) *sentFrame {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := tm.Now()
	q.expire(now)
	if q.n == DedupWindow {
		q.drop()
	}
	f := q.at(q.n)
	*f = sentFrame{w: w, to: to, at: now}
	q.n++
	return f
}

func (q *replayRing) expire(now float64) {
	for q.n > 0 && now-q.at(0).at > q.horizon {
		q.drop()
	}
}

func (q *replayRing) drop() {
	*q.at(0) = sentFrame{}
	q.head = (q.head + 1) % DedupWindow
	q.n--
}

// claim marks the frame w in slot f as retrying and reports whether the
// caller is the first to ask. A frame the ring has let go (its slot is
// empty or another's) is the caller's: nobody else can claim it.
func (q *replayRing) claim(f *sentFrame, w *Sequenced) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if f.w != w {
		return true
	}
	first := !f.retrying
	f.retrying = true
	return first
}

// claimSentTo claims every unclaimed frame still inside the horizon that
// went to peer or to everybody.
func (q *replayRing) claimSentTo(peer radio.NodeID, now float64) []sentFrame {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expire(now)
	var lost []sentFrame
	for i := 0; i < q.n; i++ {
		if f := q.at(i); !f.retrying && (f.to == peer || f.to == radio.Broadcast) {
			f.retrying = true
			lost = append(lost, *f)
		}
	}
	return lost
}

// Dedup is the receiver-side duplicate filter: one sliding window of
// seen sequence numbers per sender. Sequence numbers from one sender
// are consumed in near order (retransmission backoff is bounded), so a
// fixed window of the most recent DedupWindow sequences per sender is
// exact in practice; anything older than the window is treated as a
// duplicate, which errs on the side of dropping ancient replays.
//
// The zero Dedup is ready to use and allocates nothing until the first
// sequenced message arrives, keeping the default (reliability off)
// paths allocation-free.
type Dedup struct {
	bySrc map[radio.NodeID]*dedupWindow
	// Duplicates counts sequenced deliveries suppressed; it registers
	// into the owning runtime's obs.Registry as "proto.duplicates".
	Duplicates obs.Counter
}

// DedupWindow is the per-sender sliding-window width.
const DedupWindow = 512

type dedupWindow struct {
	max  uint64 // highest sequence seen
	bits [DedupWindow / 64]uint64
}

func (w *dedupWindow) bit(seq uint64) (idx int, mask uint64) {
	s := seq % DedupWindow
	return int(s / 64), 1 << (s % 64)
}

// Duplicate records (from, seq) and reports whether it was already
// seen. Unsequenced messages (seq 0) are never duplicates — the filter
// only ever suppresses traffic the reliability layer wrapped.
func (d *Dedup) Duplicate(from radio.NodeID, seq uint64) bool {
	if seq == 0 {
		return false
	}
	if d.bySrc == nil {
		d.bySrc = make(map[radio.NodeID]*dedupWindow)
	}
	w, ok := d.bySrc[from]
	if !ok {
		w = &dedupWindow{}
		d.bySrc[from] = w
	}
	switch {
	case seq > w.max:
		// Advance: clear every slot the window slides past.
		if seq-w.max >= DedupWindow {
			w.bits = [DedupWindow / 64]uint64{}
		} else {
			for s := w.max + 1; s < seq; s++ {
				i, m := w.bit(s)
				w.bits[i] &^= m
			}
		}
		w.max = seq
		i, m := w.bit(seq)
		w.bits[i] |= m
		return false
	case w.max-seq >= DedupWindow:
		// Older than the window: cannot tell, drop as duplicate.
		d.Duplicates.Inc()
		return true
	default:
		i, m := w.bit(seq)
		if w.bits[i]&m != 0 {
			d.Duplicates.Inc()
			return true
		}
		w.bits[i] |= m
		return false
	}
}
