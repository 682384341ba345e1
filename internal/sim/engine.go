// Package sim is a deterministic discrete-event simulation engine: a
// virtual clock, an event queue that pops in (time, schedule sequence)
// order — stable FIFO for simultaneous events — and a seeded random
// source. All experiment tables in this repository are produced on this
// engine so that every number is reproducible from a seed.
//
// The queue is allocation-free on the hot path and has two parts:
//
//   - a 4-ary heap of small {at, seq, ref} keys, sifted by moving a hole
//     rather than swapping, whose payloads (the closure, or the shared
//     handler and its argument) sit in a free-listed slab;
//   - a few timer lanes: an After call goes into a FIFO lane for its
//     exact delay. Every key in a lane was scheduled at now+d for the
//     same d, so the lane is already sorted and re-arming a periodic
//     timer is an append. A delay that finds no lane goes to the heap.
//
// Pop takes the least key over the heap head and the lane heads, so the
// order is the same total order a single heap would give. The
// AtArg/AfterArg variants let callers schedule a shared handler with a
// pooled argument object instead of allocating a fresh closure per
// event.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is simulated time in seconds since the start of the run.
type Time = float64

// key orders one queued event; ref indexes its payload in the slab.
type key struct {
	at  Time
	seq uint64
	ref int32
}

func (k key) less(o key) bool {
	return k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// payload is a scheduled callback: either a plain closure (fn) or a
// shared handler plus argument (afn, arg). Exactly one of fn/afn is set.
type payload struct {
	fn  func()
	afn func(any)
	arg any
}

// laneCount is how many distinct After delays hold lanes at once. The
// protocol's own timers use three: round windows, heartbeats and
// monitor ticks; proposal holds and retransmissions take what is left.
const laneCount = 4

// lane is a FIFO ring of keys that all share the delay d. It is free
// (and may take another delay) when n is 0.
type lane struct {
	d       float64
	buf     []key // ring; len is 0 or a power of two
	head, n int
}

func (l *lane) push(k key) {
	if l.n == len(l.buf) {
		grown := make([]key, max(8, 2*len(l.buf)))
		for i := 0; i < l.n; i++ {
			grown[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
		}
		l.buf, l.head = grown, 0
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = k
	l.n++
}

func (l *lane) pop() {
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
}

// Sources of the least queued key, as returned by peek.
const (
	fromNone = -2
	fromHeap = -1
)

// Engine drives a single-threaded simulation. It is intentionally not
// safe for concurrent use: determinism comes from the single event loop.
type Engine struct {
	now     Time
	seq     uint64
	heap    []key
	lanes   [laneCount]lane
	slab    []payload
	free    []int32 // unused slab slots
	rng     *rand.Rand
	stopped bool

	// Processed counts executed events, for overhead reporting.
	Processed uint64
}

// New builds an engine seeded deterministically.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn at absolute time t. Scheduling in the past panics: it
// is always a logic error in the caller.
func (e *Engine) At(t Time, fn func()) {
	e.checkAt(t)
	e.heapPush(e.keyFor(t, payload{fn: fn}))
}

// AtArg schedules the shared handler fn with arg at absolute time t.
// It is the allocation-free twin of At: callers that would otherwise
// build a fresh closure per event pass one long-lived handler and a
// (typically pooled) argument instead. Ordering and semantics are
// identical to At.
func (e *Engine) AtArg(t Time, fn func(any), arg any) {
	e.checkAt(t)
	e.heapPush(e.keyFor(t, payload{afn: fn, arg: arg}))
}

// After schedules fn d seconds from now; negative delays clamp to zero.
// It is the call periodic timers make, so it alone is queued in a lane.
func (e *Engine) After(d float64, fn func()) {
	if d < 0 {
		d = 0
	}
	k := e.keyFor(e.now+d, payload{fn: fn})
	free := -1
	for i := range e.lanes {
		l := &e.lanes[i]
		if l.n == 0 {
			if free < 0 {
				free = i
			}
		} else if l.d == d {
			l.push(k)
			return
		}
	}
	if free < 0 {
		e.heapPush(k)
		return
	}
	e.lanes[free].d = d
	e.lanes[free].push(k)
}

// AfterArg schedules the shared handler fn with arg d seconds from now;
// negative delays clamp to zero. Its callers (radio deliveries, session
// departures) use many distinct delays, so it stays on the heap.
func (e *Engine) AfterArg(d float64, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	e.AtArg(e.now+d, fn, arg)
}

// Stop makes Run return after the current event.
func (e *Engine) Stop() { e.stopped = true }

func (e *Engine) checkAt(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
}

// keyFor stores p in the slab and returns its key at time t with the
// next schedule sequence.
func (e *Engine) keyFor(t Time, p payload) key {
	var ref int32
	if n := len(e.free); n > 0 {
		ref = e.free[n-1]
		e.free = e.free[:n-1]
		e.slab[ref] = p
	} else {
		ref = int32(len(e.slab))
		e.slab = append(e.slab, p)
	}
	e.seq++
	return key{at: t, seq: e.seq, ref: ref}
}

// heapPush inserts k into the 4-ary heap, moving the hole up from the
// end instead of swapping.
func (e *Engine) heapPush(k key) {
	e.heap = append(e.heap, k)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !k.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
}

// heapPop removes the heap's least key, moving the hole down from the
// root to where the last key fits.
func (e *Engine) heapPop() {
	h := e.heap
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.heap = h
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].less(h[m]) {
				m = j
			}
		}
		if !h[m].less(last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
}

// peek returns the least queued key and where it sits: fromHeap, a lane
// index, or fromNone when nothing is queued.
func (e *Engine) peek() (key, int) {
	var k key
	src := fromNone
	if len(e.heap) > 0 {
		k, src = e.heap[0], fromHeap
	}
	for i := range e.lanes {
		l := &e.lanes[i]
		if l.n == 0 {
			continue
		}
		if lk := l.buf[l.head]; src == fromNone || lk.less(k) {
			k, src = lk, i
		}
	}
	return k, src
}

// fire dequeues k from src, advances the clock to it and runs it.
func (e *Engine) fire(k key, src int) {
	if src == fromHeap {
		e.heapPop()
	} else {
		e.lanes[src].pop()
	}
	p := e.slab[k.ref]
	e.slab[k.ref] = payload{} // release fn/arg references
	e.free = append(e.free, k.ref)
	e.now = k.at
	e.Processed++
	if p.fn != nil {
		p.fn()
		return
	}
	p.afn(p.arg)
}

// Step executes the next event, returning false when the queue is empty
// or the engine is stopped.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	k, src := e.peek()
	if src == fromNone {
		return false
	}
	e.fire(k, src)
	return true
}

// Run executes events until the queue drains, Stop is called, or the
// clock passes until (until <= 0 means no horizon). It returns the final
// simulated time.
func (e *Engine) Run(until Time) Time {
	for !e.stopped {
		k, src := e.peek()
		if src == fromNone {
			break
		}
		if until > 0 && k.at > until {
			e.now = until
			break
		}
		e.fire(k, src)
	}
	return e.now
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int {
	n := len(e.heap)
	for i := range e.lanes {
		n += e.lanes[i].n
	}
	return n
}
