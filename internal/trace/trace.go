// Package trace provides lightweight structured tracing of the
// negotiation protocol: organizers and providers emit events at every
// protocol transition, and a fixed-capacity ring buffer keeps the most
// recent ones for inspection. Tracing is opt-in and allocation-cheap so
// it can stay enabled in production deployments; cmd/qosim -trace prints
// the timeline of a run.
package trace

import (
	"fmt"
	"strings"
	"sync"
)

// Event is one protocol transition. The JSON field order is the
// canonical wire order of the flight recorder's JSONL output: Go
// marshals struct fields in declaration order, so every sink that
// marshals Events (Buffer, Journal) emits byte-identical lines for
// identical events with no map-ordering hazards.
type Event struct {
	// T is the emitting entity's clock, in virtual seconds.
	T float64 `json:"t"`
	// Node is the emitting node's ID.
	Node int `json:"node"`
	// Role is "organizer", "provider", or "engine".
	Role string `json:"role"`
	// Kind names the transition ("cfp", "proposal", "award", "ack",
	// "formed", "failure", "upgrade", "dissolve", ...). Span events use
	// "<name>.begin" / "<name>.end".
	Kind string `json:"kind"`
	// Detail is a short human-readable elaboration.
	Detail string `json:"detail,omitempty"`
	// Span ties a .begin/.end pair together; empty for point events.
	Span string `json:"span,omitempty"`
}

// String renders the event as one timeline line.
func (e Event) String() string {
	s := fmt.Sprintf("%8.3fs node %2d %-9s %-10s %s", e.T, e.Node, e.Role, e.Kind, e.Detail)
	if e.Span != "" {
		s += " [" + e.Span + "]"
	}
	return s
}

// Tracer receives events. Implementations must be safe for concurrent
// use: the TCP runtime emits from many goroutines.
type Tracer interface {
	Emit(e Event)
}

// Nop discards all events; the zero value is ready to use.
type Nop struct{}

// Emit implements Tracer.
func (Nop) Emit(Event) {}

// Ring keeps the most recent events in a fixed-capacity circular buffer.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	wrap  bool
	total uint64
}

// NewRing builds a ring holding up to capacity events (minimum 16).
func NewRing(capacity int) *Ring {
	if capacity < 16 {
		capacity = 16
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Emit implements Tracer.
func (r *Ring) Emit(e Event) {
	r.mu.Lock()
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrap = true
	}
	r.total++
	r.mu.Unlock()
}

// Total returns the number of events ever emitted.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Events returns the retained events in emission order.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrap {
		out := make([]Event, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// String renders the retained timeline.
func (r *Ring) String() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
