package proto

import "repro/internal/radio"

// Sink consumes delivered protocol messages. core.Organizer and
// core.Provider both implement it; Dispatch routes between them.
type Sink interface {
	OnMsg(from radio.NodeID, m Msg)
}

// Dispatch is the shared receive plumbing of both runtimes (sim cluster,
// TCP fabric), extracted so the two do not each carry a copy:
//
//   - it peels the Sequenced envelope and drops retransmitted or
//     fault-duplicated deliveries through the node's Dedup window before
//     any handler mutates state (the idempotence half of the reliability
//     layer; unsequenced messages, seq 0, pass untouched, so the default
//     configuration takes this path with zero behavioral change);
//   - it routes the organizer-bound kinds (Proposal, AwardAck,
//     Heartbeat) to the organizer owning the service, and everything
//     else to the provider — the paper's role split.
//
// organizer returns nil when the node runs no organizer for the service;
// provider may be nil on endpoints that only organize. Dispatch reports
// whether a handler consumed the message (false: duplicate, or no route).
// Callers keep the lookup closure persistent per node so the hot path
// allocates nothing.
func Dispatch(d *Dedup, from radio.NodeID, m Msg, organizer func(service string) Sink, provider Sink) bool {
	m, seq := Unwrap(m)
	if d.Duplicate(from, seq) {
		return false
	}
	var svc string
	switch msg := m.(type) {
	case *Proposal:
		svc = msg.ServiceID
	case *AwardAck:
		svc = msg.ServiceID
	case *Heartbeat:
		svc = msg.ServiceID
	default:
		if provider == nil {
			return false
		}
		provider.OnMsg(from, m)
		return true
	}
	if o := organizer(svc); o != nil {
		o.OnMsg(from, m)
		return true
	}
	return false
}
