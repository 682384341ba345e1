package obs

// Canonical counter names. The registry itself accepts any string, but
// every counter this repository registers does so under one of these
// constants — the single list is what lets session.Stats, the fabric
// merge, the chaos report, and the benchmark agree on keys without a
// shared schema file. The prefix is the owning package.
const (
	// Retransmissions counts retry sends the reliability layer issued
	// (proto.Reliable, one counter per node).
	Retransmissions = "proto.retransmissions"
	// Duplicates counts sequenced deliveries the receiver-side window
	// suppressed (proto.Dedup, one counter per node).
	Duplicates = "proto.duplicates"
	// StaleReleases counts TaskRelease messages a provider refused
	// because their round predated the current reservation (core.Provider,
	// one counter per node).
	StaleReleases = "core.stale_releases"
	// Freezes counts gray-failure freeze events a fault plan delivered
	// to the session engine.
	Freezes = "session.freezes"
	// Reclaimed counts reservations the reconciliation sweep reclaimed.
	Reclaimed = "session.reclaimed"
	// NetSent/NetDelivered/NetSendErrors/NetOverflows count the TCP
	// fabric's message traffic (internal/net): frames written, frames
	// dispatched after decode, sends that surfaced a socket error
	// (dial/write/deadline failures — modeled loss never counts here),
	// and messages that found the endpoint inbox full and had to wait
	// (nothing is dropped there).
	NetSent       = "net.sent"
	NetDelivered  = "net.delivered"
	NetSendErrors = "net.send_errors"
	NetOverflows  = "net.overflows"
)
