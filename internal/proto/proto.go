// Package proto defines the wire-level vocabulary of the coalition
// formation negotiation (Section 4.2): the message types exchanged
// between the Negotiation Organizer and the QoS Providers, and the
// transport/timer abstractions that let the same state machines run on
// the discrete-event simulator (internal/sim + internal/radio) and on the
// live goroutine runtime (internal/live).
package proto

import (
	"fmt"

	"repro/internal/qos"
	"repro/internal/radio"
)

// Msg is the marker interface for protocol messages. WireSize returns the
// approximate encoded size in bytes, used by the radio medium to model
// transmission latency and by the overhead experiments.
type Msg interface {
	WireSize() int
	Kind() string
}

// TaskDescr describes one task inside a call for proposals. The demand
// model itself stays on the providers' side: the paper has providers map
// QoS to resources locally; the CFP carries only the user-visible
// request. DemandRef names a demand profile that providers resolve via a
// shared catalog (the equivalent of application deployment metadata).
type TaskDescr struct {
	TaskID    string
	Request   qos.Request
	DemandRef string
	InBytes   int64
	OutBytes  int64
}

// CFP is message (1) of the negotiation algorithm: "the Negotiation
// Organizer broadcasts the description of each service, as well as user's
// preferences on each QoS dimension".
type CFP struct {
	ServiceID string
	Round     int // renegotiation round, 0 for the initial formation
	SpecName  string
	Tasks     []TaskDescr
	// Deadline is the organizer-local time by which proposals must
	// arrive; informational for providers (they answer immediately).
	Deadline float64
}

// WireSize implements Msg.
func (m *CFP) WireSize() int {
	n := 64
	for _, t := range m.Tasks {
		n += 48 + 24*len(t.Request.Dims)
		for _, d := range t.Request.Dims {
			n += 16 * len(d.Attrs)
		}
	}
	return n
}

// Kind implements Msg.
func (m *CFP) Kind() string { return "cfp" }

// TaskProposal is one task's multi-attribute proposal inside a Proposal
// message: the QoS level the provider commits to serve and its local
// reward (Section 5, eq. 1).
type TaskProposal struct {
	TaskID string
	Level  qos.Level
	Reward float64
	// Copies is the provider's capacity hint: how many concurrent tasks
	// of this demand it could hold at proposal time (>= 1). See
	// core.Candidate.Copies and DESIGN.md ("protocol refinements").
	Copies int
}

// Proposal is message (2): a QoS Provider's reply after consulting its
// Resource Managers. Tasks the provider cannot serve at any acceptable
// level are simply absent.
type Proposal struct {
	ServiceID string
	Round     int
	Tasks     []TaskProposal
}

// WireSize implements Msg.
func (m *Proposal) WireSize() int {
	n := 48
	for _, t := range m.Tasks {
		n += 24 + 16*len(t.Level)
	}
	return n
}

// Kind implements Msg.
func (m *Proposal) Kind() string { return "proposal" }

// Award is message (3->4): the organizer informs a winning node of the
// tasks it must execute, at the levels it proposed.
type Award struct {
	ServiceID string
	Round     int
	TaskIDs   []string
}

// WireSize implements Msg.
func (m *Award) WireSize() int { return 40 + 16*len(m.TaskIDs) }

// Kind implements Msg.
func (m *Award) Kind() string { return "award" }

// AwardAck confirms (or declines) an award after the provider attempted
// the actual resource reservation. Declines happen when resources were
// consumed between proposal and award (the proposal was not a hard hold).
type AwardAck struct {
	ServiceID string
	Round     int
	TaskIDs   []string
	OK        bool
	Reason    string
}

// WireSize implements Msg.
func (m *AwardAck) WireSize() int { return 48 + 16*len(m.TaskIDs) + len(m.Reason) }

// Kind implements Msg.
func (m *AwardAck) Kind() string { return "award-ack" }

// TaskData is message (4): "relevant data for task execution is sent to
// winning node". Its wire size dominates communication cost.
type TaskData struct {
	ServiceID string
	TaskID    string
	Bytes     int64
}

// WireSize implements Msg.
func (m *TaskData) WireSize() int { return 32 + int(m.Bytes) }

// Kind implements Msg.
func (m *TaskData) Kind() string { return "task-data" }

// TaskRelease tells a member to drop one task's reservation without
// dissolving the whole coalition; used when a quality-upgrade
// renegotiation migrates the task to a better node (Section 4's
// "dynamically change the executing quality level").
type TaskRelease struct {
	ServiceID string
	TaskID    string
	Reason    string
	// Round is the negotiation round the release was issued in.
	// Providers refuse releases older than the round that placed their
	// current reservation, so a delayed or fault-duplicated release
	// replayed after the task was re-awarded to the same node cannot
	// free the newer reservation (DESIGN.md §12).
	Round int
}

// WireSize implements Msg. Round rides in the 32-byte fixed header the
// other handshake fields already occupy.
func (m *TaskRelease) WireSize() int { return 32 + len(m.Reason) }

// Kind implements Msg.
func (m *TaskRelease) Kind() string { return "task-release" }

// Heartbeat is the operation-phase liveness signal from a coalition
// member to the organizer.
type Heartbeat struct {
	ServiceID string
	TaskIDs   []string
}

// WireSize implements Msg.
func (m *Heartbeat) WireSize() int { return 24 + 8*len(m.TaskIDs) }

// Kind implements Msg.
func (m *Heartbeat) Kind() string { return "heartbeat" }

// Dissolve terminates the coalition: members release their reservations.
type Dissolve struct {
	ServiceID string
	Reason    string
}

// WireSize implements Msg.
func (m *Dissolve) WireSize() int { return 24 + len(m.Reason) }

// Kind implements Msg.
func (m *Dissolve) Kind() string { return "dissolve" }

// Transport lets a protocol entity send messages. One vocabulary serves
// three runtimes: the simulated radio medium (internal/core over
// internal/radio), the in-process goroutine runtime (internal/live), and
// real TCP sockets (internal/net).
//
// Send and Broadcast return an error when the transport *knows* the
// message did not go out — a dial failure, a broken or deadline-expired
// socket. Modeled radio loss (out of range, LossProb, a full inbox) is
// not an error: it is the lossy medium the protocol is designed for, so
// the sim and live transports always return nil. Callers treat errors
// as advisory — the negotiation is loss-tolerant by construction and
// the reliability layer (Reliable) retries a failed send on any
// transport — but the TCP path surfaces them into the obs counters
// instead of swallowing them.
//
// A transport that guarantees more than this — ordered, lossless
// delivery while a connection is up — says so by also implementing
// Connected.
type Transport interface {
	// Self returns the local node ID.
	Self() radio.NodeID
	// Send unicasts to a neighbour.
	Send(to radio.NodeID, m Msg) error
	// Broadcast reaches all current single-hop neighbours.
	Broadcast(m Msg) error
	// CommCost estimates the cost (seconds) of moving size bytes to the
	// given node; +Inf when unreachable. The organizer uses it for the
	// "lowest communication cost" selection criterion.
	CommCost(to radio.NodeID, size int64) float64
}

// Network extends Transport with the explicit link lifecycle of
// deployments whose connections are real operating-system resources.
// In-process transports are born connected and never implement it; the
// TCP fabric (internal/net) does.
type Network interface {
	Transport
	// Listen starts accepting inbound peers.
	Listen() error
	// Dial registers (and lazily connects) the address of a peer.
	Dial(to radio.NodeID, addr string) error
	// Close tears the endpoint down, draining in-flight writes.
	Close() error
}

// Timers schedules callbacks in the entity's time base (virtual seconds
// on the simulator, scaled wall-clock on the live runtime).
type Timers interface {
	Now() float64
	After(d float64, fn func())
}

// String summarizes a message for traces.
func Describe(m Msg) string {
	return fmt.Sprintf("%s(%dB)", m.Kind(), m.WireSize())
}
