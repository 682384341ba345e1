package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/task"
	"repro/internal/trace"
)

// ProviderConfig tunes a node's QoS Provider.
type ProviderConfig struct {
	// GridSteps discretizes continuous accepted spans (qos.BuildLadder).
	GridSteps int
	// Hold makes proposals tentatively reserve their demand until
	// HoldTimeout expires or an award converts them. Without holds a
	// provider may over-promise across concurrent negotiations and
	// decline at award time (the organizer then renegotiates).
	Hold        bool
	HoldTimeout float64
	// HeartbeatEvery is the operation-phase liveness period (seconds);
	// zero disables heartbeats.
	HeartbeatEvery float64
	// Trace receives protocol events (nil = no tracing).
	Trace trace.Tracer

	// simTransport marks the transport as the cluster's single-threaded
	// in-engine transport, where a delivered message is consumed before
	// the sender runs again. It lets the heartbeat loop reuse one message
	// and task buffer per service instead of allocating per tick. Only
	// NewHost sets it, when it is handed the cluster's in-engine
	// transport; the TCP transport (internal/net) leaves it false.
	simTransport bool
}

// DefaultProviderConfig is the configuration used by the experiments.
var DefaultProviderConfig = ProviderConfig{
	GridSteps:      qos.DefaultGridSteps,
	HoldTimeout:    2.0,
	HeartbeatEvery: 0.5,
}

type offerKey struct {
	svc   string
	round int
	task  string
}

// compiledKey caches compiled formulation problems per CFP demand
// reference. A demand reference is immutable once registered in the
// catalog (AddDemand rejects duplicates, RegisterService keeps the
// first), so the same (spec, ref) pair always names the same demand
// model; the cached entry still remembers the request and is recompiled
// if a CFP ever carries a different one under the same reference.
type compiledKey struct {
	spec string
	ref  string
}

type compiledEntry struct {
	req qos.Request
	cp  *CompiledProblem

	// Formulate memo. The Section 5 heuristic is a pure function of the
	// node's availability vector: the degradation path depends only on
	// the reward table, and availability merely picks the stopping point.
	// Formulations are immutable once built, so when availability has not
	// changed since the last formulation of this problem the previous
	// result is returned as-is. The entry is formulated only from the
	// goroutine that delivers to the provider.
	lastAvail resource.Vector
	lastF     *Formulation
	lastErr   error
	haveLast  bool
}

// reservationEntry is one firm reservation plus the negotiation round
// that placed it. The round guards release replay: a TaskRelease issued
// for an old placement (then delayed or duplicated by a faulty medium)
// must not free a reservation a later round re-awarded to the same node
// (DESIGN.md §12).
type reservationEntry struct {
	id    resource.ReservationID
	round int
}

type serviceState struct {
	organizer    radio.NodeID
	reservations map[string]reservationEntry // task -> firm reservation
	running      map[string]bool             // task -> data received
	hbActive     bool
	released     bool             // ReleaseService dropped this state; its loop stops
	hbTick       func()           // persistent heartbeat closure, built once
	hbMsg        *proto.Heartbeat // reused message (simTransport only)
	hbTasks      []string         // running's keys, sorted; rebuilt when hbStale
	hbStale      bool             // running changed since hbTasks was built
}

// Provider is the paper's QoS Provider: "a server that negotiates access
// to node's resources ... it will contact the Resource Managers to grant
// specific resource amounts to the requesting task" (Section 4.1). It
// answers CFPs with multi-attribute proposals formulated by the local
// QoS optimization heuristic, converts awards into firm reservations,
// executes tasks, and emits heartbeats during coalition operation.
type Provider struct {
	ID  radio.NodeID
	Res *resource.Set

	cat *Catalog
	tr  proto.Transport
	tm  proto.Timers
	cfg ProviderConfig

	mu       sync.Mutex
	offers   map[offerKey]*Formulation
	services map[string]*serviceState
	holds    map[offerKey]resource.ReservationID
	compiled map[compiledKey]*compiledEntry
	down     bool
	traceOn  bool

	// Stats for the experiments.
	CFPs      int
	Proposals int
	Accepts   int
	Declines  int
	// StaleReleases counts TaskRelease messages refused because their
	// round predated the round that placed the current reservation; it
	// registers into the cluster's obs.Registry as obs.StaleReleases.
	StaleReleases obs.Counter
}

// NewProvider wires a provider to its node's resources, the shared
// catalog, and a transport/timer pair.
func NewProvider(id radio.NodeID, res *resource.Set, cat *Catalog, tr proto.Transport, tm proto.Timers, cfg ProviderConfig) *Provider {
	if cfg.GridSteps <= 0 {
		cfg.GridSteps = qos.DefaultGridSteps
	}
	if cfg.Trace == nil {
		cfg.Trace = trace.Nop{}
	}
	_, nop := cfg.Trace.(trace.Nop)
	return &Provider{
		ID: id, Res: res, cat: cat, tr: tr, tm: tm, cfg: cfg, traceOn: !nop,
		offers:   make(map[offerKey]*Formulation),
		services: make(map[string]*serviceState),
		holds:    make(map[offerKey]resource.ReservationID),
		compiled: make(map[compiledKey]*compiledEntry),
	}
}

// SetDown marks the provider failed; failed providers ignore all traffic
// and stop heartbeating (their radio is down too, but timers keep firing).
func (p *Provider) SetDown(down bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.down = down
}

// OnMsg dispatches a delivered protocol message to the provider's
// handlers. Unknown message kinds are ignored (they belong to the
// organizer role).
func (p *Provider) OnMsg(from radio.NodeID, m proto.Msg) {
	p.mu.Lock()
	if p.down {
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	switch msg := m.(type) {
	case *proto.CFP:
		p.onCFP(from, msg)
	case *proto.Award:
		p.onAward(from, msg)
	case *proto.TaskData:
		p.onTaskData(from, msg)
	case *proto.TaskRelease:
		p.onTaskRelease(from, msg)
	case *proto.Dissolve:
		p.onDissolve(from, msg)
	}
}

// onCFP implements step (2) of the negotiation algorithm: "each QoS
// Provider contacts its Resource Managers and replies with a
// multi-attribute proposal".
func (p *Provider) onCFP(from radio.NodeID, m *proto.CFP) {
	p.mu.Lock()
	p.CFPs++
	p.mu.Unlock()
	spec, ok := p.cat.Spec(m.SpecName)
	if !ok {
		return
	}
	reply := &proto.Proposal{ServiceID: m.ServiceID, Round: m.Round}
	for i := range m.Tasks {
		td := &m.Tasks[i]
		dm, ok := p.cat.Demand(td.DemandRef)
		if !ok {
			continue
		}
		e, err := p.compileFor(m.SpecName, td.DemandRef, spec, &td.Request, dm)
		if err != nil {
			continue
		}
		f, err := p.formulate(e)
		if err != nil {
			continue
		}
		key := offerKey{svc: m.ServiceID, round: m.Round, task: td.TaskID}
		p.mu.Lock()
		p.offers[key] = f
		p.mu.Unlock()
		if p.cfg.Hold {
			p.placeHold(key, f)
		}
		reply.Tasks = append(reply.Tasks, proto.TaskProposal{
			TaskID: td.TaskID, Level: f.Level, Reward: f.Reward,
			Copies: copiesFor(p.Res.Available(), f.Demand),
		})
	}
	if len(reply.Tasks) == 0 {
		if p.traceOn {
			p.emit("no-offer", fmt.Sprintf("service %s round %d: nothing schedulable", m.ServiceID, m.Round))
		}
		return
	}
	p.mu.Lock()
	p.Proposals++
	p.mu.Unlock()
	if p.traceOn {
		p.emit("propose", fmt.Sprintf("service %s round %d: %d task(s)", m.ServiceID, m.Round, len(reply.Tasks)))
	}
	p.tr.Send(from, reply)
}

// formulate runs the compiled problem against one snapshot of the node's
// availability, reusing the entry's memoized Formulation when the
// snapshot equals the last one (see compiledEntry). The predicate is
// Set.CanReserve's (Vector.Grants), evaluated on the snapshot instead of
// the live ledger: a timer goroutine releasing a hold mid-scan cannot
// make the answer anything but a function of the vector the memo is
// keyed by.
func (p *Provider) formulate(e *compiledEntry) (*Formulation, error) {
	avail := p.Res.Available()
	if e.haveLast && avail == e.lastAvail {
		return e.lastF, e.lastErr
	}
	f, err := e.cp.Formulate(avail.Grants)
	e.lastAvail, e.lastF, e.lastErr, e.haveLast = avail, f, err, true
	return f, err
}

// compileFor returns the cached compiled formulation problem for one
// CFP task, compiling on first sight. Renegotiation rounds, concurrent
// negotiations over the same service, and monitor-driven reformations
// all re-CFP the same (request, demand) pairs, so the ladder and the
// slot tables are built once per provider instead of once per proposal.
// The cached request copy guards the cache against a reference ever
// being reused with a different request: equality is checked and a
// mismatch recompiles.
func (p *Provider) compileFor(specName, ref string, spec *qos.Spec, req *qos.Request, dm task.DemandModel) (*compiledEntry, error) {
	key := compiledKey{spec: specName, ref: ref}
	p.mu.Lock()
	e, ok := p.compiled[key]
	p.mu.Unlock()
	if ok && e.req.Equal(req) {
		return e, nil
	}
	e = &compiledEntry{req: *req}
	cp, err := CompileProblem(spec, &e.req, dm, p.cfg.GridSteps, nil)
	if err != nil {
		return nil, err
	}
	e.cp = cp
	p.mu.Lock()
	p.compiled[key] = e
	p.mu.Unlock()
	return e, nil
}

// emit publishes a trace event stamped with this provider's clock.
func (p *Provider) emit(kind, detail string) {
	p.cfg.Trace.Emit(trace.Event{
		T: p.tm.Now(), Node: int(p.ID), Role: "provider", Kind: kind, Detail: detail,
	})
}

// copiesFor computes the capacity hint: the largest k such that k copies
// of demand fit in avail, capped at 64 for mains-powered giants.
func copiesFor(avail, demand resource.Vector) int {
	k := 64
	for i := range demand {
		if demand[i] <= 0 {
			continue
		}
		fit := int(avail[i] / demand[i])
		if fit < k {
			k = fit
		}
	}
	if k < 1 {
		k = 1
	}
	return k
}

func (p *Provider) placeHold(key offerKey, f *Formulation) {
	id := resource.ReservationID(fmt.Sprintf("hold:%s/%d/%s@%d", key.svc, key.round, key.task, p.ID))
	if err := p.Res.Reserve(id, f.Demand); err != nil {
		return // hold is best-effort; award-time reservation still decides
	}
	p.mu.Lock()
	p.holds[key] = id
	p.mu.Unlock()
	timeout := p.cfg.HoldTimeout
	if timeout <= 0 {
		timeout = 2.0
	}
	p.tm.After(timeout, func() {
		p.mu.Lock()
		held, ok := p.holds[key]
		if ok && held == id {
			delete(p.holds, key)
		}
		p.mu.Unlock()
		if ok {
			p.Res.Release(id)
		}
	})
}

// onAward converts remembered offers into firm reservations and
// acknowledges which tasks the node actually accepted.
func (p *Provider) onAward(from radio.NodeID, m *proto.Award) {
	var accepted []string
	var declined []string
	for _, tid := range m.TaskIDs {
		key := offerKey{svc: m.ServiceID, round: m.Round, task: tid}
		p.mu.Lock()
		f, ok := p.offers[key]
		holdID, held := p.holds[key]
		if held {
			delete(p.holds, key)
		}
		p.mu.Unlock()
		if held {
			p.Res.Release(holdID)
		}
		if !ok {
			declined = append(declined, tid)
			continue
		}
		firm := resource.ReservationID(m.ServiceID + "/" + tid)
		if err := p.Res.Reserve(firm, f.Demand); err != nil {
			declined = append(declined, tid)
			continue
		}
		accepted = append(accepted, tid)
		p.mu.Lock()
		st := p.serviceStateLocked(m.ServiceID)
		st.organizer = from
		st.reservations[tid] = reservationEntry{id: firm, round: m.Round}
		p.mu.Unlock()
	}
	p.mu.Lock()
	p.Accepts += len(accepted)
	p.Declines += len(declined)
	p.mu.Unlock()
	ack := &proto.AwardAck{
		ServiceID: m.ServiceID, Round: m.Round,
		TaskIDs: accepted, OK: len(declined) == 0,
	}
	if len(declined) > 0 {
		ack.Reason = fmt.Sprintf("declined %d of %d tasks (resources changed since proposal)", len(declined), len(m.TaskIDs))
		if p.traceOn {
			p.emit("decline", fmt.Sprintf("service %s: %v", m.ServiceID, declined))
		}
	}
	if len(accepted) > 0 {
		if p.traceOn {
			p.emit("reserve", fmt.Sprintf("service %s: %v", m.ServiceID, accepted))
		}
	}
	p.tr.Send(from, ack)
}

// onTaskData marks the task running and starts the heartbeat loop; in a
// real deployment this is where execution would begin.
func (p *Provider) onTaskData(from radio.NodeID, m *proto.TaskData) {
	p.mu.Lock()
	st := p.serviceStateLocked(m.ServiceID)
	if _, reserved := st.reservations[m.TaskID]; !reserved {
		p.mu.Unlock()
		return
	}
	st.running[m.TaskID], st.hbStale = true, true
	tick := p.armHeartbeatLocked(m.ServiceID, st)
	p.mu.Unlock()
	if tick != nil {
		p.tm.After(p.cfg.HeartbeatEvery, tick)
	}
}

// armHeartbeatLocked marks the service's heartbeat loop active if it
// should start and returns its tick (nil when it should not); the caller
// must hold p.mu and schedule the tick after unlocking.
func (p *Provider) armHeartbeatLocked(svc string, st *serviceState) func() {
	if p.cfg.HeartbeatEvery <= 0 || st.hbActive {
		return nil
	}
	st.hbActive = true
	if st.hbTick == nil {
		// One closure per service state for its whole life, not one per
		// tick; it holds the state, so a tick looks nothing up by name.
		st.hbTick = func() { p.heartbeatTick(svc, st) }
	}
	return st.hbTick
}

// heartbeatTick sends one heartbeat for st and re-arms, send before
// timer. The loop belongs to st alone: once ReleaseService has dropped
// st it stops, and a service formed again under the same ID runs the
// loop its new state arms.
func (p *Provider) heartbeatTick(svc string, st *serviceState) {
	p.mu.Lock()
	if st.released || p.down || len(st.running) == 0 {
		st.hbActive = false
		p.mu.Unlock()
		return
	}
	if st.hbStale {
		// The task list is rebuilt only when running changed, sorted so
		// the encoded frame does not depend on map iteration order. A
		// goroutine-backed receiver may still be reading the last list,
		// so only the in-engine transport reuses its backing array.
		ids := st.hbTasks[:0]
		if !p.cfg.simTransport {
			ids = make([]string, 0, len(st.running))
		}
		for tid := range st.running {
			ids = append(ids, tid)
		}
		sort.Strings(ids)
		st.hbTasks, st.hbStale = ids, false
	}
	msg := st.hbMsg
	if msg == nil {
		msg = &proto.Heartbeat{ServiceID: svc}
		if p.cfg.simTransport {
			// The in-engine transport reads WireSize at send time and the
			// organizer end consumes only ServiceID, so one message per
			// service is observably identical to fresh copies.
			st.hbMsg = msg
		}
	}
	msg.TaskIDs = st.hbTasks
	org, tick := st.organizer, st.hbTick
	p.mu.Unlock()
	p.tr.Send(org, msg)
	p.tm.After(p.cfg.HeartbeatEvery, tick)
}

// onTaskRelease frees one task's reservation without touching the rest
// of the service (quality-upgrade migration). Releases stamped with a
// round older than the round that placed the current reservation are
// refused: they are replays of a release that already did its work
// before the task came back to this node, and honouring them would free
// the newer placement (the Section §12 replay-safety guard, on top of
// the sequence-number dedup that covers retransmitted traffic).
func (p *Provider) onTaskRelease(_ radio.NodeID, m *proto.TaskRelease) {
	p.mu.Lock()
	st, ok := p.services[m.ServiceID]
	var id resource.ReservationID
	if ok {
		var entry reservationEntry
		entry, ok = st.reservations[m.TaskID]
		if ok && m.Round < entry.round {
			p.StaleReleases.Inc()
			ok = false
		} else if ok {
			id = entry.id
			delete(st.reservations, m.TaskID)
			delete(st.running, m.TaskID)
			st.hbStale = true
		}
	}
	p.mu.Unlock()
	if ok {
		p.Res.Release(id)
		if p.traceOn {
			p.emit("release", fmt.Sprintf("service %s task %s: %s", m.ServiceID, m.TaskID, m.Reason))
		}
	}
}

// AdoptReservation installs a firm reservation for one task as if an
// award had been accepted: the adaptation engine's direct re-placement
// path, used when a live session's task migrates to this node outside a
// protocol round. The reservation joins the provider's per-service state,
// so dissolution, release and reboot flows treat it exactly like an
// award-time reservation; the task is marked running so heartbeats flow
// to the organizer. Fails without side effects when the demand does not
// fit the node's free capacity.
func (p *Provider) AdoptReservation(org radio.NodeID, svc, tid string, demand resource.Vector) error {
	id := resource.ReservationID(svc + "/" + tid)
	if err := p.Res.Reserve(id, demand); err != nil {
		return err
	}
	p.mu.Lock()
	st := p.serviceStateLocked(svc)
	st.organizer = org
	// Adoption happens outside a protocol round; round 0 means any
	// round-stamped release may free it.
	st.reservations[tid] = reservationEntry{id: id}
	st.running[tid], st.hbStale = true, true
	tick := p.armHeartbeatLocked(svc, st)
	p.mu.Unlock()
	if tick != nil {
		p.tm.After(p.cfg.HeartbeatEvery, tick)
	}
	if p.traceOn {
		p.emit("adopt", fmt.Sprintf("service %s task %s: adopted at demand %v", svc, tid, demand))
	}
	return nil
}

// ResizeReservation swaps one task's firm reservation for the same task
// at a new demand — a mid-session degrade (smaller demand) or upgrade
// (larger demand). The swap is exact (resource.Set.Resize): on an upgrade
// that no longer fits the old reservation stays as it was, so the ledger
// never drifts whatever the outcome.
func (p *Provider) ResizeReservation(svc, tid string, demand resource.Vector) error {
	p.mu.Lock()
	st, ok := p.services[svc]
	var id resource.ReservationID
	if ok {
		var entry reservationEntry
		entry, ok = st.reservations[tid]
		id = entry.id
	}
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: node %d holds no reservation for %s/%s", p.ID, svc, tid)
	}
	return p.Res.Resize(id, demand)
}

// DropTask releases one task's reservation and state directly, without a
// TaskRelease message: the adaptation engine cleans a failed node's
// ledger this way, since no protocol message can reach a node that is
// off the air. A missing reservation is a no-op.
func (p *Provider) DropTask(svc, tid string) {
	p.mu.Lock()
	st, ok := p.services[svc]
	var id resource.ReservationID
	if ok {
		var entry reservationEntry
		entry, ok = st.reservations[tid]
		if ok {
			id = entry.id
			delete(st.reservations, tid)
			delete(st.running, tid)
			st.hbStale = true
		}
	}
	p.mu.Unlock()
	if ok {
		p.Res.Release(id)
	}
}

// onDissolve releases every reservation held for the service.
func (p *Provider) onDissolve(_ radio.NodeID, m *proto.Dissolve) {
	p.ReleaseService(m.ServiceID)
	if p.traceOn {
		p.emit("dissolve", fmt.Sprintf("service %s: %s", m.ServiceID, m.Reason))
	}
}

// ReleaseService frees all firm reservations and state for a service
// (dissolution, or local cleanup in tests).
func (p *Provider) ReleaseService(svc string) {
	p.mu.Lock()
	st, ok := p.services[svc]
	if ok {
		st.released = true
		delete(p.services, svc)
	}
	for key := range p.offers {
		if key.svc == svc {
			delete(p.offers, key)
		}
	}
	var holdIDs []resource.ReservationID
	for key, id := range p.holds {
		if key.svc == svc {
			holdIDs = append(holdIDs, id)
			delete(p.holds, key)
		}
	}
	p.mu.Unlock()
	for _, id := range holdIDs {
		p.Res.Release(id)
	}
	if ok {
		for _, entry := range st.reservations {
			p.Res.Release(entry.id)
		}
	}
}

// ServiceIDs lists the services for which this provider currently holds
// at least one firm reservation, sorted for deterministic iteration.
// The session reconciliation sweep walks this to find orphans: services
// a frozen-then-recovered node still accounts for after the coalition
// moved on without it.
func (p *Provider) ServiceIDs() []string {
	p.mu.Lock()
	out := make([]string, 0, len(p.services))
	for svc, st := range p.services {
		if len(st.reservations) > 0 {
			out = append(out, svc)
		}
	}
	p.mu.Unlock()
	sort.Strings(out)
	return out
}

// ReservedTasks lists the tasks of one service this provider holds firm
// reservations for, sorted; the reconciliation sweep compares them
// against the organizer's current assignments.
func (p *Provider) ReservedTasks(svc string) []string {
	p.mu.Lock()
	var out []string
	if st, ok := p.services[svc]; ok {
		out = make([]string, 0, len(st.reservations))
		for tid := range st.reservations {
			out = append(out, tid)
		}
	}
	p.mu.Unlock()
	sort.Strings(out)
	return out
}

// Reset drops the provider's entire soft state: every firm reservation,
// tentative hold, and remembered offer across all services. It models a
// reboot — a node that left the neighbourhood (churn) and came back has
// lost its coalition state, so its Resource Managers must not keep
// stale ledger entries for services whose dissolution it missed while
// off the air. Counters are kept: they describe the node's history, not
// its live state.
func (p *Provider) Reset() {
	p.mu.Lock()
	svcs := make(map[string]bool, len(p.services))
	for s := range p.services {
		svcs[s] = true
	}
	for key := range p.offers {
		svcs[key.svc] = true
	}
	for key := range p.holds {
		svcs[key.svc] = true
	}
	p.mu.Unlock()
	for s := range svcs {
		p.ReleaseService(s)
	}
}

// RunningTasks returns the service's tasks currently marked running,
// for assertions in tests and experiments.
func (p *Provider) RunningTasks(svc string) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.services[svc]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(st.running))
	for tid := range st.running {
		out = append(out, tid)
	}
	return out
}

func (p *Provider) serviceStateLocked(svc string) *serviceState {
	st, ok := p.services[svc]
	if !ok {
		st = &serviceState{
			reservations: make(map[string]reservationEntry),
			running:      make(map[string]bool),
		}
		p.services[svc] = st
	}
	return st
}
