package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/proto"
	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/task"
	"repro/internal/trace"
)

// MaxCommCost is the communication-cost ceiling above which a node is
// treated as effectively unreachable: proposal admission discards such
// offers, and the adaptation engine refuses to migrate tasks there, so
// negotiation and repair always agree on reachability.
const MaxCommCost = 1e17

// OrganizerConfig tunes the Negotiation Organizer.
type OrganizerConfig struct {
	// ProposalWait is how long (seconds) the organizer collects
	// proposals after broadcasting a CFP.
	ProposalWait float64
	// AckWait is how long the organizer waits for award acknowledgements
	// before treating silent awards as declined.
	AckWait float64
	// MaxRounds bounds renegotiation attempts (>=1). A round re-issues
	// the CFP for tasks that remain unassigned or were declined.
	MaxRounds int
	// Policy selects winners (the paper's three criteria).
	Policy SelectionPolicy
	// Monitor enables operation-phase heartbeat supervision.
	Monitor bool
	// HeartbeatTimeout declares a member failed when no heartbeat
	// arrives within this window (seconds).
	HeartbeatTimeout float64
	// Reconfigure re-runs negotiation for tasks orphaned by a member
	// failure (the paper's operation-phase "coalition reconfiguration
	// due to partial failures").
	Reconfigure bool
	// ImproveEps is the minimum distance improvement that justifies
	// migrating an already-served task during a TryImprove round
	// (Section 4's run-time adaptation). Zero selects 0.05.
	ImproveEps float64
	// Trace receives protocol events (nil = no tracing).
	Trace trace.Tracer
}

// DefaultOrganizerConfig is the configuration used by the experiments.
var DefaultOrganizerConfig = OrganizerConfig{
	ProposalWait:     0.25,
	AckWait:          0.25,
	MaxRounds:        6,
	Policy:           DefaultPolicy,
	Monitor:          true,
	HeartbeatTimeout: 2.0,
	Reconfigure:      true,
}

// CoalitionState is the life-cycle phase of Section 4.
type CoalitionState int

const (
	// Forming covers partner selection (negotiation in progress).
	Forming CoalitionState = iota
	// Operating covers control and monitoring of partners' execution.
	Operating
	// Dissolved is the terminated coalition.
	Dissolved
)

// String names the state.
func (s CoalitionState) String() string {
	switch s {
	case Forming:
		return "forming"
	case Operating:
		return "operating"
	default:
		return "dissolved"
	}
}

// Result reports a formation (or reformation) outcome.
type Result struct {
	ServiceID string
	// Assigned maps task IDs to their winning node and level.
	Assigned map[string]Assignment3
	// Unserved lists tasks no node could serve acceptably.
	Unserved []string
	// Rounds is the number of negotiation rounds used.
	Rounds int
	// FormationTime is the elapsed time from Start to completion.
	FormationTime float64
	// ProposalsReceived counts proposal messages across rounds.
	ProposalsReceived int
}

// Complete reports whether every task was assigned.
func (r *Result) Complete() bool { return len(r.Unserved) == 0 }

// Members returns the distinct winning nodes, ascending.
func (r *Result) Members() []radio.NodeID {
	seen := make(map[radio.NodeID]bool)
	var out []radio.NodeID
	for _, a := range r.Assigned {
		if !seen[a.Node] {
			seen[a.Node] = true
			out = append(out, a.Node)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MeanDistance averages the evaluation value over assigned tasks.
func (r *Result) MeanDistance() float64 {
	if len(r.Assigned) == 0 {
		return 0
	}
	var t float64
	for _, a := range r.Assigned {
		t += a.Distance
	}
	return t / float64(len(r.Assigned))
}

// Organizer is the paper's Negotiation Organizer: the QoS Provider of the
// node where the user requested the service "starts and guides all the
// negotiation process" (Section 4.2).
type Organizer struct {
	tr  proto.Transport
	tm  proto.Timers
	cfg OrganizerConfig
	svc *task.Service

	mu    sync.Mutex
	state CoalitionState
	round int
	// tasks is the per-task negotiation state, indexed in service
	// declaration order. One slice replaces what used to be five
	// per-organizer maps (pending, assigned, awarded, acked, evals):
	// open-system runs create an organizer per arriving session, so the
	// per-organizer container count is a first-order allocation cost.
	tasks     []orgTask
	collect   bool
	cands     map[string][]Candidate
	started   float64
	proposals int
	onFormed  func(*Result)
	lastHB    []heard // one stamp per member heard from
	monitorOn bool

	improving bool

	// orderBuf is the reused pending-order scratch; monitorFn the
	// persistent supervision closure rescheduled every period.
	orderBuf  []string
	monitorFn func()
	traceOn   bool

	// Reconfigurations counts failure-driven renegotiations.
	Reconfigurations int
	// Failures counts member failures detected by the monitor.
	Failures int
	// Upgrades counts tasks migrated to better levels by TryImprove.
	Upgrades int
}

// orgTask is one task's negotiation state.
type orgTask struct {
	t       *task.Task
	pending bool // needs assignment this round
	// assigned/asg is the confirmed allocation; awarded/award the award
	// awaiting acknowledgement this round; acked marks a received ack.
	assigned bool
	asg      Assignment3
	awarded  bool
	award    Assignment3
	acked    bool
	// eval caches the admission evaluator: spec and request are immutable
	// for the organizer's life, so proposal evaluation reuses the
	// compiled evaluator instead of revalidating per proposal. A task
	// whose request fails validation caches nil and keeps being skipped,
	// exactly as when it was rebuilt (and re-failed) per proposal.
	eval     *qos.Evaluator
	evalInit bool
}

// heard is a member's last liveness stamp.
type heard struct {
	node radio.NodeID
	at   float64
}

// heardFrom returns the index of n's stamp in lastHB, or -1. Like
// taskAt it scans: a coalition has a handful of members.
func (o *Organizer) heardFrom(n radio.NodeID) int {
	for i := range o.lastHB {
		if o.lastHB[i].node == n {
			return i
		}
	}
	return -1
}

// stamp records that n was heard from at time at.
func (o *Organizer) stamp(n radio.NodeID, at float64) {
	if i := o.heardFrom(n); i >= 0 {
		o.lastHB[i].at = at
		return
	}
	if o.lastHB == nil {
		o.lastHB = make([]heard, 0, len(o.tasks)) // members rarely outnumber tasks
	}
	o.lastHB = append(o.lastHB, heard{n, at})
}

// taskAt returns the state record for a task ID, or nil for IDs outside
// the service (stale or foreign protocol traffic). Services are small —
// a linear scan beats a per-organizer map.
func (o *Organizer) taskAt(tid string) *orgTask {
	for i := range o.tasks {
		if o.tasks[i].t.ID == tid {
			return &o.tasks[i]
		}
	}
	return nil
}

// NewOrganizer builds an organizer for one service. onFormed fires every
// time a (re)formation attempt finishes — once initially, and once per
// reconfiguration when monitoring is enabled.
func NewOrganizer(svc *task.Service, tr proto.Transport, tm proto.Timers, cfg OrganizerConfig, onFormed func(*Result)) (*Organizer, error) {
	if err := svc.Validate(); err != nil {
		return nil, err
	}
	if cfg.ProposalWait <= 0 {
		cfg.ProposalWait = DefaultOrganizerConfig.ProposalWait
	}
	if cfg.AckWait <= 0 {
		cfg.AckWait = DefaultOrganizerConfig.AckWait
	}
	if cfg.MaxRounds < 1 {
		cfg.MaxRounds = 1
	}
	if cfg.Trace == nil {
		cfg.Trace = trace.Nop{}
	}
	_, nop := cfg.Trace.(trace.Nop)
	o := &Organizer{
		tr: tr, tm: tm, cfg: cfg, svc: svc, traceOn: !nop,
		tasks:    make([]orgTask, len(svc.Tasks)),
		onFormed: onFormed,
	}
	for i, t := range svc.Tasks {
		o.tasks[i].t = t
	}
	return o, nil
}

// State returns the coalition's life-cycle phase.
func (o *Organizer) State() CoalitionState {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.state
}

// Quiescent reports whether the coalition is operating with no
// negotiation round in flight: no proposal collection and no
// improvement renegotiation. The reservation-reconciliation sweep only
// reads a live session's assignments in this state — mid-round, a
// provider may legitimately hold a reservation the organizer has not
// published yet (award sent, ack pending), which a sweep must not
// mistake for an orphan.
func (o *Organizer) Quiescent() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.state == Operating && !o.collect && !o.improving
}

// Service returns the negotiated service.
func (o *Organizer) Service() *task.Service { return o.svc }

// Start begins the formation phase: it broadcasts the service description
// and user preferences and collects proposals.
func (o *Organizer) Start() {
	o.mu.Lock()
	o.started = o.tm.Now()
	for i := range o.tasks {
		o.tasks[i].pending = true
	}
	o.mu.Unlock()
	o.startRound()
}

func (o *Organizer) startRound() {
	o.mu.Lock()
	if o.state == Dissolved {
		o.mu.Unlock()
		return
	}
	round := o.round
	cfp := &proto.CFP{
		ServiceID: o.svc.ID,
		Round:     round,
		SpecName:  o.svc.Spec.Name,
		Deadline:  o.tm.Now() + o.cfg.ProposalWait,
	}
	order := o.pendingOrderLocked()
	for _, tid := range order {
		t := o.svc.Task(tid)
		cfp.Tasks = append(cfp.Tasks, proto.TaskDescr{
			TaskID:    t.ID,
			Request:   t.Request,
			DemandRef: t.Ref(o.svc.ID),
			InBytes:   t.InBytes,
			OutBytes:  t.OutBytes,
		})
	}
	o.collect = true
	o.resetRoundLocked()
	o.mu.Unlock()

	if o.traceOn {
		o.emit("cfp", fmt.Sprintf("service %s round %d: %d task(s)", o.svc.ID, round, len(cfp.Tasks)))
	}
	o.tr.Broadcast(cfp)
	o.tr.Send(o.tr.Self(), cfp) // the organizer's own node may join the coalition
	o.tm.After(o.cfg.ProposalWait, func() { o.closeRound(round) })
}

// emit publishes a trace event stamped with this organizer's clock.
func (o *Organizer) emit(kind, detail string) {
	o.cfg.Trace.Emit(trace.Event{
		T: o.tm.Now(), Node: int(o.tr.Self()), Role: "organizer", Kind: kind, Detail: detail,
	})
}

// pendingOrderLocked returns pending tasks in service declaration order.
// The returned slice aliases a reused scratch buffer valid until the next
// call; callers consume it before releasing o.mu-protected round state.
func (o *Organizer) pendingOrderLocked() []string {
	o.orderBuf = o.orderBuf[:0]
	for i := range o.tasks {
		if o.tasks[i].pending {
			o.orderBuf = append(o.orderBuf, o.tasks[i].t.ID)
		}
	}
	return o.orderBuf
}

// pendingCountLocked counts tasks still needing assignment.
func (o *Organizer) pendingCountLocked() int {
	n := 0
	for i := range o.tasks {
		if o.tasks[i].pending {
			n++
		}
	}
	return n
}

// resetRoundLocked clears the per-round negotiation state, reusing the
// candidate map storage (and the per-task candidate slices' backing
// arrays) across rounds instead of reallocating them.
func (o *Organizer) resetRoundLocked() {
	if o.cands == nil {
		o.cands = make(map[string][]Candidate)
	} else {
		for k, v := range o.cands {
			o.cands[k] = v[:0]
		}
	}
	for i := range o.tasks {
		o.tasks[i].awarded = false
		o.tasks[i].acked = false
	}
}

// evaluatorFor returns the cached admission evaluator for a task,
// building it on first use. Returns nil when the task's request does not
// validate against the spec (such proposals are discarded, as before).
func (o *Organizer) evaluatorFor(ot *orgTask) *qos.Evaluator {
	if !ot.evalInit {
		ot.eval, _ = qos.NewEvaluator(o.svc.Spec, &ot.t.Request)
		ot.evalInit = true
	}
	return ot.eval
}

// OnMsg dispatches organizer-role messages.
func (o *Organizer) OnMsg(from radio.NodeID, m proto.Msg) {
	switch msg := m.(type) {
	case *proto.Proposal:
		o.onProposal(from, msg)
	case *proto.AwardAck:
		o.onAwardAck(from, msg)
	case *proto.Heartbeat:
		o.onHeartbeat(from, msg)
	}
}

// onProposal evaluates each task proposal (step 3 of the negotiation
// algorithm): admissibility, the Section 6 distance, and communication
// cost; inadmissible or unreachable offers are discarded.
func (o *Organizer) onProposal(from radio.NodeID, m *proto.Proposal) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if m.ServiceID != o.svc.ID || m.Round != o.round || !o.collect {
		return
	}
	o.proposals++
	for _, tp := range m.Tasks {
		ot := o.taskAt(tp.TaskID)
		if ot == nil {
			continue
		}
		if !ot.pending {
			if !o.improving || !ot.assigned {
				continue
			}
		}
		eval := o.evaluatorFor(ot)
		if eval == nil {
			continue
		}
		dist, err := eval.Distance(tp.Level)
		if err != nil {
			continue // not admissible: the paper evaluates admissible proposals only
		}
		cost := o.tr.CommCost(from, ot.t.DataBytes())
		if cost != cost || cost > MaxCommCost { // NaN or effectively unreachable
			continue
		}
		o.cands[tp.TaskID] = append(o.cands[tp.TaskID], Candidate{
			Node: from, TaskID: tp.TaskID, Level: tp.Level,
			Reward: tp.Reward, Distance: dist, CommCost: cost,
			Copies: tp.Copies,
		})
	}
}

// closeRound selects winners and issues awards.
func (o *Organizer) closeRound(round int) {
	o.mu.Lock()
	if o.state == Dissolved || round != o.round || !o.collect {
		o.mu.Unlock()
		return
	}
	o.collect = false
	order := o.pendingOrderLocked()
	sel := SelectWinners(order, o.cands, o.cfg.Policy)
	byNode := make(map[radio.NodeID][]string)
	for _, a := range sel.Assigned {
		if ot := o.taskAt(a.TaskID); ot != nil {
			ot.awarded, ot.award = true, a
		}
		byNode[a.Node] = append(byNode[a.Node], a.TaskID)
	}
	nodes := make([]radio.NodeID, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	svcID := o.svc.ID
	unserved := len(sel.Unserved)
	o.mu.Unlock()

	if o.traceOn {
		o.emit("select", fmt.Sprintf("service %s round %d: %d award(s) to %d node(s), %d without proposals",
			svcID, round, len(sel.Assigned), len(nodes), unserved))
	}
	for _, n := range nodes {
		o.tr.Send(n, &proto.Award{ServiceID: svcID, Round: round, TaskIDs: byNode[n]})
	}
	o.tm.After(o.cfg.AckWait, func() { o.finishRound(round) })
}

// onAwardAck confirms accepted tasks and ships their data. During an
// improvement round the accepted award migrates the task: the previous
// member is told to release it.
func (o *Organizer) onAwardAck(from radio.NodeID, m *proto.AwardAck) {
	o.mu.Lock()
	if m.ServiceID != o.svc.ID || m.Round != o.round {
		o.mu.Unlock()
		return
	}
	var data []*proto.TaskData
	type release struct {
		node radio.NodeID
		tid  string
	}
	var releases []release
	for _, tid := range m.TaskIDs {
		ot := o.taskAt(tid)
		if ot == nil || !ot.awarded || ot.award.Node != from || ot.acked {
			continue
		}
		ot.acked = true
		if ot.assigned && ot.asg.Node != ot.award.Node {
			releases = append(releases, release{node: ot.asg.Node, tid: tid})
			if o.improving {
				o.Upgrades++
			}
		}
		ot.assigned, ot.asg = true, ot.award
		ot.pending = false
		data = append(data, &proto.TaskData{ServiceID: o.svc.ID, TaskID: tid, Bytes: ot.t.InBytes})
	}
	o.stamp(from, o.tm.Now())
	svcID := o.svc.ID
	o.mu.Unlock()
	for _, d := range data {
		o.tr.Send(from, d)
	}
	for _, r := range releases {
		if o.traceOn {
			o.emit("upgrade", fmt.Sprintf("service %s: task %s migrated node %d -> %d", svcID, r.tid, r.node, from))
		}
		o.tr.Send(r.node, &proto.TaskRelease{ServiceID: svcID, TaskID: r.tid, Round: m.Round, Reason: "migrated to a closer-to-preference proposal"})
	}
}

// TryImprove starts a quality-upgrade renegotiation for the operating
// coalition: a fresh CFP over all currently served tasks; a task
// migrates only when some node now offers a level at least ImproveEps
// closer to the user's preferences than the current one. This realizes
// the paper's Section 4 run-time adaptation ("applications ... can
// dynamically change the executing quality level"). It is a no-op
// unless the coalition is operating and idle.
func (o *Organizer) TryImprove() {
	o.mu.Lock()
	if o.state != Operating || o.improving || o.collect {
		o.mu.Unlock()
		return
	}
	o.improving = true
	o.round++
	round := o.round
	cfp := &proto.CFP{
		ServiceID: o.svc.ID,
		Round:     round,
		SpecName:  o.svc.Spec.Name,
		Deadline:  o.tm.Now() + o.cfg.ProposalWait,
	}
	for i := range o.tasks {
		if !o.tasks[i].assigned {
			continue
		}
		t := o.tasks[i].t
		cfp.Tasks = append(cfp.Tasks, proto.TaskDescr{
			TaskID:    t.ID,
			Request:   t.Request,
			DemandRef: t.Ref(o.svc.ID),
			InBytes:   t.InBytes,
			OutBytes:  t.OutBytes,
		})
	}
	o.collect = true
	o.resetRoundLocked()
	o.mu.Unlock()
	if len(cfp.Tasks) == 0 {
		o.mu.Lock()
		o.improving = false
		o.collect = false
		o.mu.Unlock()
		return
	}
	if o.traceOn {
		o.emit("upgrade-cfp", fmt.Sprintf("service %s round %d: probing %d served task(s) for better levels", o.svc.ID, round, len(cfp.Tasks)))
	}
	o.tr.Broadcast(cfp)
	o.tr.Send(o.tr.Self(), cfp)
	o.tm.After(o.cfg.ProposalWait, func() { o.closeImprove(round) })
}

// closeImprove selects migration targets: the best fresh proposal per
// served task, accepted only when it beats the current distance by
// ImproveEps, never from the node already serving the task.
func (o *Organizer) closeImprove(round int) {
	o.mu.Lock()
	if o.state == Dissolved || round != o.round || !o.collect {
		o.mu.Unlock()
		return
	}
	o.collect = false
	eps := o.cfg.ImproveEps
	if eps <= 0 {
		eps = 0.05
	}
	used := make(budget)
	byNode := make(map[radio.NodeID][]string)
	for i := range o.tasks {
		ot := &o.tasks[i]
		if !ot.assigned {
			continue
		}
		cur := ot.asg
		tid := ot.t.ID
		ordered := append([]Candidate(nil), o.cands[tid]...)
		sort.Slice(ordered, func(i, j int) bool {
			return candidateLess(ordered[i], ordered[j], o.cfg.Policy)
		})
		for _, c := range ordered {
			if c.Node == cur.Node || c.Distance > cur.Distance-eps || !used.fits(c) {
				continue
			}
			used.take(c)
			ot.awarded = true
			ot.award = Assignment3{
				TaskID: tid, Node: c.Node, Level: c.Level,
				Distance: c.Distance, CommCost: c.CommCost,
			}
			byNode[c.Node] = append(byNode[c.Node], tid)
			break
		}
	}
	nodes := make([]radio.NodeID, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	svcID := o.svc.ID
	o.mu.Unlock()
	for _, n := range nodes {
		o.tr.Send(n, &proto.Award{ServiceID: svcID, Round: round, TaskIDs: byNode[n]})
	}
	o.tm.After(o.cfg.AckWait, func() { o.finishImprove(round) })
}

// finishImprove closes the improvement window; tasks whose migration
// award went unacknowledged simply stay where they are.
func (o *Organizer) finishImprove(round int) {
	o.mu.Lock()
	if round == o.round {
		o.improving = false
	}
	o.mu.Unlock()
}

// finishRound decides whether to renegotiate unassigned tasks or to
// finish the formation attempt.
func (o *Organizer) finishRound(round int) {
	o.mu.Lock()
	if o.state == Dissolved || round != o.round {
		o.mu.Unlock()
		return
	}
	pendingLeft := o.pendingCountLocked()
	if pendingLeft > 0 && round+1 < o.cfg.MaxRounds {
		o.round++
		o.mu.Unlock()
		o.startRound()
		return
	}
	res := &Result{
		ServiceID:         o.svc.ID,
		Assigned:          make(map[string]Assignment3, len(o.tasks)),
		Rounds:            round + 1,
		FormationTime:     o.tm.Now() - o.started,
		ProposalsReceived: o.proposals,
	}
	for i := range o.tasks {
		if o.tasks[i].assigned {
			res.Assigned[o.tasks[i].t.ID] = o.tasks[i].asg
		} else {
			res.Unserved = append(res.Unserved, o.tasks[i].t.ID)
		}
	}
	o.state = Operating
	startMonitor := o.cfg.Monitor && !o.monitorOn && len(res.Assigned) > 0
	if startMonitor {
		o.monitorOn = true
		now := o.tm.Now()
		for i := range o.tasks {
			if !o.tasks[i].assigned {
				continue
			}
			if n := o.tasks[i].asg.Node; o.heardFrom(n) < 0 {
				o.stamp(n, now)
			}
		}
	}
	cb := o.onFormed
	o.mu.Unlock()
	if o.traceOn {
		o.emit("formed", fmt.Sprintf("service %s: %d/%d tasks on %d member(s) after %d round(s)",
			res.ServiceID, len(res.Assigned), len(o.svc.Tasks), len(res.Members()), res.Rounds))
	}
	if cb != nil {
		cb(res)
	}
	if startMonitor {
		o.monitorTick()
	}
}

// onHeartbeat refreshes a member's liveness timestamp.
func (o *Organizer) onHeartbeat(from radio.NodeID, m *proto.Heartbeat) {
	if m.ServiceID != o.svc.ID {
		return
	}
	o.mu.Lock()
	o.stamp(from, o.tm.Now())
	o.mu.Unlock()
}

// monitorTick supervises the operation phase: members whose heartbeats
// stopped are declared failed, their tasks orphaned, and — when
// Reconfigure is set — renegotiated among the remaining nodes.
func (o *Organizer) monitorTick() {
	period := o.cfg.HeartbeatTimeout / 2
	if period <= 0 {
		period = 0.5
	}
	o.mu.Lock()
	if o.monitorFn == nil {
		// One closure per organizer for its whole life, not one per tick.
		o.monitorFn = o.monitorBody
	}
	fn := o.monitorFn
	o.mu.Unlock()
	o.tm.After(period, fn)
}

func (o *Organizer) monitorBody() {
	o.mu.Lock()
	if o.state == Dissolved {
		o.mu.Unlock()
		return
	}
	now := o.tm.Now()
	var failed map[radio.NodeID]bool // allocated only when a member fails
	for i := range o.tasks {
		ot := &o.tasks[i]
		if !ot.assigned {
			continue
		}
		if ot.asg.Node == o.tr.Self() {
			continue // local execution needs no radio heartbeat
		}
		h := o.heardFrom(ot.asg.Node)
		if h < 0 || now-o.lastHB[h].at > o.cfg.HeartbeatTimeout {
			if failed == nil {
				failed = make(map[radio.NodeID]bool)
			}
			failed[ot.asg.Node] = true
			ot.assigned = false
			ot.pending = true
		}
	}
	renegotiate := false
	if len(failed) > 0 {
		o.Failures += len(failed)
		o.lastHB = slices.DeleteFunc(o.lastHB, func(h heard) bool { return failed[h.node] })
		if o.cfg.Reconfigure {
			o.Reconfigurations++
			o.round++
			renegotiate = true
		}
	}
	o.mu.Unlock()
	if len(failed) > 0 {
		nodes := make([]radio.NodeID, 0, len(failed))
		for n := range failed {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		if o.traceOn {
			o.emit("failure", fmt.Sprintf("service %s: members %v silent beyond %gs", o.svc.ID, nodes, o.cfg.HeartbeatTimeout))
		}
	}
	if renegotiate {
		if o.traceOn {
			o.emit("reconfigure", fmt.Sprintf("service %s: renegotiating orphaned tasks", o.svc.ID))
		}
		o.startRound()
	}
	o.monitorTick()
}

// Dissolve terminates the coalition (Section 4 "dissolution"): members
// are told to release their reservations and monitoring stops.
func (o *Organizer) Dissolve(reason string) {
	o.mu.Lock()
	if o.state == Dissolved {
		o.mu.Unlock()
		return
	}
	o.state = Dissolved
	svcID := o.svc.ID
	o.mu.Unlock()
	if o.traceOn {
		o.emit("dissolve", fmt.Sprintf("service %s: %s", svcID, reason))
	}
	m := &proto.Dissolve{ServiceID: svcID, Reason: reason}
	o.tr.Broadcast(m)
	o.tr.Send(o.tr.Self(), m)
}

// ApplyAdaptation installs an externally renegotiated allocation for one
// currently assigned task: the mid-session adaptation engine
// (internal/adapt) re-runs the compiled formulation over live sessions
// and publishes the outcome here so that monitoring, sampling and
// departure statistics all see the session's *current* QoS, not its
// admission-time level. It is a no-op (returning false) unless the
// coalition is operating and the task is assigned — an adaptation racing
// a dissolve or a renegotiation round must lose.
func (o *Organizer) ApplyAdaptation(taskID string, a Assignment3) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.state != Operating {
		return false
	}
	ot := o.taskAt(taskID)
	if ot == nil || !ot.assigned {
		return false
	}
	ot.asg = a
	// The (possibly new) serving node is live by construction; refresh
	// its liveness stamp so an enabled monitor does not instantly declare
	// a freshly migrated member silent.
	o.stamp(a.Node, o.tm.Now())
	return true
}

// Assignment returns the current allocation of a task, if any.
func (o *Organizer) Assignment(taskID string) (Assignment3, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ot := o.taskAt(taskID)
	if ot == nil || !ot.assigned {
		return Assignment3{}, false
	}
	return ot.asg, true
}

// AssignedDistanceSum returns the number of currently assigned tasks and
// the sum of their distances, accumulated in task declaration order so
// the floating-point result is deterministic. It is the allocation-free
// accessor behind per-tick utilization sampling; Snapshot stays for
// callers that need the full allocation.
func (o *Organizer) AssignedDistanceSum() (int, float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	var sum float64
	for i := range o.tasks {
		if o.tasks[i].assigned {
			n++
			sum += o.tasks[i].asg.Distance
		}
	}
	return n, sum
}

// Snapshot returns a copy of the current assignments.
func (o *Organizer) Snapshot() map[string]Assignment3 {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]Assignment3, len(o.tasks))
	for i := range o.tasks {
		if o.tasks[i].assigned {
			out[o.tasks[i].t.ID] = o.tasks[i].asg
		}
	}
	return out
}

// describe is kept for error paths needing a service summary.
func (o *Organizer) describe() string {
	return fmt.Sprintf("service %q (%d tasks)", o.svc.ID, len(o.svc.Tasks))
}
