package adapt

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/task"
)

// ChurnPolicy selects what happens to a live session that loses a
// coalition member to node churn.
type ChurnPolicy int

const (
	// KillAffected tears the whole session down — the open system of
	// PR 3/PR 4 made explicit: a session either keeps its admission-time
	// coalition or dies. The baseline the adaptive policies beat in E22.
	KillAffected ChurnPolicy = iota
	// MigrateExact re-places orphaned tasks on another node at their
	// current QoS level; the session is killed only when no reachable
	// node can host the unchanged demand.
	MigrateExact
	// DegradeToFit re-places orphaned tasks via the Section 5
	// degradation walk, preferring the smallest QoS degradation that
	// restores feasibility on any reachable node (ranked by resulting
	// distance, then communication cost, then node ID); the session is
	// killed only when no node admits any acceptable level.
	DegradeToFit
)

// String names the policy (table rows of E22/E24).
func (p ChurnPolicy) String() string {
	switch p {
	case MigrateExact:
		return "migrate"
	case DegradeToFit:
		return "degrade"
	default:
		return "kill"
	}
}

// Config parameterizes the adaptation engine.
type Config struct {
	// OnChurn picks the churn repair policy (default KillAffected).
	OnChurn ChurnPolicy
	// DegradeOnPressure sheds QoS from sessions holding reservations on
	// nodes whose utilisation exceeds UtilHigh, one dep-consistent
	// ladder step at a time, freeing capacity for new arrivals.
	DegradeOnPressure bool
	// UtilHigh is the pressure threshold on a node's maximum per-kind
	// utilisation (default 0.9).
	UtilHigh float64
	// UpgradeOnSlack reclaims QoS at epoch scans: previously degraded
	// tasks step back toward their admission-time level while the
	// serving node's post-upgrade utilisation stays below UtilLow.
	UpgradeOnSlack bool
	// UtilLow is the hysteresis threshold upgrades must keep the node
	// under (default 0.55; must stay below UtilHigh or reclamation and
	// shedding would chase each other).
	UtilLow float64
	// Epoch is the reclamation scan period in simulated seconds
	// (default 10).
	Epoch float64
	// PressureEvery is the utilisation check period in simulated
	// seconds (default 1).
	PressureEvery float64
	// GridSteps must match the providers' ladder discretization so
	// admission-time levels re-anchor exactly onto the compiled ladder
	// (default qos.DefaultGridSteps, the provider default).
	GridSteps int
}

// withDefaults normalizes zero values.
func (c Config) withDefaults() Config {
	if c.UtilHigh <= 0 {
		c.UtilHigh = 0.9
	}
	if c.UtilLow <= 0 {
		c.UtilLow = 0.55
	}
	if c.Epoch <= 0 {
		c.Epoch = 10
	}
	if c.PressureEvery <= 0 {
		c.PressureEvery = 1
	}
	if c.GridSteps <= 0 {
		c.GridSteps = qos.DefaultGridSteps
	}
	return c
}

// Validate rejects configurations whose triggers would fight each other.
func (c Config) Validate() error {
	d := c.withDefaults()
	if d.UpgradeOnSlack && d.DegradeOnPressure && d.UtilLow >= d.UtilHigh {
		return fmt.Errorf("adapt: UtilLow %g must stay below UtilHigh %g (hysteresis)", d.UtilLow, d.UtilHigh)
	}
	return nil
}

// Stats aggregates the engine's counters over one run. Counter events
// before the engine's countFrom stamp (the session engine passes its
// warmup) are applied but not counted, mirroring the steady-state
// convention of session.Stats.
type Stats struct {
	// Triggers counts trigger activations: one per (churn event,
	// affected session) pair, and one per pressure tick per node found
	// above UtilHigh — a node pinned over the threshold counts every
	// tick it stays there.
	Triggers int
	// Epochs counts reclamation scans run.
	Epochs int
	// Degrades and Upgrades count applied single-level QoS changes;
	// Repairs counts churn-orphaned tasks successfully re-placed on
	// another node (the orphan's old node is down by definition, so
	// every repair is also a migration).
	Degrades, Upgrades, Repairs int
	// Kills counts admitted (post-warmup) sessions the engine had to
	// kill: churn policy KillAffected, or no node could host an
	// orphaned task under the configured policy.
	Kills int
	// AdaptedSessions counts departed sessions that experienced at
	// least one adaptation event.
	AdaptedSessions int
	// DriftSum accumulates, over departed (non-killed) sessions, the
	// session's mean task distance at departure minus at admission;
	// DriftN is the number of contributing sessions. Positive drift
	// means the engine traded QoS for survival or admission headroom.
	DriftSum float64
	// DriftN counts the sessions contributing to DriftSum.
	DriftN int
}

// MeanDrift is DriftSum/DriftN (0 when no session departed).
func (s *Stats) MeanDrift() float64 {
	if s.DriftN == 0 {
		return 0
	}
	return s.DriftSum / float64(s.DriftN)
}

// Merge folds another run's (or shard's) counters into s; all fields
// sum, so the fold is commutative and the fabric's ascending-shard merge
// order keeps city tables deterministic.
func (s *Stats) Merge(o *Stats) {
	s.Triggers += o.Triggers
	s.Epochs += o.Epochs
	s.Degrades += o.Degrades
	s.Upgrades += o.Upgrades
	s.Repairs += o.Repairs
	s.Kills += o.Kills
	s.AdaptedSessions += o.AdaptedSessions
	s.DriftSum += o.DriftSum
	s.DriftN += o.DriftN
}

// Event is one entry of a session's adaptation history.
type Event struct {
	// T is the simulated time of the event.
	T float64
	// Kind is "degrade", "upgrade", "revert", "repair" or "kill".
	Kind string
	// Task is the affected task ID ("" for kill).
	Task string
	// Node is the serving node after the event.
	Node radio.NodeID
	// Distance is the task's QoS distance after the event.
	Distance float64
}

// taskState tracks one live task as a position on its compiled
// problem's degradation path.
type taskState struct {
	t    *task.Task
	cp   *core.CompiledProblem
	node radio.NodeID
	// comm is the task's current communication cost: admission-time
	// from the winning proposal, recomputed on migration, carried
	// forward unchanged by same-node degrades/upgrades.
	comm float64
	// pos indexes the task's current level in cp.Path; admitDist is the
	// task's distance at admission.
	pos       int
	admitDist float64
	// hist stacks the path positions this task degraded away from, most
	// recent last; upgrades pop it, making degrade→upgrade round-trips
	// exact.
	hist []int
}

// stop is the task's current stop on the degradation path.
func (ts *taskState) stop() *core.Stop { return &ts.cp.Path[ts.pos] }

// state is one registered live session.
type state struct {
	svcID   string
	orgNode radio.NodeID
	org     *core.Organizer
	tasks   []*taskState
	counted bool
	killed  bool
	events  []Event
}

// compiledKey caches compiled problems per (spec, demand reference),
// mirroring the provider-side cache.
type compiledKey struct {
	spec string
	ref  string
}

// compiledEntry remembers the request the problem was compiled for:
// tasks sharing a demand reference must share a demand model but may
// carry different requests (task.Task's contract), so a hit requires
// request equality and a mismatch recompiles — the same guard the
// provider-side cache applies.
type compiledEntry struct {
	req qos.Request
	cp  *core.CompiledProblem
}

// Engine renegotiates live sessions' QoS in place. It is driven
// entirely by its owner (the session lifecycle engine) on the cluster's
// single-threaded virtual clock and draws no randomness of its own.
type Engine struct {
	cl        *core.Cluster
	cfg       Config
	countFrom float64

	compiled map[compiledKey]*compiledEntry
	sessions map[string]*state
	order    []string // svcIDs in admission order
	// avoid marks nodes the engine must not place on or renegotiate
	// with: frozen nodes (internal/faults) whose radio is blackholed but
	// whose process — and reservation ledger — is still alive, so they
	// are neither Down nor usable (see SetAvoid, NodeUnreachable).
	avoid map[radio.NodeID]bool
	// yields journals incumbent degrades applied for pending Yield
	// admissions, keyed by the beneficiary service ID (see yield.go).
	yields map[string][]yieldMark

	// Steady-state scratch and free-lists: open-system runs admit and
	// forget sessions continuously, so session records, task records and
	// the per-trigger work lists are recycled instead of reallocated.
	// Event histories are NOT recycled — History's callers may hold them
	// past Forget — so a recycled record starts with nil events and
	// ownership of the old slice stays with whoever read it.
	statePool    []*state
	taskPool     []*taskState
	orderScratch []string
	orphanBuf    []*taskState

	stats Stats
}

// New builds an engine over the cluster. Events at simulated times
// before countFrom are applied but not counted (the session engine
// passes its warmup).
func New(cl *core.Cluster, cfg Config, countFrom float64) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		cl:        cl,
		cfg:       cfg.withDefaults(),
		countFrom: countFrom,
		compiled:  make(map[compiledKey]*compiledEntry),
		sessions:  make(map[string]*state),
		avoid:     make(map[radio.NodeID]bool),
		yields:    make(map[string][]yieldMark),
	}, nil
}

// SetAvoid marks or unmarks a node as unreachable-but-alive (frozen):
// avoided nodes are skipped as re-placement candidates and exempt from
// direct reservation resizes — a call into a node the radio cannot
// reach would model messages a partition is supposed to be dropping.
func (e *Engine) SetAvoid(id radio.NodeID, avoid bool) {
	if avoid {
		e.avoid[id] = true
	} else {
		delete(e.avoid, id)
	}
}

// Config returns the engine's normalized configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns the engine's counters (also folded into session.Stats
// at the end of a run).
func (e *Engine) Stats() *Stats { return &e.stats }

// History returns a session's adaptation events in order, or nil; live
// until Forget. Tests and the qosim CLI read it.
func (e *Engine) History(svcID string) []Event {
	st, ok := e.sessions[svcID]
	if !ok {
		return nil
	}
	return st.events
}

// compileFor returns the cached compiled problem for one task of svc.
func (e *Engine) compileFor(svc *task.Service, t *task.Task) (*core.CompiledProblem, error) {
	ref := t.Ref(svc.ID)
	key := compiledKey{spec: svc.Spec.Name, ref: ref}
	if entry, ok := e.compiled[key]; ok && entry.req.Equal(&t.Request) {
		return entry.cp, nil
	}
	dm, ok := e.cl.Catalog.Demand(ref)
	if !ok {
		return nil, fmt.Errorf("adapt: demand reference %q not in catalog", ref)
	}
	entry := &compiledEntry{req: t.Request}
	cp, err := core.CompileProblem(svc.Spec, &entry.req, dm, e.cfg.GridSteps, nil)
	if err != nil {
		return nil, err
	}
	entry.cp = cp
	e.compiled[key] = entry
	return cp, nil
}

// getState pops a recycled session record (or allocates the first time).
func (e *Engine) getState() *state {
	if n := len(e.statePool); n > 0 {
		st := e.statePool[n-1]
		e.statePool = e.statePool[:n-1]
		return st
	}
	return &state{}
}

// getTaskState pops a recycled task record.
func (e *Engine) getTaskState() *taskState {
	if n := len(e.taskPool); n > 0 {
		ts := e.taskPool[n-1]
		e.taskPool = e.taskPool[:n-1]
		return ts
	}
	return &taskState{}
}

// Admit registers a freshly admitted session: its assignments are
// re-anchored from protocol Levels onto positions of the compiled
// degradation path, so every later adaptation is a move between
// precomputed stops. counted marks sessions arriving at or after the
// owner's warmup.
func (e *Engine) Admit(now float64, orgNode radio.NodeID, org *core.Organizer, counted bool) error {
	svc := org.Service()
	st := e.getState()
	st.svcID, st.orgNode, st.org, st.counted = svc.ID, orgNode, org, counted
	st.killed = false
	st.events = nil
	st.tasks = st.tasks[:0]
	for _, t := range svc.Tasks {
		a3, ok := org.Assignment(t.ID)
		if !ok {
			continue
		}
		cp, err := e.compileFor(svc, t)
		if err != nil {
			return err
		}
		pos, err := pathPos(cp, a3.Level)
		if err != nil {
			return fmt.Errorf("adapt: session %s task %s: %w (provider GridSteps mismatch?)", svc.ID, t.ID, err)
		}
		ts := e.getTaskState()
		ts.t, ts.cp, ts.node, ts.comm = t, cp, a3.Node, a3.CommCost
		ts.pos, ts.admitDist = pos, cp.Path[pos].Distance
		ts.hist = ts.hist[:0]
		st.tasks = append(st.tasks, ts)
	}
	e.sessions[svc.ID] = st
	e.order = append(e.order, svc.ID)
	return nil
}

// pathPos locates a protocol Level on the problem's degradation path. A
// provider formulating over the same ladder and penalty only ever
// proposes stops of this path, so a miss means the two were compiled
// differently.
func pathPos(cp *core.CompiledProblem, level qos.Level) (int, error) {
	a, err := cp.Ladder.AssignmentOf(level)
	if err != nil {
		return 0, err
	}
	for i := range cp.Path {
		if slices.Equal(cp.Path[i].Assignment, a) {
			return i, nil
		}
	}
	return 0, errors.New("level is not a stop of the degradation path")
}

// Forget closes a session's adaptation record (departure, kill or
// drain). Safe to call for unknown sessions; later triggers skip the
// session entirely — adaptation of a departed session is a no-op.
func (e *Engine) Forget(now float64, svcID string) {
	st, ok := e.sessions[svcID]
	if !ok {
		return
	}
	delete(e.sessions, svcID)
	for i, id := range e.order {
		if id == svcID {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
	if st.counted && !st.killed {
		if len(st.tasks) > 0 {
			var drift float64
			for _, ts := range st.tasks {
				drift += ts.stop().Distance - ts.admitDist
			}
			e.stats.DriftSum += drift / float64(len(st.tasks))
			e.stats.DriftN++
		}
		if len(st.events) > 0 {
			e.stats.AdaptedSessions++
		}
	}
	// Recycle the records. The stats above were folded from values, not
	// retained slices, so a recycled session can never perturb them; the
	// event history's ownership has already passed to any History caller
	// (Admit starts the recycled record with nil events).
	for _, ts := range st.tasks {
		ts.t = nil
		e.taskPool = append(e.taskPool, ts)
	}
	st.org = nil
	e.statePool = append(e.statePool, st)
}

// counts reports whether events at time now enter the counters.
func (e *Engine) counts(now float64) bool { return now >= e.countFrom }

// NodeDown repairs every live session that lost a serving node: the
// owner calls it right after taking a node off the air. Orphaned
// reservations on dead nodes are dropped from their ledgers first (no
// protocol message can reach a node that is off the air), then each
// orphaned task is handled per the churn policy. It returns the IDs of
// sessions the engine decided to kill, in admission order; the owner
// tears them down.
func (e *Engine) NodeDown(now float64) (killed []string) {
	return e.repair(now, func(ts *taskState) bool { return e.cl.Medium.Down(ts.node) }, true)
}

// NodeUnreachable repairs every live session with a task on a node
// that froze: still alive and holding its reservations, but radio-dark,
// so no message in either direction will land until it thaws. Unlike
// NodeDown the orphans' reservations are NOT dropped — the frozen
// process still accounts them, and only the owner's reconciliation
// sweep may reclaim them after the thaw (DESIGN.md §12). Callers
// should SetAvoid(id, true) first so re-placements skip the node. It
// returns the sessions the engine decided to kill, in admission order.
func (e *Engine) NodeUnreachable(now float64, id radio.NodeID) (killed []string) {
	return e.repair(now, func(ts *taskState) bool { return ts.node == id }, false)
}

// repair is the churn trigger's body: every live session with a task
// orphaned(ts) selects is handled per the churn policy, after dropping
// the orphans' reservations from their old nodes' ledgers when drop is
// set.
func (e *Engine) repair(now float64, orphaned func(*taskState) bool, drop bool) (killed []string) {
	counts := e.counts(now)
	e.orderScratch = append(e.orderScratch[:0], e.order...)
	for _, svcID := range e.orderScratch {
		st, ok := e.sessions[svcID]
		if !ok {
			continue
		}
		orphans := e.orphanBuf[:0]
		for _, ts := range st.tasks {
			if orphaned(ts) {
				orphans = append(orphans, ts)
			}
		}
		e.orphanBuf = orphans[:0]
		if len(orphans) == 0 {
			continue
		}
		if counts {
			e.stats.Triggers++
		}
		if drop {
			for _, ts := range orphans {
				if n := e.cl.Node(ts.node); n != nil {
					n.Provider.DropTask(svcID, ts.t.ID)
				}
			}
		}
		if e.cfg.OnChurn == KillAffected {
			killed = append(killed, e.kill(now, st, counts))
			continue
		}
		dead := false
		repaired := 0
		for _, ts := range orphans {
			if !e.replace(now, st, ts, counts) {
				dead = true
				break
			}
			repaired++
		}
		if dead {
			// Repairs applied to this session moments before its kill did
			// not save anything: back them out of the counter so Repairs
			// keeps meaning "repairs that saved a task". The adopted
			// reservations themselves are released by the kill teardown.
			if counts {
				e.stats.Repairs -= repaired
			}
			killed = append(killed, e.kill(now, st, counts))
		}
	}
	return killed
}

// kill marks the session dead and records the event; the owner performs
// the actual teardown (which calls Forget).
func (e *Engine) kill(now float64, st *state, counts bool) string {
	st.killed = true
	st.events = append(st.events, Event{T: now, Kind: "kill"})
	if counts && st.counted {
		e.stats.Kills++
	}
	return st.svcID
}

// replace re-places one churn-orphaned task per the configured policy,
// returning false when no reachable node can host it. Each candidate
// node picks its own stopping point on the degradation path: the first
// stop it can reserve among all of them (DegradeToFit), or the task's
// current stop or nothing (MigrateExact).
func (e *Engine) replace(now float64, st *state, ts *taskState, counts bool) bool {
	type placement struct {
		node radio.NodeID
		pos  int
		dist float64
		comm float64
	}
	path := ts.cp.Path
	lo, hi := 0, len(path)
	if e.cfg.OnChurn == MigrateExact {
		lo, hi = ts.pos, ts.pos+1
	}
	var best placement
	haveBest := false
	for _, id := range e.cl.Medium.IDs() {
		if e.cl.Medium.Down(id) || e.avoid[id] {
			continue
		}
		if id != st.orgNode && !e.cl.Medium.InRange(st.orgNode, id) {
			continue
		}
		res := e.cl.Node(id).Res
		cand := placement{node: id, pos: lo}
		for cand.pos < hi && !res.CanReserve(path[cand.pos].Demand) {
			cand.pos++
		}
		if cand.pos == hi {
			continue
		}
		cand.dist = path[cand.pos].Distance
		if id != st.orgNode {
			cand.comm = e.cl.Medium.TxTime(st.orgNode, id, ts.t.DataBytes())
		}
		if math.IsNaN(cand.comm) || cand.comm > core.MaxCommCost {
			continue // effectively unreachable, mirroring proposal admission
		}
		if !haveBest || cand.dist < best.dist ||
			(cand.dist == best.dist && (cand.comm < best.comm ||
				(cand.comm == best.comm && cand.node < best.node))) {
			best, haveBest = cand, true
		}
	}
	if !haveBest {
		return false
	}
	s := &path[best.pos]
	prov := e.cl.Node(best.node).Provider
	if err := prov.AdoptReservation(st.orgNode, st.svcID, ts.t.ID, s.Demand); err != nil {
		return false
	}
	st.org.ApplyAdaptation(ts.t.ID, core.Assignment3{
		TaskID: ts.t.ID, Node: best.node, Level: ts.cp.Ladder.Level(s.Assignment),
		Distance: s.Distance, CommCost: best.comm,
	})
	ts.node = best.node
	ts.comm = best.comm
	ts.pos = best.pos
	if e.cfg.OnChurn == DegradeToFit {
		// Every richer stop becomes the task's upgrade-reclamation
		// history.
		ts.hist = ts.hist[:0]
		for i := 0; i < best.pos; i++ {
			ts.hist = append(ts.hist, i)
		}
	}
	st.events = append(st.events, Event{T: now, Kind: "repair", Task: ts.t.ID, Node: best.node, Distance: s.Distance})
	if counts {
		e.stats.Repairs++
	}
	return true
}

// nodeUtil is a node's maximum per-kind utilisation (1 - avail/cap).
func (e *Engine) nodeUtil(id radio.NodeID) float64 {
	cap, avail := e.cl.Node(id).Res.Usage()
	var util float64
	for k := range cap {
		if cap[k] <= 0 {
			continue
		}
		if u := 1 - avail[k]/cap[k]; u > util {
			util = u
		}
	}
	return util
}

// Tick is the utilisation-pressure trigger: every node whose maximum
// per-kind utilisation crossed UtilHigh has its resident sessions shed
// QoS, cheapest reward loss first, until it recovers or nothing more
// can degrade. The owner calls it on a fixed cadence (PressureEvery).
func (e *Engine) Tick(now float64) {
	if !e.cfg.DegradeOnPressure {
		return
	}
	counts := e.counts(now)
	for _, id := range e.cl.Medium.IDs() {
		if e.cl.Medium.Down(id) || e.avoid[id] {
			continue
		}
		if e.nodeUtil(id) <= e.cfg.UtilHigh {
			continue
		}
		if counts {
			e.stats.Triggers++
		}
		e.shedNode(now, id, counts)
	}
}

// shedNode degrades sessions holding reservations on the node, one
// relieving step per task per pass, until utilisation drops to UtilHigh
// or a full pass applies nothing.
func (e *Engine) shedNode(now float64, id radio.NodeID, counts bool) {
	for {
		applied := false
		for _, svcID := range e.order {
			st := e.sessions[svcID]
			for _, ts := range st.tasks {
				if ts.node != id {
					continue
				}
				if e.degradeStep(now, st, ts, counts) {
					applied = true
					if e.nodeUtil(id) <= e.cfg.UtilHigh {
						return
					}
				}
			}
		}
		if !applied {
			return
		}
	}
}

// nextRelieving returns the position of the first stop after the task's
// current one that strictly lowers demand in some kind, or -1. Stops
// that free nothing are not worth applying and are walked past; they
// are never pushed onto hist — the history records applied states only,
// so one counted degrade reverses as exactly one counted upgrade.
func (ts *taskState) nextRelieving() int {
	cur := &ts.stop().Demand
	for pos := ts.pos + 1; pos < len(ts.cp.Path); pos++ {
		for k, d := range ts.cp.Path[pos].Demand {
			if d < cur[k] {
				return pos
			}
		}
	}
	return -1
}

// moveTo applies a same-node level change exactly: resize the
// reservation to the stop's demand, publish the new level to the
// organizer, record the event.
func (e *Engine) moveTo(now float64, st *state, ts *taskState, pos int, kind string) bool {
	s := &ts.cp.Path[pos]
	prov := e.cl.Node(ts.node).Provider
	if err := prov.ResizeReservation(st.svcID, ts.t.ID, s.Demand); err != nil {
		return false
	}
	st.org.ApplyAdaptation(ts.t.ID, core.Assignment3{
		TaskID: ts.t.ID, Node: ts.node, Level: ts.cp.Ladder.Level(s.Assignment),
		Distance: s.Distance, CommCost: ts.comm,
	})
	ts.pos = pos
	st.events = append(st.events, Event{T: now, Kind: kind, Task: ts.t.ID, Node: ts.node, Distance: s.Distance})
	return true
}

// degradeStep moves the task to its next relieving stop and pushes the
// position it left onto the round-trip history.
func (e *Engine) degradeStep(now float64, st *state, ts *taskState, counts bool) bool {
	from, next := ts.pos, ts.nextRelieving()
	if next < 0 || !e.moveTo(now, st, ts, next, "degrade") {
		return false
	}
	ts.hist = append(ts.hist, from)
	if counts {
		e.stats.Degrades++
	}
	return true
}

// EpochScan is the periodic reclamation trigger: previously degraded
// tasks step back toward their admission-time level, most recent
// degradation first, as long as the serving node's post-upgrade
// utilisation stays below UtilLow. The scan loops to a fixpoint, so
// re-running it at the same simulated state applies nothing —
// adaptation within one epoch is idempotent.
func (e *Engine) EpochScan(now float64) {
	if !e.cfg.UpgradeOnSlack {
		return
	}
	if e.counts(now) {
		e.stats.Epochs++
	}
	for {
		applied := false
		for _, svcID := range e.order {
			st := e.sessions[svcID]
			for _, ts := range st.tasks {
				if e.upgradeStep(now, st, ts) {
					applied = true
				}
			}
		}
		if !applied {
			return
		}
	}
}

// upgradeStep is the reclamation step: restoreStep, gated on the richer
// level fitting under the UtilLow ceiling.
func (e *Engine) upgradeStep(now float64, st *state, ts *taskState) bool {
	if len(ts.hist) == 0 {
		return false
	}
	prev, cur := &ts.cp.Path[ts.hist[len(ts.hist)-1]].Demand, &ts.stop().Demand
	cap, avail := e.cl.Node(ts.node).Res.Usage()
	for k := range cap {
		if cap[k] <= 0 {
			continue
		}
		after := 1 - (avail[k]-(prev[k]-cur[k]))/cap[k]
		if after > e.cfg.UtilLow {
			return false
		}
	}
	if !e.restoreStep(now, st, ts, "upgrade") {
		return false
	}
	if e.counts(now) {
		e.stats.Upgrades++
	}
	return true
}

// restoreStep pops one entry of the task's degrade history and applies
// it exactly; feasibility is enforced by the reservation resize. kind
// names the event: "upgrade" for slack reclamation, "revert" for a yield
// rollback (yield.go).
func (e *Engine) restoreStep(now float64, st *state, ts *taskState, kind string) bool {
	if len(ts.hist) == 0 || e.cl.Medium.Down(ts.node) || e.avoid[ts.node] {
		return false
	}
	if !e.moveTo(now, st, ts, ts.hist[len(ts.hist)-1], kind) {
		return false
	}
	ts.hist = ts.hist[:len(ts.hist)-1]
	return true
}
