package adapt

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/resource"
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
	// Penalty must match the providers' reward penalty function so the
	// engine's degradation steps retrace the admission-time Formulate
	// path (nil = qos.DefaultPenalty, the provider default).
	Penalty qos.PenaltyFunc
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
	// Kind is "degrade", "upgrade", "repair" or "kill".
	Kind string
	// Task is the affected task ID ("" for kill).
	Task string
	// Node is the serving node after the event.
	Node radio.NodeID
	// Distance is the task's QoS distance after the event.
	Distance float64
}

// taskState tracks one live task on the compiled ladder.
type taskState struct {
	t    *task.Task
	cp   *core.CompiledProblem
	node radio.NodeID
	// comm is the task's current communication cost: admission-time
	// from the winning proposal, recomputed on migration, carried
	// forward unchanged by same-node degrades/upgrades.
	comm float64
	// cur is the current dep-consistent ladder assignment; admitDist is
	// the task's distance at admission.
	cur       qos.Assignment
	admit     qos.Assignment
	admitDist float64
	// hist stacks the dep-consistent assignments this task degraded
	// away from, most recent last; upgrades pop it, making
	// degrade→upgrade round-trips exact.
	hist []qos.Assignment
}

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
	// stops caches each compiled problem's degradation-path stops: the
	// path is availability-independent, so it is shared by every
	// re-placement over the same (spec, demand reference).
	stops    map[*core.CompiledProblem][]pathStop
	sessions map[string]*state
	order    []string // svcIDs in admission order
	// avoid marks nodes the engine must not place on or renegotiate
	// with: frozen nodes (internal/faults) whose radio is blackholed but
	// whose process — and reservation ledger — is still alive, so they
	// are neither Down nor usable (see SetAvoid, NodeUnreachable).
	avoid map[radio.NodeID]bool
	// yields journals incumbent degrades applied for pending Yield
	// admissions, keyed by the beneficiary service ID (see yield.go);
	// evals caches each compiled problem's eq. 3 evaluator for pricing.
	yields map[string][]yieldMark
	evals  map[*core.CompiledProblem]*qos.Evaluator

	// Steady-state scratch and free-lists: open-system runs admit and
	// forget sessions continuously, so session records, task records and
	// the per-trigger work lists are recycled instead of reallocated.
	// Event histories and degrade histories are NOT recycled — History's
	// callers may hold them past Forget — so a recycled record starts
	// with nil events/hist and ownership of the old slices stays with
	// whoever read them.
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
		stops:     make(map[*core.CompiledProblem][]pathStop),
		sessions:  make(map[string]*state),
		avoid:     make(map[radio.NodeID]bool),
		yields:    make(map[string][]yieldMark),
		evals:     make(map[*core.CompiledProblem]*qos.Evaluator),
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
	cp, err := core.CompileProblem(svc.Spec, &entry.req, dm, e.cfg.GridSteps, e.cfg.Penalty)
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
// re-anchored from protocol Levels onto the compiled ladder so every
// later adaptation evaluates on the slot-indexed fast path. counted
// marks sessions arriving at or after the owner's warmup.
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
		a, err := cp.Ladder.AssignmentOf(a3.Level)
		if err != nil {
			return fmt.Errorf("adapt: session %s task %s: %w (provider GridSteps mismatch?)", svc.ID, t.ID, err)
		}
		ts := e.getTaskState()
		ts.t, ts.cp, ts.node, ts.comm = t, cp, a3.Node, a3.CommCost
		ts.cur, ts.admit, ts.admitDist = a, a.Clone(), cp.C.Distance(a)
		ts.hist = nil
		st.tasks = append(st.tasks, ts)
	}
	e.sessions[svc.ID] = st
	e.order = append(e.order, svc.ID)
	return nil
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
				drift += ts.cp.C.Distance(ts.cur) - ts.admitDist
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
	counts := e.counts(now)
	e.orderScratch = append(e.orderScratch[:0], e.order...)
	for _, svcID := range e.orderScratch {
		st, ok := e.sessions[svcID]
		if !ok {
			continue
		}
		orphans := e.orphanBuf[:0]
		for _, ts := range st.tasks {
			if e.cl.Medium.Down(ts.node) {
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
		// Ledger hygiene first: the dead nodes' reservations for these
		// tasks can never be released over the air.
		for _, ts := range orphans {
			if n := e.cl.Node(ts.node); n != nil {
				n.Provider.DropTask(svcID, ts.t.ID)
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

// NodeUnreachable repairs every live session with a task on a node
// that froze: still alive and holding its reservations, but radio-dark,
// so no message in either direction will land until it thaws. Unlike
// NodeDown the orphans' reservations are NOT dropped — the frozen
// process still accounts them, and only the owner's reconciliation
// sweep may reclaim them after the thaw (DESIGN.md §12). Callers
// should SetAvoid(id, true) first so re-placements skip the node. It
// returns the sessions the engine decided to kill, in admission order.
func (e *Engine) NodeUnreachable(now float64, id radio.NodeID) (killed []string) {
	counts := e.counts(now)
	e.orderScratch = append(e.orderScratch[:0], e.order...)
	for _, svcID := range e.orderScratch {
		st, ok := e.sessions[svcID]
		if !ok {
			continue
		}
		orphans := e.orphanBuf[:0]
		for _, ts := range st.tasks {
			if ts.node == id {
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
// returning false when no reachable node can host it.
func (e *Engine) replace(now float64, st *state, ts *taskState, counts bool) bool {
	type placement struct {
		node radio.NodeID
		// stop indexes the candidate's degradation-path stop
		// (DegradeToFit only, -1 for MigrateExact); the winner's
		// assignment and history are cloned out of the shared stops
		// cache only after selection.
		stop int
		dist float64
		comm float64
	}
	var best placement
	haveBest := false
	var curDemand resource.Vector
	var curDist float64
	var stops []pathStop
	if e.cfg.OnChurn == MigrateExact {
		d, err := ts.cp.DemandAt(ts.cur)
		if err != nil {
			return false
		}
		curDemand, curDist = d, ts.cp.C.Distance(ts.cur)
	} else {
		// The degradation path is availability-independent (see
		// WalkDegradationPath), so its dep-consistent stops and their
		// demands are computed once; each candidate node only picks its
		// own stopping point below.
		stops = e.stopsFor(ts.cp)
	}
	for _, id := range e.cl.Medium.IDs() {
		if e.cl.Medium.Down(id) || e.avoid[id] {
			continue
		}
		if id != st.orgNode && !e.cl.Medium.InRange(st.orgNode, id) {
			continue
		}
		res := e.cl.Node(id).Res
		var cand placement
		switch e.cfg.OnChurn {
		case MigrateExact:
			if !res.CanReserve(curDemand) {
				continue
			}
			cand = placement{node: id, stop: -1, dist: curDist}
		default: // DegradeToFit
			stop := -1
			for i := range stops {
				if res.CanReserve(stops[i].demand) {
					stop = i
					break
				}
			}
			if stop < 0 {
				continue
			}
			cand = placement{node: id, stop: stop, dist: ts.cp.C.Distance(stops[stop].a)}
		}
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
	// Materialize the winner only: clone its assignment (and, for a
	// degraded placement, the richer stops before it — the task's new
	// upgrade-reclamation history) out of the shared stops cache.
	a, hist := ts.cur.Clone(), ts.hist
	if best.stop >= 0 {
		a = stops[best.stop].a.Clone()
		hist = make([]qos.Assignment, best.stop)
		for i := 0; i < best.stop; i++ {
			hist[i] = stops[i].a.Clone()
		}
	}
	demand, err := ts.cp.DemandAt(a)
	if err != nil {
		return false
	}
	prov := e.cl.Node(best.node).Provider
	if err := prov.AdoptReservation(st.orgNode, st.svcID, ts.t.ID, demand); err != nil {
		return false
	}
	st.org.ApplyAdaptation(ts.t.ID, core.Assignment3{
		TaskID: ts.t.ID, Node: best.node, Level: ts.cp.Ladder.Level(a),
		Distance: best.dist, CommCost: best.comm,
	})
	ts.node = best.node
	ts.comm = best.comm
	ts.cur = a
	ts.hist = hist
	st.events = append(st.events, Event{T: now, Kind: "repair", Task: ts.t.ID, Node: best.node, Distance: best.dist})
	if counts {
		e.stats.Repairs++
	}
	return true
}

// pathStop is one dep-consistent stop of the Section 5 degradation
// path with its demand, from most to least preferred.
type pathStop struct {
	a      qos.Assignment
	demand resource.Vector
}

// stopsFor returns the cached degradation-path stops of a compiled
// problem, enumerating them on first use.
func (e *Engine) stopsFor(cp *core.CompiledProblem) []pathStop {
	if s, ok := e.stops[cp]; ok {
		return s
	}
	s := degradationStops(cp)
	e.stops[cp] = s
	return s
}

// degradationStops enumerates the dep-consistent stops of the
// degradation path from the all-preferred assignment to ladder
// exhaustion. The path is availability-independent, so the result
// serves every candidate node of a re-placement: a node's repair level
// is simply the first stop whose demand it can reserve, and the stops
// before it become the task's upgrade-reclamation history.
func degradationStops(cp *core.CompiledProblem) []pathStop {
	a := cp.Ladder.NewAssignment()
	var stops []pathStop
	for {
		if ok, _ := cp.C.DepsSatisfied(a); ok {
			demand, err := cp.DemandAt(a)
			if err != nil {
				return nil
			}
			stops = append(stops, pathStop{a: a.Clone(), demand: demand})
		}
		i, ok := cp.NextDegradation(a)
		if !ok {
			return stops
		}
		a[i]++
	}
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

// degradeStep walks the task one dep-consistent step down its ladder —
// continuing past steps that relieve nothing until one strictly lowers
// demand in some kind — and applies it exactly: resize the reservation,
// publish the new level to the organizer, push the old assignment onto
// the round-trip history.
func (e *Engine) degradeStep(now float64, st *state, ts *taskState, counts bool) bool {
	curDemand, err := ts.cp.DemandAt(ts.cur)
	if err != nil {
		return false
	}
	a := ts.cur.Clone()
	for {
		i, ok := ts.cp.NextDegradation(a)
		if !ok {
			return false
		}
		a[i]++
		if ok, _ := ts.cp.C.DepsSatisfied(a); !ok {
			continue
		}
		demand, err := ts.cp.DemandAt(a)
		if err != nil {
			return false
		}
		relieves := false
		for k := range demand {
			if demand[k] < curDemand[k] {
				relieves = true
				break
			}
		}
		if !relieves {
			// A stop that frees nothing is not worth applying; keep
			// walking. It is deliberately NOT pushed onto hist — the
			// history records applied states only, so one counted
			// degrade reverses as exactly one counted upgrade.
			continue
		}
		prov := e.cl.Node(ts.node).Provider
		if err := prov.ResizeReservation(st.svcID, ts.t.ID, demand); err != nil {
			return false
		}
		dist := ts.cp.C.Distance(a)
		st.org.ApplyAdaptation(ts.t.ID, core.Assignment3{
			TaskID: ts.t.ID, Node: ts.node, Level: ts.cp.Ladder.Level(a),
			Distance: dist, CommCost: ts.comm,
		})
		ts.hist = append(ts.hist, ts.cur)
		ts.cur = a
		st.events = append(st.events, Event{T: now, Kind: "degrade", Task: ts.t.ID, Node: ts.node, Distance: dist})
		if counts {
			e.stats.Degrades++
		}
		return true
	}
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

// upgradeStep pops one entry of the task's degrade history when the
// richer level fits under the UtilLow ceiling, applying it exactly.
func (e *Engine) upgradeStep(now float64, st *state, ts *taskState) bool {
	if len(ts.hist) == 0 || e.cl.Medium.Down(ts.node) || e.avoid[ts.node] {
		return false
	}
	prev := ts.hist[len(ts.hist)-1]
	prevDemand, err := ts.cp.DemandAt(prev)
	if err != nil {
		return false
	}
	curDemand, err := ts.cp.DemandAt(ts.cur)
	if err != nil {
		return false
	}
	cap, avail := e.cl.Node(ts.node).Res.Usage()
	for k := range cap {
		if cap[k] <= 0 {
			continue
		}
		after := 1 - (avail[k]-(prevDemand[k]-curDemand[k]))/cap[k]
		if after > e.cfg.UtilLow {
			return false
		}
	}
	prov := e.cl.Node(ts.node).Provider
	if err := prov.ResizeReservation(st.svcID, ts.t.ID, prevDemand); err != nil {
		return false
	}
	dist := ts.cp.C.Distance(prev)
	st.org.ApplyAdaptation(ts.t.ID, core.Assignment3{
		TaskID: ts.t.ID, Node: ts.node, Level: ts.cp.Ladder.Level(prev),
		Distance: dist, CommCost: ts.comm,
	})
	ts.hist = ts.hist[:len(ts.hist)-1]
	ts.cur = prev
	st.events = append(st.events, Event{T: now, Kind: "upgrade", Task: ts.t.ID, Node: ts.node, Distance: dist})
	if e.counts(now) {
		e.stats.Upgrades++
	}
	return true
}
