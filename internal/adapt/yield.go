package adapt

import (
	"sort"

	"repro/internal/radio"
	"repro/internal/task"
)

// This file is the adaptation engine's half of the Yield admission
// policy (internal/admit): the session engine prices an arriving
// session's best attainable utility with SessionBestUtility, buys
// incumbent degrade steps with Yield while the cumulative utility cost
// stays strictly under that gain, and settles with YieldResolve once the
// retried formation resolves — commit on admission, best-effort rollback
// on failure. The steps themselves are the ordinary moves between
// degradation-path stops of degradeStep/restoreStep, and a step's price
// is read off the stop degradeStep will move to, so the price quoted is
// the price paid and degrade→revert round-trips are float64-exact.

// yieldMark remembers one incumbent degrade applied on behalf of a
// pending yield admission, so a failed retry can roll it back.
type yieldMark struct {
	svcID  string
	taskID string
}

// SessionBestUtility returns the eq. 3 utility the service would earn if
// every task were served at its best dependency-consistent degradation
// stop — the marginal gain an arriving session offers the system, and
// the budget the Yield policy may spend on incumbent drift. Tasks with
// no consistent stop contribute 0 (the session can never fully form).
func (e *Engine) SessionBestUtility(svc *task.Service) (float64, error) {
	var u float64
	for _, t := range svc.Tasks {
		cp, err := e.compileFor(svc, t)
		if err != nil {
			return 0, err
		}
		if len(cp.Path) == 0 {
			continue
		}
		best := &cp.Path[0]
		for i := range cp.Path {
			if cp.Path[i].Distance < best.Distance {
				best = &cp.Path[i]
			}
		}
		u += best.Utility
	}
	return u, nil
}

// Yield buys incumbent degrade steps for a pending admission of forSvc:
// repeatedly degrade one task on the most-utilized node, most-loaded
// node first (ties by ascending node ID, sessions in admission order —
// the same deterministic orders the pressure trigger uses), while the
// cumulative utility cost stays strictly below gain and at most maxSteps
// steps apply. Every step is journaled under forSvc for YieldResolve.
// Returns the steps applied and their total utility cost.
func (e *Engine) Yield(now float64, forSvc string, gain float64, maxSteps int) (steps int, cost float64) {
	for steps < maxSteps {
		price, ok := e.yieldStep(now, forSvc, gain-cost)
		if !ok {
			break
		}
		cost += price
		steps++
	}
	return steps, cost
}

// yieldStep locates, prices and applies one affordable incumbent
// degrade: candidate nodes by descending utilisation, resident sessions
// in admission order, and a step is affordable when its utility price is
// strictly below budget. Returns the price paid.
func (e *Engine) yieldStep(now float64, forSvc string, budget float64) (float64, bool) {
	counts := e.counts(now)
	ids := e.cl.Medium.IDs()
	type cand struct {
		id   radio.NodeID
		util float64
	}
	cands := make([]cand, 0, len(ids))
	for _, id := range ids {
		if e.cl.Medium.Down(id) || e.avoid[id] {
			continue
		}
		if u := e.nodeUtil(id); u > 0 {
			cands = append(cands, cand{id: id, util: u})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].util != cands[j].util {
			return cands[i].util > cands[j].util
		}
		return cands[i].id < cands[j].id
	})
	for _, c := range cands {
		for _, svcID := range e.order {
			if svcID == forSvc {
				continue
			}
			st := e.sessions[svcID]
			if st.killed {
				continue
			}
			for _, ts := range st.tasks {
				if ts.node != c.id {
					continue
				}
				next := ts.nextRelieving()
				if next < 0 {
					continue
				}
				// Clamped nonnegative: distance is non-decreasing along
				// the path, but clamping keeps the budget arithmetic safe
				// regardless.
				price := max(ts.stop().Utility-ts.cp.Path[next].Utility, 0)
				if price >= budget || !e.degradeStep(now, st, ts, counts) {
					continue
				}
				e.yields[forSvc] = append(e.yields[forSvc], yieldMark{svcID: st.svcID, taskID: ts.t.ID})
				return price, true
			}
		}
	}
	return 0, false
}

// YieldResolve settles the yield journal of forSvc: on commit the
// degrades stand (they are ordinary history entries the epoch scan may
// reclaim later); otherwise the steps are rolled back newest-first,
// best-effort — an incumbent that departed meanwhile, or whose freed
// capacity was since taken, keeps its degraded level and the ordinary
// upgrade reclamation recovers it when slack returns. Returns the number
// of steps actually rolled back.
func (e *Engine) YieldResolve(now float64, forSvc string, commit bool) (reverted int) {
	marks := e.yields[forSvc]
	if marks == nil {
		return 0
	}
	delete(e.yields, forSvc)
	if commit {
		return 0
	}
	for i := len(marks) - 1; i >= 0; i-- {
		m := marks[i]
		st, ok := e.sessions[m.svcID]
		if !ok {
			continue
		}
		for _, ts := range st.tasks {
			if ts.t.ID != m.taskID {
				continue
			}
			// Not slack-gated like upgradeStep — a rollback restores what
			// the failed admission took, it does not wait for slack — and
			// deliberately not counted as an Upgrade: reclamation stats
			// measure slack recovery, not un-doing an admission attempt.
			if e.restoreStep(now, st, ts, "revert") {
				reverted++
			}
			break
		}
	}
	return reverted
}
