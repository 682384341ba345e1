package adapt

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/task"
)

// admitted forms the fixture session and registers it with a fresh
// engine running every trigger under the DegradeToFit churn policy.
func admitted(t *testing.T) (*core.Cluster, *task.Service, *core.Organizer, *Engine) {
	t.Helper()
	cl, svc, org := formedSession(t, 7, 6)
	eng, err := New(cl, Config{OnChurn: DegradeToFit, DegradeOnPressure: true, UpgradeOnSlack: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Admit(cl.Eng.Now(), 0, org, true); err != nil {
		t.Fatal(err)
	}
	return cl, svc, org, eng
}

// taskUtilities evaluates eq. 3 on the organizer's published distances —
// what the session engine's utility accounting observes.
func taskUtilities(t *testing.T, svc *task.Service, org *core.Organizer) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, tk := range svc.Tasks {
		ev, err := qos.NewEvaluator(svc.Spec, &tk.Request)
		if err != nil {
			t.Fatal(err)
		}
		if a, ok := org.Assignment(tk.ID); ok {
			out[tk.ID] = ev.Utility(a.Distance)
		}
	}
	return out
}

// TestYieldPriceIsTheAppliedDrop: the cost Yield reports for a step is,
// to the bit, the utility the incumbent's organizer loses by it — the
// price is read off the stop the degrade moves to, not re-derived.
func TestYieldPriceIsTheAppliedDrop(t *testing.T) {
	cl, svc, org, eng := admitted(t)
	best, err := eng.SessionBestUtility(svc)
	if err != nil {
		t.Fatal(err)
	}
	if best != float64(len(svc.Tasks)) {
		t.Fatalf("best utility %g, want %d (every task at its preferred level)", best, len(svc.Tasks))
	}
	start := taskUtilities(t, svc, org)
	var total float64
	applied := 0
	for ; applied < 6; applied++ {
		before := taskUtilities(t, svc, org)
		steps, cost := eng.Yield(cl.Eng.Now(), "newcomer", best, 1)
		if steps == 0 {
			break
		}
		after := taskUtilities(t, svc, org)
		changed := 0
		for tid, u := range after {
			if u == before[tid] {
				continue
			}
			changed++
			if drop := before[tid] - u; cost != drop {
				t.Errorf("step %d task %s: Yield priced %v, organizer lost %v", applied, tid, cost, drop)
			}
		}
		if changed != 1 {
			t.Fatalf("step %d moved %d tasks, want exactly one", applied, changed)
		}
		total += cost
	}
	if applied == 0 {
		t.Fatal("Yield bought no step from a loaded incumbent")
	}
	if total >= best {
		t.Errorf("cumulative cost %g reached the gain %g it must stay strictly under", total, best)
	}
	var lost float64
	for tid, u := range taskUtilities(t, svc, org) {
		lost += start[tid] - u
	}
	if math.Abs(lost-total) > 1e-12 {
		t.Errorf("incumbent lost %g in total, Yield reported %g", lost, total)
	}
	if got := eng.Stats().Degrades; got != applied {
		t.Errorf("Degrades = %d after %d yield steps", got, applied)
	}
}

// TestYieldResolveRollbackExact: a failed admission's rollback returns
// every incumbent to the level, demand and ledger it had, exactly, and
// leaves no history behind; a committed one stands.
func TestYieldResolveRollbackExact(t *testing.T) {
	cl, svc, org, eng := admitted(t)
	now := cl.Eng.Now()
	admitSnap := org.Snapshot()
	preAvail := snapshotAvailable(cl)
	preDemand := make(map[string]*core.Stop)
	for _, ts := range eng.sessions[svc.ID].tasks {
		preDemand[ts.t.ID] = ts.stop()
	}

	steps, _ := eng.Yield(now, "newcomer", float64(len(svc.Tasks)), 3)
	if steps == 0 {
		t.Fatal("Yield bought no step")
	}
	if got := eng.YieldResolve(now, "newcomer", false); got != steps {
		t.Fatalf("rolled back %d of %d steps", got, steps)
	}
	for tid, want := range admitSnap {
		got := org.Snapshot()[tid]
		if got.Node != want.Node || got.Distance != want.Distance || !got.Level.Equal(want.Level) {
			t.Errorf("task %s: %+v after rollback, admitted as %+v", tid, got, want)
		}
	}
	for id, want := range preAvail {
		if got := cl.Node(id).Res.Available(); got != want {
			t.Errorf("node %d: available %v after rollback, want %v", id, got, want)
		}
	}
	for _, ts := range eng.sessions[svc.ID].tasks {
		if ts.stop() != preDemand[ts.t.ID] || len(ts.hist) != 0 {
			t.Errorf("task %s: at stop %d with %d history entries after rollback", ts.t.ID, ts.pos, len(ts.hist))
		}
	}
	events := eng.History(svc.ID)
	if len(events) != 2*steps || events[len(events)-1].Kind != "revert" {
		t.Errorf("history %+v, want %d degrades then %d reverts", events, steps, steps)
	}
	if eng.Stats().Upgrades != 0 {
		t.Errorf("a rollback counted %d upgrades", eng.Stats().Upgrades)
	}
	if got := eng.YieldResolve(now, "newcomer", false); got != 0 {
		t.Errorf("second resolve rolled back %d steps from an empty journal", got)
	}

	// Commit: the degrades stand and the journal is closed.
	if steps, _ = eng.Yield(now, "other", float64(len(svc.Tasks)), 2); steps == 0 {
		t.Fatal("Yield bought no step")
	}
	degraded := snapshotAvailable(cl)
	if got := eng.YieldResolve(now, "other", true) + eng.YieldResolve(now, "other", false); got != 0 {
		t.Errorf("committed yield rolled back %d steps", got)
	}
	for id, want := range degraded {
		if got := cl.Node(id).Res.Available(); got != want {
			t.Errorf("node %d: commit changed the ledger %v -> %v", id, want, got)
		}
	}
}

// helperNode returns a node other than the organizer's that serves a
// task of the fixture session, with that task's ID.
func helperNode(t *testing.T, org *core.Organizer) (radio.NodeID, string) {
	t.Helper()
	for tid, a := range org.Snapshot() {
		if a.Node != 0 {
			return a.Node, tid
		}
	}
	t.Fatal("fixture session has no remote coalition member")
	return 0, ""
}

// TestFrozenNodeKeepsReservationsDeadNodeLosesThem: the two churn
// triggers repair a session identically and differ in the orphan's old
// ledger — a frozen process still accounts its reservation (only the
// owner's reconciliation sweep may reclaim it), a dead node's is dropped.
func TestFrozenNodeKeepsReservationsDeadNodeLosesThem(t *testing.T) {
	for _, freeze := range []bool{true, false} {
		cl, svc, org, eng := admitted(t)
		now := cl.Eng.Now()
		id, tid := helperNode(t, org)
		node := cl.Node(id)
		held := node.Res.Available()

		var killed []string
		if freeze {
			eng.SetAvoid(id, true)
			killed = eng.NodeUnreachable(now, id)
		} else {
			cl.FailNode(id)
			killed = eng.NodeDown(now)
		}
		if len(killed) != 0 {
			t.Fatalf("freeze=%v: repair killed %v", freeze, killed)
		}
		a, _ := org.Assignment(tid)
		if a.Node == id || eng.Stats().Repairs == 0 || eng.Stats().Triggers != 1 {
			t.Fatalf("freeze=%v: task %s still on node %d (stats %+v)", freeze, tid, a.Node, *eng.Stats())
		}
		reserved := len(node.Provider.ReservedTasks(svc.ID))
		switch {
		case freeze && (reserved == 0 || node.Res.Available() != held):
			t.Errorf("frozen node: %d reservations, available %v -> %v; want untouched", reserved, held, node.Res.Available())
		case !freeze && (reserved != 0 || node.Res.Available() != node.Res.Capacity()):
			t.Errorf("dead node: %d reservations, available %v of %v; want dropped", reserved, node.Res.Available(), node.Res.Capacity())
		}
	}
}
