package core

import (
	"sort"
	"testing"

	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/resource"
)

// members returns the distinct winning nodes, ascending.
func members(s *Selection) []radio.NodeID {
	seen := make(map[radio.NodeID]bool)
	var out []radio.NodeID
	for _, a := range s.Assigned {
		if !seen[a.Node] {
			seen[a.Node] = true
			out = append(out, a.Node)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestCopiesFor(t *testing.T) {
	avail := resource.V(resource.KV{K: resource.CPU, A: 100}, resource.KV{K: resource.Memory, A: 35})
	demand := resource.V(resource.KV{K: resource.CPU, A: 30}, resource.KV{K: resource.Memory, A: 10})
	if got := copiesFor(avail, demand); got != 3 {
		t.Errorf("copies = %d, want 3 (cpu-bound)", got)
	}
	if got := copiesFor(avail, resource.Vector{}); got != 64 {
		t.Errorf("zero demand copies = %d, want cap 64", got)
	}
	tiny := resource.V(resource.KV{K: resource.CPU, A: 10})
	if got := copiesFor(tiny, demand); got != 1 {
		t.Errorf("copies floor = %d, want 1", got)
	}
}

func cand(node radio.NodeID, task string, dist, comm float64, copies int) Candidate {
	return Candidate{
		Node: node, TaskID: task,
		Level:    qos.Level{{Dim: "d", Attr: "a"}: qos.Int(1)},
		Distance: dist, CommCost: comm, Copies: copies,
	}
}

func TestSelectLowestDistanceWins(t *testing.T) {
	cands := map[string][]Candidate{
		"t0": {cand(1, "t0", 0.5, 0.1, 4), cand(2, "t0", 0.1, 0.9, 4)},
	}
	sel := SelectWinners([]string{"t0"}, cands, DefaultPolicy)
	if len(sel.Assigned) != 1 || sel.Assigned[0].Node != 2 {
		t.Fatalf("selected %+v, want node 2 (lowest evaluation)", sel.Assigned)
	}
}

func TestSelectCommCostBreaksTies(t *testing.T) {
	cands := map[string][]Candidate{
		"t0": {cand(1, "t0", 0.10, 0.9, 4), cand(2, "t0", 0.12, 0.1, 4)},
	}
	// Within eps: comm cost decides.
	sel := SelectWinners([]string{"t0"}, cands, SelectionPolicy{DistanceEps: 0.05, UseCommCost: true})
	if sel.Assigned[0].Node != 2 {
		t.Errorf("within eps the cheaper link must win, got node %d", sel.Assigned[0].Node)
	}
	// Without comm cost: strict distance.
	sel = SelectWinners([]string{"t0"}, cands, SelectionPolicy{DistanceEps: 0.05})
	if sel.Assigned[0].Node != 1 {
		t.Errorf("distance-only must pick node 1, got %d", sel.Assigned[0].Node)
	}
	// Beyond eps: distance decides regardless of comm.
	cands["t0"][1].Distance = 0.5
	sel = SelectWinners([]string{"t0"}, cands, SelectionPolicy{DistanceEps: 0.05, UseCommCost: true})
	if sel.Assigned[0].Node != 1 {
		t.Errorf("outside eps distance must win, got node %d", sel.Assigned[0].Node)
	}
}

func TestSelectConsolidationPacksMembers(t *testing.T) {
	// Three tasks; node 5 can host all three at equal distance; nodes
	// 1-3 are each slightly cheaper for their own task.
	tasks := []string{"t0", "t1", "t2"}
	cands := map[string][]Candidate{
		"t0": {cand(1, "t0", 0, 0.1, 1), cand(5, "t0", 0, 0.2, 3)},
		"t1": {cand(2, "t1", 0, 0.1, 1), cand(5, "t1", 0, 0.2, 3)},
		"t2": {cand(3, "t2", 0, 0.1, 1), cand(5, "t2", 0, 0.2, 3)},
	}
	sel := SelectWinners(tasks, cands, SelectionPolicy{DistanceEps: 0.05, UseCommCost: true, Consolidate: true})
	if got := len(members(sel)); got != 1 {
		t.Fatalf("members = %v, want the single node 5", members(sel))
	}
	if members(sel)[0] != 5 {
		t.Errorf("member = %v", members(sel))
	}
	// Without consolidation each task takes its cheap local node.
	sel = SelectWinners(tasks, cands, SelectionPolicy{DistanceEps: 0.05, UseCommCost: true})
	if got := len(members(sel)); got != 3 {
		t.Errorf("plain members = %d, want 3", got)
	}
}

func TestSelectConsolidationRespectsDistanceBand(t *testing.T) {
	// Node 5 could absorb both tasks but its t1 offer is far worse than
	// t1's best; criterion (a) keeps priority, so t1 must not move.
	tasks := []string{"t0", "t1"}
	cands := map[string][]Candidate{
		"t0": {cand(5, "t0", 0.0, 0.2, 2)},
		"t1": {cand(2, "t1", 0.0, 0.1, 1), cand(5, "t1", 0.5, 0.2, 2)},
	}
	sel := SelectWinners(tasks, cands, SelectionPolicy{DistanceEps: 0.05, UseCommCost: true, Consolidate: true})
	byTask := map[string]radio.NodeID{}
	for _, a := range sel.Assigned {
		byTask[a.TaskID] = a.Node
	}
	if byTask["t1"] != 2 {
		t.Errorf("t1 on node %d; consolidation must not sacrifice distance beyond eps", byTask["t1"])
	}
}

func TestSelectBudgetLimitsStacking(t *testing.T) {
	// Node 1 hints capacity for 2 tasks; the third must go to node 2
	// in the same round rather than thrash through award declines.
	tasks := []string{"t0", "t1", "t2"}
	mk := func(tid string) []Candidate {
		return []Candidate{cand(1, tid, 0, 0.1, 2), cand(2, tid, 0, 0.2, 2)}
	}
	cands := map[string][]Candidate{"t0": mk("t0"), "t1": mk("t1"), "t2": mk("t2")}
	sel := SelectWinners(tasks, cands, DefaultPolicy)
	if len(sel.Assigned) != 3 {
		t.Fatalf("assigned %d", len(sel.Assigned))
	}
	count := map[radio.NodeID]int{}
	for _, a := range sel.Assigned {
		count[a.Node]++
	}
	if count[1] != 2 || count[2] != 1 {
		t.Errorf("distribution = %v, want 2 on node 1 and 1 on node 2", count)
	}
}

func TestSelectUnservedWhenBudgetExhausted(t *testing.T) {
	tasks := []string{"t0", "t1"}
	cands := map[string][]Candidate{
		"t0": {cand(1, "t0", 0, 0, 1)},
		"t1": {cand(1, "t1", 0, 0, 1)},
	}
	sel := SelectWinners(tasks, cands, DefaultPolicy)
	if len(sel.Assigned) != 1 || len(sel.Unserved) != 1 {
		t.Errorf("assigned=%d unserved=%v; single-capacity node must not take both", len(sel.Assigned), sel.Unserved)
	}
}

func TestSelectNoCandidates(t *testing.T) {
	sel := SelectWinners([]string{"t0", "t1"}, map[string][]Candidate{
		"t1": {cand(1, "t1", 0, 0, 1)},
	}, DefaultPolicy)
	if len(sel.Unserved) != 1 || sel.Unserved[0] != "t0" {
		t.Errorf("unserved = %v", sel.Unserved)
	}
	if len(sel.Assigned) != 1 {
		t.Errorf("assigned = %v", sel.Assigned)
	}
}

func TestSelectSpreadPolicy(t *testing.T) {
	tasks := []string{"t0", "t1", "t2"}
	mk := func(tid string) []Candidate {
		return []Candidate{cand(1, tid, 0, 0.1, 3), cand(2, tid, 0, 0.2, 3), cand(3, tid, 0, 0.3, 3)}
	}
	cands := map[string][]Candidate{"t0": mk("t0"), "t1": mk("t1"), "t2": mk("t2")}
	sel := SelectWinners(tasks, cands, SelectionPolicy{DistanceEps: 0.05, UseCommCost: true, Spread: true})
	if got := len(members(sel)); got != 3 {
		t.Errorf("spread members = %d, want 3 (load balancing)", got)
	}
}

func TestSelectionAggregates(t *testing.T) {
	tasks := []string{"t0", "t1"}
	cands := map[string][]Candidate{
		"t0": {cand(1, "t0", 0.1, 0.2, 2)},
		"t1": {cand(1, "t1", 0.3, 0.4, 2)},
	}
	sel := SelectWinners(tasks, cands, DefaultPolicy)
	var dist, comm float64
	for _, a := range sel.Assigned {
		dist += a.Distance
		comm += a.CommCost
	}
	if dist != 0.4 {
		t.Errorf("summed distance = %v", dist)
	}
	if comm != 0.6000000000000001 && comm != 0.6 {
		t.Errorf("summed comm cost = %v", comm)
	}
	if m := members(sel); len(m) != 1 || m[0] != 1 {
		t.Errorf("members = %v", m)
	}
}

func TestSelectDeterministic(t *testing.T) {
	tasks := []string{"t0", "t1", "t2", "t3"}
	cands := map[string][]Candidate{}
	for _, tid := range tasks {
		cands[tid] = []Candidate{
			cand(3, tid, 0, 0.3, 2), cand(1, tid, 0, 0.3, 2), cand(2, tid, 0, 0.3, 2),
		}
	}
	first := SelectWinners(tasks, cands, DefaultPolicy)
	for i := 0; i < 10; i++ {
		again := SelectWinners(tasks, cands, DefaultPolicy)
		if len(again.Assigned) != len(first.Assigned) {
			t.Fatal("nondeterministic assignment count")
		}
		for j := range again.Assigned {
			a, b := again.Assigned[j], first.Assigned[j]
			if a.TaskID != b.TaskID || a.Node != b.Node || a.Distance != b.Distance || a.CommCost != b.CommCost {
				t.Fatalf("nondeterministic selection at %d: %+v vs %+v", j, a, b)
			}
		}
	}
}
