package baseline

import (
	"math/rand"
	"testing"

	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/task"
	"repro/internal/workload"
)

// problemWith builds an allocation problem over explicit capacities;
// node 0 is the organizer.
func problemWith(tasks int, scale float64, caps ...resource.Vector) *Problem {
	svc := workload.StreamService("b", tasks, scale)
	p := &Problem{Service: svc, Organizer: 0}
	for i, c := range caps {
		p.Nodes = append(p.Nodes, NodeView{
			ID: radio.NodeID(i), Res: resource.NewSet(c), CommCost: float64(i) * 0.1,
		})
	}
	return p
}

func phoneCap() resource.Vector  { return workload.Phone.Capacity }
func laptopCap() resource.Vector { return workload.Laptop.Capacity }
func apCap() resource.Vector     { return workload.AccessPoint.Capacity }

func TestLocalOnlyServesOnOrganizer(t *testing.T) {
	p := problemWith(1, 0.2, laptopCap(), apCap())
	a, err := LocalOnly{}.Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Unserved) != 0 || a.Assigned[0].Node != 0 {
		t.Fatalf("local-only must serve on node 0: %+v", a)
	}
}

func TestLocalOnlyFailsWhenOrganizerWeak(t *testing.T) {
	p := problemWith(4, 2.0, phoneCap(), apCap())
	a, err := LocalOnly{}.Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Unserved) == 0 {
		t.Error("a phone must not serve 4 heavy video tasks")
	}
	// Organizer absent from the node list is an error.
	p2 := problemWith(1, 1, phoneCap())
	p2.Organizer = 42
	if _, err := (LocalOnly{}).Allocate(p2); err == nil {
		t.Error("missing organizer accepted")
	}
}

func TestGreedyFirstFit(t *testing.T) {
	// Greedy takes nodes in ID order: phone (0) can only serve a
	// degraded level, yet greedy still parks the task there.
	p := problemWith(1, 0.5, phoneCap(), apCap())
	a, err := Greedy{}.Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Unserved) != 0 {
		t.Fatalf("greedy failed: %+v", a)
	}
	if a.Assigned[0].Node != 0 {
		t.Errorf("greedy must first-fit node 0, got %d", a.Assigned[0].Node)
	}
	if a.Assigned[0].Distance == 0 {
		t.Error("phone at 0.5x cannot serve the preferred level; expected degradation")
	}
}

func TestRandomIsSeedDeterministic(t *testing.T) {
	mk := func(seed int64) *Allocation {
		p := problemWith(3, 0.5, phoneCap(), laptopCap(), apCap(), laptopCap())
		a, err := Random{Rng: rand.New(rand.NewSource(seed))}.Allocate(p)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a1, a2 := mk(7), mk(7)
	if len(a1.Assigned) != len(a2.Assigned) {
		t.Fatal("same seed, different counts")
	}
	for i := range a1.Assigned {
		if a1.Assigned[i].Node != a2.Assigned[i].Node {
			t.Fatal("same seed, different placement")
		}
	}
}

func TestOptimalBeatsOrMatchesGreedy(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		p1 := problemWith(2, 1.0, phoneCap(), laptopCap(), laptopCap())
		p2 := problemWith(2, 1.0, phoneCap(), laptopCap(), laptopCap())
		g, err := Greedy{}.Allocate(p1)
		if err != nil {
			t.Fatal(err)
		}
		o, err := Optimal{}.Allocate(p2)
		if err != nil {
			t.Fatal(err)
		}
		if len(o.Assigned) < len(g.Assigned) {
			t.Fatalf("optimal served fewer tasks than greedy (%d < %d)", len(o.Assigned), len(g.Assigned))
		}
		if len(o.Assigned) == len(g.Assigned) && o.MeanDistance() > g.MeanDistance()+1e-9 {
			t.Errorf("optimal distance %v worse than greedy %v", o.MeanDistance(), g.MeanDistance())
		}
	}
}

func TestOptimalBoundsSearchSpace(t *testing.T) {
	p := problemWith(8, 1, phoneCap(), phoneCap(), phoneCap(), phoneCap(), phoneCap(), phoneCap())
	if _, err := (Optimal{MaxNodes: 5}).Allocate(p); err == nil {
		t.Error("branch-and-bound effort bound not enforced")
	}
	if _, err := (OptimalExhaustive{MaxCombinations: 100}).Allocate(p); err == nil {
		t.Error("enumerator search-space bound not enforced")
	}
}

// TestOptimalMatchesExhaustive is the argmin oracle: on every instance
// the enumerator can afford, branch-and-bound must return the identical
// allocation — same task->node map, bitwise-same distances, same
// unserved set — because it explores children in the enumerator's order
// and only prunes provably-not-strictly-better subtrees.
func TestOptimalMatchesExhaustive(t *testing.T) {
	capsPool := []resource.Vector{phoneCap(), laptopCap(), apCap()}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var caps []resource.Vector
		for n := 2 + rng.Intn(3); n > 0; n-- {
			caps = append(caps, capsPool[rng.Intn(len(capsPool))])
		}
		nTasks := 1 + rng.Intn(3)
		scale := []float64{0.5, 1, 2, 4}[rng.Intn(4)]
		pb := problemWith(nTasks, scale, caps...)
		pe := problemWith(nTasks, scale, caps...)
		got, err := Optimal{}.Allocate(pb)
		if err != nil {
			t.Fatalf("seed %d: bnb: %v", seed, err)
		}
		want, err := OptimalExhaustive{}.Allocate(pe)
		if err != nil {
			t.Fatalf("seed %d: exhaustive: %v", seed, err)
		}
		if !got.Equal(want) {
			t.Fatalf("seed %d: allocations differ:\nbnb:  %+v\nenum: %+v", seed, got, want)
		}
	}
}

// TestOptimalHandlesEnumeratorIntractable: branch-and-bound solves an
// instance whose cross-product the enumerator refuses to even start.
func TestOptimalHandlesEnumeratorIntractable(t *testing.T) {
	var caps []resource.Vector
	for i := 0; i < 15; i++ {
		caps = append(caps, phoneCap(), laptopCap())
	}
	p := problemWith(4, 1.0, caps...) // 31^4 ≈ 9.2e5 > 1e4
	if _, err := (OptimalExhaustive{MaxCombinations: 10_000}).Allocate(p); err == nil {
		t.Fatal("enumerator accepted an intractable search space")
	}
	a, explored, err := Optimal{}.AllocateCounted(problemWith(4, 1.0, caps...))
	if err != nil {
		t.Fatalf("bnb failed on the same instance: %v", err)
	}
	if len(a.Unserved) != 0 {
		t.Errorf("30 strong nodes must serve 4 tasks: %+v", a)
	}
	if explored <= 0 || explored > 10_000 {
		t.Errorf("explored %d search edges; pruning should keep this far under the 9.2e5 cross-product", explored)
	}
}

func TestAllocationAggregates(t *testing.T) {
	a := &Allocation{
		Assigned: []TaskAlloc{
			{TaskID: "a", Node: 1, Distance: 0.2},
			{TaskID: "b", Node: 1, Distance: 0.4},
			{TaskID: "c", Node: 2, Distance: 0.0},
		},
		Unserved: []string{"d"},
	}
	if len(a.Unserved) == 0 {
		t.Error("Complete with unserved")
	}
	if got := a.MeanDistance(); got < 0.2-1e-12 || got > 0.2+1e-12 {
		t.Errorf("MeanDistance = %v", got)
	}
	if a.Members() != 2 {
		t.Errorf("Members = %d", a.Members())
	}
	empty := &Allocation{}
	if empty.MeanDistance() != 0 || empty.Members() != 0 || len(empty.Unserved) != 0 {
		t.Error("empty allocation aggregates")
	}
}

func TestSequentialReservationsSeeEachOther(t *testing.T) {
	// One laptop can hold ~4 preferred tasks at 1.0x; ask greedy for 8
	// tasks on a single laptop: some must degrade or go unserved, never
	// over-commit.
	p := problemWith(8, 1.0, laptopCap())
	a, err := Greedy{}.Allocate(p)
	if err != nil {
		t.Fatal(err)
	}
	res := p.Nodes[0].Res
	if !res.Available().Nonnegative() {
		t.Fatalf("over-committed node: %v", res.Available())
	}
	if len(a.Assigned) == 8 {
		degraded := false
		for _, x := range a.Assigned {
			if x.Distance > 0 {
				degraded = true
			}
		}
		if !degraded {
			t.Error("8 preferred-level tasks cannot all fit one laptop")
		}
	}
}

func TestSnapshotProblem(t *testing.T) {
	svc := workload.StreamService("s", 1, 1)
	nodes := map[radio.NodeID]*resource.Set{
		2: resource.NewSet(laptopCap()),
		0: resource.NewSet(phoneCap()),
	}
	p := SnapshotProblem(svc, 0, nodes, func(id radio.NodeID) float64 { return float64(id) })
	if len(p.Nodes) != 2 || p.Nodes[0].ID != 0 || p.Nodes[1].ID != 2 {
		t.Fatalf("nodes = %+v, want sorted", p.Nodes)
	}
	if p.Nodes[1].CommCost != 2 {
		t.Error("comm cost not threaded")
	}
	// The snapshot must be isolated: reserving in it leaves the source
	// untouched.
	if err := p.Nodes[0].Res.Reserve("x", resource.V(resource.KV{K: resource.CPU, A: 10})); err != nil {
		t.Fatal(err)
	}
	if nodes[0].Available()[resource.CPU] != phoneCap()[resource.CPU] {
		t.Error("snapshot aliases live resources")
	}
	// Names are stable identifiers used in tables.
	for _, al := range []Allocator{LocalOnly{}, Random{}, Greedy{}, Optimal{}, OptimalExhaustive{}} {
		if al.Name() == "" {
			t.Error("empty allocator name")
		}
	}
}

var _ = []task.DemandModel{} // keep task import for doc reference
