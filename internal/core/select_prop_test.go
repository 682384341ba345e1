package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/task"
)

// genProblem builds a random selection instance from a seed.
func genProblem(seed int64) ([]string, map[string][]Candidate) {
	rng := rand.New(rand.NewSource(seed))
	nTasks := 1 + rng.Intn(6)
	nNodes := 1 + rng.Intn(10)
	level := qos.Level{{Dim: "d", Attr: "a"}: qos.Int(1)}
	var tasks []string
	cands := make(map[string][]Candidate)
	for t := 0; t < nTasks; t++ {
		tid := fmt.Sprintf("t%d", t)
		tasks = append(tasks, tid)
		for n := 0; n < nNodes; n++ {
			if rng.Float64() < 0.3 {
				continue // this node made no offer for this task
			}
			cands[tid] = append(cands[tid], Candidate{
				Node: radio.NodeID(n), TaskID: tid, Level: level,
				Distance: float64(rng.Intn(20)) * 0.05,
				CommCost: rng.Float64(),
				Copies:   1 + rng.Intn(4),
			})
		}
	}
	return tasks, cands
}

// TestSelectInvariants property-checks winner selection across policies:
//  1. every task appears exactly once (assigned xor unserved);
//  2. assignments only use offered candidates;
//  3. no node exceeds its hinted capacity budget;
//  4. a task with at least one candidate on an unsaturated node is
//     never left unserved.
func TestSelectInvariants(t *testing.T) {
	policies := []SelectionPolicy{
		{},
		{DistanceEps: 0.05, UseCommCost: true},
		{DistanceEps: 0.05, UseCommCost: true, Consolidate: true},
		{DistanceEps: 0.1, UseCommCost: true, Spread: true},
	}
	f := func(seed int64) bool {
		tasks, cands := genProblem(seed)
		for _, pol := range policies {
			sel := SelectWinners(tasks, cands, pol)
			seen := make(map[string]int)
			budget := make(map[radio.NodeID]float64)
			for _, a := range sel.Assigned {
				seen[a.TaskID]++
				// (2) the assignment must match an actual offer.
				found := false
				for _, c := range cands[a.TaskID] {
					if c.Node == a.Node && c.Distance == a.Distance {
						found = true
						budget[a.Node] += c.budgetCost()
						break
					}
				}
				if !found {
					t.Logf("policy %+v seed %d: fabricated assignment %+v", pol, seed, a)
					return false
				}
			}
			for _, tid := range sel.Unserved {
				seen[tid]++
			}
			// (1) exact partition of the task list.
			if len(seen) != len(tasks) {
				t.Logf("policy %+v seed %d: partition broken", pol, seed)
				return false
			}
			for _, c := range seen {
				if c != 1 {
					return false
				}
			}
			// (3) budgets respected.
			for node, b := range budget {
				if b > 1+1e-6 {
					t.Logf("policy %+v seed %d: node %d over budget %v", pol, seed, node, b)
					return false
				}
			}
			// (4) no spurious unserved: every unserved task must have
			// all its candidates on saturated nodes.
			for _, tid := range sel.Unserved {
				for _, c := range cands[tid] {
					if budget[c.Node]+c.budgetCost() <= 1+1e-9 {
						t.Logf("policy %+v seed %d: task %s unserved though node %d had budget", pol, seed, tid, c.Node)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestConsolidateShrinksMembersOnAverage checks criterion (c) in
// aggregate: both the consolidation pass and the plain policy are greedy
// heuristics, so no per-instance dominance holds, but across many random
// instances consolidation must yield strictly fewer distinct members in
// total and never lose service coverage.
func TestConsolidateShrinksMembersOnAverage(t *testing.T) {
	var plainMembers, consMembers, plainServed, consServed int
	for seed := int64(0); seed < 500; seed++ {
		tasks, cands := genProblem(seed)
		plain := SelectWinners(tasks, cands, SelectionPolicy{DistanceEps: 0.05, UseCommCost: true})
		cons := SelectWinners(tasks, cands, SelectionPolicy{DistanceEps: 0.05, UseCommCost: true, Consolidate: true})
		plainMembers += len(members(plain))
		consMembers += len(members(cons))
		plainServed += len(plain.Assigned)
		consServed += len(cons.Assigned)
	}
	// Coverage must stay essentially equal (both passes are greedy and
	// can strand a task the other serves; single-round differences are
	// recovered by renegotiation rounds in the full protocol). Allow
	// 0.5% slack, require a real member reduction.
	if float64(consServed) < 0.995*float64(plainServed) {
		t.Errorf("consolidation lost coverage: %d vs %d tasks served", consServed, plainServed)
	}
	if consMembers >= plainMembers {
		t.Errorf("consolidation did not shrink coalitions: %d vs %d total members", consMembers, plainMembers)
	}
	t.Logf("500 instances: members %d (consolidate) vs %d (plain), served %d vs %d",
		consMembers, plainMembers, consServed, plainServed)
}

// TestClusterDeterminism: identical seeds and scenarios must produce
// identical formation outcomes, event counts and radio statistics.
func TestClusterDeterminism(t *testing.T) {
	run := func() (string, uint64) {
		cl := buildClusterForDeterminism(t)
		var res *Result
		svc := deterministicService()
		if _, err := cl.Submit(0, 0, svc, DefaultOrganizerConfig, func(r *Result) {
			if res == nil {
				res = r
			}
		}); err != nil {
			t.Fatal(err)
		}
		cl.Run(10)
		if res == nil {
			t.Fatal("no result")
		}
		sig := fmt.Sprintf("%d|%v|%.9f", res.Rounds, res.Unserved, res.MeanDistance())
		for _, tid := range []string{"s0", "s1", "s2"} {
			if a, ok := res.Assigned[tid]; ok {
				sig += fmt.Sprintf("|%s->%d@%.9f", tid, a.Node, a.Distance)
			}
		}
		return sig, cl.Eng.Processed
	}
	sigA, evA := run()
	sigB, evB := run()
	if sigA != sigB {
		t.Errorf("outcomes differ:\n%s\n%s", sigA, sigB)
	}
	if evA != evB {
		t.Errorf("event counts differ: %d vs %d", evA, evB)
	}
}

// The determinism fixtures are built by hand (package workload would be
// an import cycle from an internal core test).

func detSpec() *qos.Spec {
	return &qos.Spec{
		Name: "det",
		Dimensions: []qos.Dimension{
			{ID: "q", Attributes: []qos.Attribute{
				{ID: "rate", Domain: qos.IntRange(1, 20)},
				{ID: "depth", Domain: qos.DiscreteInts(1, 2, 4, 8)},
			}},
		},
	}
}

func detRequest() qos.Request {
	return qos.Request{
		Service: "det",
		Dims: []qos.DimPref{{
			Dim: "q",
			Attrs: []qos.AttrPref{
				{Attr: "rate", Sets: []qos.ValueSet{qos.Span(20, 5)}},
				{Attr: "depth", Sets: []qos.ValueSet{
					qos.One(qos.Int(8)), qos.One(qos.Int(4)), qos.One(qos.Int(2)),
				}},
			},
		}},
	}
}

func deterministicService() *task.Service {
	svc := &task.Service{ID: "det", Spec: detSpec()}
	for i := 0; i < 3; i++ {
		svc.Tasks = append(svc.Tasks, &task.Task{
			ID:      fmt.Sprintf("s%d", i),
			Request: detRequest(),
			Demand: &task.LinearDemand{
				Base: resource.V(resource.KV{K: resource.CPU, A: 10}),
				Coef: map[qos.AttrKey]resource.Vector{
					{Dim: "q", Attr: "rate"}:  resource.V(resource.KV{K: resource.CPU, A: 4}),
					{Dim: "q", Attr: "depth"}: resource.V(resource.KV{K: resource.Memory, A: 3}),
				},
			},
			InBytes: 4096, OutBytes: 1024,
		})
	}
	return svc
}

func buildClusterForDeterminism(t *testing.T) *Cluster {
	t.Helper()
	cl := NewCluster(99, radio.Config{ProcDelay: 0.001, LossProb: 0.1}, DefaultProviderConfig)
	caps := []float64{60, 100, 200, 150, 90}
	for i, cpu := range caps {
		spec := NodeSpec{
			ID:       radio.NodeID(i),
			Mobility: GridPlacement(i, len(caps), 10),
			RangeM:   80, Bitrate: 2e6,
			Capacity: resource.V(resource.KV{K: resource.CPU, A: cpu}, resource.KV{K: resource.Memory, A: 64}),
		}
		if _, err := cl.AddNode(spec); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}
