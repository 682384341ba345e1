package baseline

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/workload"
)

// traceWith assembles a trace over explicit node capacities. GridSteps
// is kept small so the exhaustive reference enumerator below stays
// tractable on multi-task sessions.
func traceWith(horizon, window float64, caps []resource.Vector, sessions []TraceSession) *Trace {
	tr := &Trace{GridSteps: 2, Horizon: horizon, Window: window, Sessions: sessions}
	for i, c := range caps {
		tr.Nodes = append(tr.Nodes, NodeView{ID: radio.NodeID(i), Res: resource.NewSet(c)})
	}
	return tr
}

// exhaustiveBest is the independent reference for Solve: enumerate every
// accept subset and every per-task (node, stop) placement with no
// pruning, check feasibility at every accepted arrival instant from
// scratch, and return the best total utility. Exponential — test-sized
// traces only.
func exhaustiveBest(t *testing.T, tr *Trace) float64 {
	t.Helper()
	sess := compileTrace(tr)
	caps := make([]resource.Vector, len(tr.Nodes))
	for i, n := range tr.Nodes {
		caps[i] = n.Res.Available()
	}
	accepted := make([]bool, len(sess))
	choice := make([][][2]int, len(sess)) // [session][task] = (node, stop)
	for i := range sess {
		choice[i] = make([][2]int, len(sess[i].tasks))
	}
	feasible := func() bool {
		for i := range sess {
			if !accepted[i] {
				continue
			}
			at := tr.Sessions[i].Arrive
			use := make([]resource.Vector, len(caps))
			for j := range sess {
				if !accepted[j] {
					continue
				}
				sj := tr.Sessions[j]
				if sj.Arrive > at || sj.Arrive+sj.Hold <= at {
					continue
				}
				for ti := range sess[j].tasks {
					ch := choice[j][ti]
					use[ch[0]] = use[ch[0]].Add(sess[j].tasks[ti].stops[ch[1]].Demand)
				}
			}
			for ni := range caps {
				for k := range caps[ni] {
					if use[ni][k] > caps[ni][k] {
						return false
					}
				}
			}
		}
		return true
	}
	var best float64
	var rec func(i int, util float64)
	var placeAll func(i, ti int, util float64)
	placeAll = func(i, ti int, util float64) {
		if ti == len(sess[i].tasks) {
			rec(i+1, util)
			return
		}
		for ni := range caps {
			for si := range sess[i].tasks[ti].stops {
				choice[i][ti] = [2]int{ni, si}
				placeAll(i, ti+1, util+sess[i].tasks[ti].stops[si].Utility)
			}
		}
	}
	rec = func(i int, util float64) {
		if i == len(sess) {
			if feasible() && util > best {
				best = util
			}
			return
		}
		accepted[i] = false
		rec(i+1, util)
		if sess[i].servable {
			accepted[i] = true
			placeAll(i, 0, util)
			accepted[i] = false
		}
	}
	rec(0, 0)
	return best
}

// utilTol compares utilities with the documented float tolerance: the
// search and the reference sum stop utilities in different orders, so
// bitwise equality is not the contract (see cvSearch.search).
func utilTol(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

// TestClairvoyantAmpleCapacityAdmitsAll: with one node far larger than
// everything the trace could ever hold at once, the hindsight optimum
// is to admit every session at its best stop — Solve's utility is the
// sum of session maxima, every session is accepted, and the knapsack
// Bound collapses to the same total (no budget binds).
func TestClairvoyantAmpleCapacityAdmitsAll(t *testing.T) {
	big := workload.AccessPoint.Capacity.Scale(100)
	tr := traceWith(100, 0, []resource.Vector{big}, []TraceSession{
		{Arrive: 0, Hold: 50, Service: workload.StreamService("a", 1, 1.0)},
		{Arrive: 10, Hold: 50, Service: workload.StreamService("b", 2, 1.0)},
		{Arrive: 20, Hold: 50, Service: workload.StreamService("c", 1, 0.5)},
	})
	sched, err := Clairvoyant{}.Solve(tr)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, cs := range compileTrace(tr) {
		want += cs.maxU
	}
	if want <= 0 {
		t.Fatal("degenerate trace: no utility available")
	}
	for i, acc := range sched.Accepted {
		if !acc {
			t.Errorf("session %d rejected despite ample capacity", i)
		}
	}
	if !utilTol(sched.Utility, want) {
		t.Errorf("Solve utility %g, want sum of maxima %g", sched.Utility, want)
	}
	bound, err := Clairvoyant{}.Bound(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !utilTol(bound, want) {
		t.Errorf("Bound %g, want unconstrained total %g", bound, want)
	}
}

// TestClairvoyantSolveMatchesExhaustive differentially tests the
// branch-and-bound against the pruning-free enumerator over randomized
// hand-sized traces: 2-3 sessions, 1-2 tasks, 1-2 nodes, overlapping
// holds, capacities tight enough that rejection and degradation both
// happen.
func TestClairvoyantSolveMatchesExhaustive(t *testing.T) {
	capsPool := []resource.Vector{
		workload.Phone.Capacity, workload.Laptop.Capacity, workload.AccessPoint.Capacity,
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var caps []resource.Vector
		for n := 1 + rng.Intn(2); n > 0; n-- {
			caps = append(caps, capsPool[rng.Intn(len(capsPool))])
		}
		nSess := 2 + rng.Intn(2)
		var sessions []TraceSession
		for i := 0; i < nSess; i++ {
			tasks := 1
			if nSess == 2 && rng.Intn(2) == 1 {
				tasks = 2 // keep the enumerator's cross-product tractable
			}
			scale := []float64{0.5, 1, 2}[rng.Intn(3)]
			sessions = append(sessions, TraceSession{
				Arrive:  float64(i * 10),
				Hold:    15 + 30*rng.Float64(),
				Service: workload.StreamService("s", tasks, scale),
			})
		}
		tr := traceWith(100, 0, caps, sessions)
		sched, err := Clairvoyant{}.Solve(tr)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := exhaustiveBest(t, tr)
		if !utilTol(sched.Utility, want) {
			t.Fatalf("seed %d: Solve utility %g, exhaustive best %g", seed, sched.Utility, want)
		}
	}
}

// TestClairvoyantSolveWithinBound: the polynomial relaxation really is
// a relaxation — the exact optimum never exceeds it, across randomized
// traces with nonzero windows.
func TestClairvoyantSolveWithinBound(t *testing.T) {
	capsPool := []resource.Vector{
		workload.Phone.Capacity, workload.Laptop.Capacity, workload.AccessPoint.Capacity,
	}
	for seed := int64(100); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var caps []resource.Vector
		for n := 1 + rng.Intn(2); n > 0; n-- {
			caps = append(caps, capsPool[rng.Intn(len(capsPool))])
		}
		var sessions []TraceSession
		for i, n := 0, 2+rng.Intn(2); i < n; i++ {
			sessions = append(sessions, TraceSession{
				Arrive:  30 * rng.Float64(),
				Hold:    10 + 40*rng.Float64(),
				Service: workload.StreamService("s", 1+rng.Intn(2), []float64{0.5, 1, 2}[rng.Intn(3)]),
			})
		}
		tr := traceWith(120, 10*rng.Float64(), caps, sessions)
		sched, err := Clairvoyant{MaxNodes: 20_000_000}.Solve(tr)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bound, err := Clairvoyant{}.Bound(tr)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sched.Utility > bound*(1+1e-9)+1e-9 {
			t.Fatalf("seed %d: Solve %g beats Bound %g", seed, sched.Utility, bound)
		}
	}
}

// TestClairvoyantSolveDeterministic: same trace, same schedule — the
// accept-first, strictly-improving search has no hidden iteration-order
// dependence.
func TestClairvoyantSolveDeterministic(t *testing.T) {
	mk := func() *Trace {
		return traceWith(100, 0,
			[]resource.Vector{workload.Laptop.Capacity, workload.Phone.Capacity},
			[]TraceSession{
				{Arrive: 0, Hold: 40, Service: workload.StreamService("a", 2, 1.0)},
				{Arrive: 5, Hold: 40, Service: workload.StreamService("b", 2, 1.0)},
				{Arrive: 10, Hold: 40, Service: workload.StreamService("c", 1, 2.0)},
			})
	}
	first, err := Clairvoyant{}.Solve(mk())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := Clairvoyant{}.Solve(mk())
		if err != nil {
			t.Fatal(err)
		}
		if again.Utility != first.Utility || again.Explored != first.Explored {
			t.Fatalf("run %d differs: (%g, %d) vs (%g, %d)",
				i, again.Utility, again.Explored, first.Utility, first.Explored)
		}
		for j := range first.Accepted {
			if first.Accepted[j] != again.Accepted[j] {
				t.Fatalf("run %d: acceptance of session %d flipped", i, j)
			}
		}
	}
}

// TestClairvoyantBudgetAndValidation: the node budget errors out rather
// than silently truncating the search, and Bound rejects unusable
// horizons/windows.
func TestClairvoyantBudgetAndValidation(t *testing.T) {
	tr := traceWith(100, 0,
		[]resource.Vector{workload.AccessPoint.Capacity, workload.Laptop.Capacity},
		[]TraceSession{
			{Arrive: 0, Hold: 40, Service: workload.StreamService("a", 2, 1.0)},
			{Arrive: 5, Hold: 40, Service: workload.StreamService("b", 2, 1.0)},
		})
	if _, err := (Clairvoyant{MaxNodes: 3}).Solve(tr); err == nil {
		t.Error("MaxNodes=3 search completed; want budget error")
	}
	if _, err := (Clairvoyant{}).Bound(&Trace{Horizon: 0}); err == nil {
		t.Error("Bound accepted a zero horizon")
	}
	if _, err := (Clairvoyant{}).Bound(&Trace{Horizon: 10, Window: -1}); err == nil {
		t.Error("Bound accepted a negative window")
	}
}
