// Package baseline implements the comparison allocators the experiments
// measure the coalition protocol against. The paper publishes no
// baselines; these are the standard strawmen its prose argues against:
//
//   - LocalOnly: no cooperation — the requesting node serves everything
//     itself (the "single node cannot execute a specific service" case).
//   - Random: cooperation without evaluation — any admissible proposal
//     wins, ignoring the Section 6 distance.
//   - Greedy: first-fit — the first node able to serve a task gets it,
//     ignoring quality comparison across proposals.
//   - Optimal: the argmin assignment minimizing (unserved, total
//     distance, members) under the same resource feasibility, found by
//     depth-first branch-and-bound with admissible per-task distance
//     bounds; used to measure the protocol's optimality gap.
//   - OptimalExhaustive: the plain cross-product enumerator Optimal
//     replaced — kept as the oracle the branch-and-bound is asserted
//     against on small instances, and as the tractability strawman of
//     experiment E16.
//
// Baselines run offline against a snapshot of node resources: they answer
// "who would serve what, at which level" without exchanging messages.
package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/task"
)

// NodeView is the allocator's snapshot of one candidate node.
type NodeView struct {
	ID  radio.NodeID
	Res *resource.Set
	// CommCost estimates moving the task's data to this node (seconds);
	// the organizer node has cost 0.
	CommCost float64
}

// Problem is one allocation instance.
type Problem struct {
	Service *task.Service
	// Organizer indexes into Nodes: the requesting node.
	Organizer radio.NodeID
	Nodes     []NodeView
	// GridSteps mirrors the provider configuration.
	GridSteps int
}

// TaskAlloc is one task's outcome.
type TaskAlloc struct {
	TaskID   string
	Node     radio.NodeID
	Level    qos.Level
	Distance float64
	Reward   float64
}

// Allocation is an allocator's answer.
type Allocation struct {
	Assigned []TaskAlloc
	Unserved []string
}

// Complete reports whether every task was served.
func (a *Allocation) Complete() bool { return len(a.Unserved) == 0 }

// Equal reports whether two allocations are identical: same assignment
// order, same task->node placements with bit-equal distances and
// rewards, same unserved list. It is the single definition of
// "identical allocation" shared by the branch-and-bound oracle test
// and experiment E16's enum-agrees column.
func (a *Allocation) Equal(b *Allocation) bool {
	if len(a.Assigned) != len(b.Assigned) || len(a.Unserved) != len(b.Unserved) {
		return false
	}
	for i := range a.Assigned {
		x, y := a.Assigned[i], b.Assigned[i]
		if x.TaskID != y.TaskID || x.Node != y.Node || x.Distance != y.Distance ||
			x.Reward != y.Reward || !x.Level.Equal(y.Level) {
			return false
		}
	}
	for i := range a.Unserved {
		if a.Unserved[i] != b.Unserved[i] {
			return false
		}
	}
	return true
}

// MeanDistance averages the evaluation value over served tasks.
func (a *Allocation) MeanDistance() float64 {
	if len(a.Assigned) == 0 {
		return 0
	}
	var t float64
	for _, x := range a.Assigned {
		t += x.Distance
	}
	return t / float64(len(a.Assigned))
}

// Members counts distinct serving nodes.
func (a *Allocation) Members() int {
	seen := make(map[radio.NodeID]bool)
	for _, x := range a.Assigned {
		seen[x.Node] = true
	}
	return len(seen)
}

// Allocator is the common baseline interface.
type Allocator interface {
	Name() string
	Allocate(p *Problem) (*Allocation, error)
}

// evaluatorFor builds the Section 6 evaluator for a task.
func evaluatorFor(p *Problem, t *task.Task) (*qos.Evaluator, error) {
	return qos.NewEvaluator(p.Service.Spec, &t.Request)
}

// compileTask compiles one task's formulation problem; allocators do it
// once per task and formulate against as many nodes as they probe.
func compileTask(p *Problem, t *task.Task) (*core.CompiledProblem, error) {
	return core.CompileProblem(p.Service.Spec, &t.Request, t.Demand, p.GridSteps, nil)
}

// formulateOn runs the provider-side heuristic for a task against one
// node's snapshot, reserving on success so that subsequent tasks see the
// reduced availability (mirrors award-time reservation).
func formulateOn(p *Problem, cp *core.CompiledProblem, n NodeView, t *task.Task) (*core.Formulation, error) {
	f, err := cp.Formulate(n.Res.CanReserve)
	if err != nil {
		return nil, err
	}
	id := resource.ReservationID(p.Service.ID + "/" + t.ID)
	if rerr := n.Res.Reserve(id, f.Demand); rerr != nil {
		return nil, rerr
	}
	return f, nil
}

// firstFit serves each task on the first node, in the order probe()
// yields for it, whose formulation succeeds: compiled once per task,
// formulated once per probed node. It is the shared body of the three
// quality-blind allocators, which differ only in the probe order.
func firstFit(p *Problem, probe func() []NodeView) (*Allocation, error) {
	out := &Allocation{}
	for _, t := range p.Service.Tasks {
		eval, err := evaluatorFor(p, t)
		if err != nil {
			return nil, err
		}
		// Probed for every task, compilable or not: Random's stream must
		// not depend on which tasks are servable.
		nodes := probe()
		cp, err := compileTask(p, t)
		if err != nil {
			out.Unserved = append(out.Unserved, t.ID) // unservable on every node
			continue
		}
		served := false
		for _, n := range nodes {
			f, ferr := formulateOn(p, cp, n, t)
			if ferr != nil {
				continue
			}
			d, derr := eval.Distance(f.Level)
			if derr != nil {
				return nil, derr
			}
			out.Assigned = append(out.Assigned, TaskAlloc{
				TaskID: t.ID, Node: n.ID, Level: f.Level, Distance: d, Reward: f.Reward,
			})
			served = true
			break
		}
		if !served {
			out.Unserved = append(out.Unserved, t.ID)
		}
	}
	return out, nil
}

// LocalOnly serves every task on the organizer node.
type LocalOnly struct{}

// Name implements Allocator.
func (LocalOnly) Name() string { return "local-only" }

// Allocate implements Allocator.
func (LocalOnly) Allocate(p *Problem) (*Allocation, error) {
	for i := range p.Nodes {
		if p.Nodes[i].ID == p.Organizer {
			organizer := p.Nodes[i : i+1]
			return firstFit(p, func() []NodeView { return organizer })
		}
	}
	return nil, fmt.Errorf("baseline: organizer %d not among nodes", p.Organizer)
}

// Random picks a uniformly random node that can serve each task.
type Random struct {
	Rng *rand.Rand
}

// Name implements Allocator.
func (Random) Name() string { return "random" }

// Allocate implements Allocator.
func (r Random) Allocate(p *Problem) (*Allocation, error) {
	rng := r.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	nodes := make([]NodeView, len(p.Nodes))
	return firstFit(p, func() []NodeView {
		for i, idx := range rng.Perm(len(p.Nodes)) {
			nodes[i] = p.Nodes[idx]
		}
		return nodes
	})
}

// Greedy assigns each task to the first node (by ID) that can serve it at
// any acceptable level — first-fit without quality comparison.
type Greedy struct{}

// Name implements Allocator.
func (Greedy) Name() string { return "greedy-first-fit" }

// Allocate implements Allocator.
func (Greedy) Allocate(p *Problem) (*Allocation, error) {
	nodes := append([]NodeView(nil), p.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	return firstFit(p, func() []NodeView { return nodes })
}

// Optimal finds the feasible task->node assignment minimizing
// (unserved count, total distance, member count), serving each assigned
// task at the node's heuristically formulated level. Where the old
// cross-product enumerator (kept as OptimalExhaustive) re-formulated
// every task at every one of (len(Nodes)+1)^len(Tasks) leaves, Optimal
// runs a depth-first branch-and-bound: tasks are compiled once,
// formulations happen incrementally along the search tree with exact
// backtracking, and subtrees that provably cannot beat the incumbent
// are pruned using admissible per-task distance lower bounds (the
// minimum evaluation over the task's availability-independent
// degradation path).
//
// Children are explored in the enumerator's order and the incumbent
// only improves on a strictly smaller key, so the returned argmin is
// identical to OptimalExhaustive's (asserted by TestOptimalMatchesExhaustive);
// a best-first child order would be faster on some instances but could
// return a different tie, breaking that oracle.
type Optimal struct {
	// MaxNodes bounds the number of explored search-tree edges
	// (default 1e6) — the effort guard replacing the enumerator's
	// search-space precheck, since the whole point of pruning is that
	// the explored tree is vastly smaller than the cross-product.
	MaxNodes int64
}

// Name implements Allocator.
func (Optimal) Name() string { return "optimal-bnb" }

// bnbNode is the branch-and-bound's exact replica of one node's scratch
// resource state. It performs the same admission comparisons as
// resource.Set (CanReserve: available < demand; Reserve:
// reserved+demand > capacity, per kind) and accumulates per-kind
// reservations in task order, so any search prefix sees bit-identical
// availability to the enumerator's fresh per-leaf scratch sets — but
// backtracking restores a saved copy of the reserved vector instead of
// subtracting, which a float ledger could not do exactly.
type bnbNode struct {
	cap      resource.Vector
	reserved resource.Vector
}

func (n *bnbNode) canReserve(d resource.Vector) bool {
	for i := range d {
		if d[i] > 0 && n.cap[i]-n.reserved[i] < d[i] {
			return false
		}
	}
	return true
}

// reserve admits d all-or-nothing, mirroring resource.Set.Reserve's
// checks; the caller restores the previous reserved vector to backtrack.
func (n *bnbNode) reserve(d resource.Vector) bool {
	if !d.Nonnegative() {
		return false
	}
	for i := range d {
		if d[i] > 0 && n.reserved[i]+d[i] > n.cap[i] {
			return false
		}
	}
	for i := range d {
		n.reserved[i] += d[i]
	}
	return true
}

// bnbSearch carries the depth-first state.
type bnbSearch struct {
	p      *Problem
	cps    []*core.CompiledProblem // nil = task cannot be compiled, never servable
	lbs    []float64               // admissible per-task distance lower bounds
	nodes  []bnbNode
	assign []int
	usage  []int // tasks currently placed per node

	unserved int
	dist     float64
	members  int

	best     []int
	bestKey  [3]float64
	explored int64
	maxNodes int64
}

// Allocate implements Allocator.
func (o Optimal) Allocate(p *Problem) (*Allocation, error) {
	a, _, err := o.AllocateCounted(p)
	return a, err
}

// AllocateCounted is Allocate plus the number of explored search-tree
// edges — experiment E16 reports it against the enumerator's
// cross-product size to show how much the bounds prune.
func (o Optimal) AllocateCounted(p *Problem) (*Allocation, int64, error) {
	nT := len(p.Service.Tasks)
	nN := len(p.Nodes)
	evals := make([]*qos.Evaluator, nT)
	for i, t := range p.Service.Tasks {
		e, err := evaluatorFor(p, t)
		if err != nil {
			return nil, 0, err
		}
		evals[i] = e
	}
	s := &bnbSearch{
		p:        p,
		cps:      make([]*core.CompiledProblem, nT),
		lbs:      make([]float64, nT),
		nodes:    make([]bnbNode, nN),
		assign:   make([]int, nT),
		usage:    make([]int, nN),
		bestKey:  [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)},
		maxNodes: o.MaxNodes,
	}
	if s.maxNodes == 0 {
		s.maxNodes = 1_000_000
	}
	for i, t := range p.Service.Tasks {
		// A task whose problem does not compile is exactly as servable
		// as one whose formulation fails on every node: not at all. The
		// enumerator treats both as infeasible branches, not errors.
		if cp, err := compileTask(p, t); err == nil {
			s.cps[i] = cp
		}
	}
	for i, n := range p.Nodes {
		s.nodes[i] = bnbNode{cap: n.Res.Available()}
	}
	for i := range s.lbs {
		s.lbs[i] = taskDistanceLB(s.cps[i])
	}
	if err := s.search(0); err != nil {
		return nil, 0, err
	}
	if s.best == nil {
		return &Allocation{Unserved: taskIDs(p)}, s.explored, nil
	}
	a, err := materialize(p, evals, s.cps, s.best)
	return a, s.explored, err
}

// taskDistanceLB is the admissible per-task bound: the minimum Section 6
// evaluation over the dependency-consistent stops of the degradation
// path. Formulate returns some such stop regardless of the node's
// availability, so no branch can serve the task at a smaller distance.
// +Inf (no compiled problem, or no consistent stop) means the task can
// never be served — which prunes exactly the completions that would try.
func taskDistanceLB(cp *core.CompiledProblem) float64 {
	lb := math.Inf(1)
	if cp == nil {
		return lb
	}
	for i := range cp.Path {
		if d := cp.Path[i].Distance; d < lb {
			lb = d
		}
	}
	return lb
}

// search explores task ti's choices in enumerator order, pruning
// subtrees whose lexicographic lower bound cannot strictly beat the
// incumbent. Every completion of the current prefix has key[0] >=
// unserved; among those with key[0] == unserved (all remaining tasks
// served) the distance is >= bound and the member count is >= members.
// Completions with more unserved tasks lose on key[0] whenever the
// prefix already ties the incumbent, so the three checks below never
// cut a strictly-better leaf.
//
// bound is computed as the left-fold of the per-task lower bounds in
// task order, starting from the prefix distance — the same summation
// shape a leaf uses for its actual distances. Float addition is
// monotone non-decreasing in each argument and lbs[j] <= d_j bitwise
// (the bound is the min over the stops Formulate can return), so by
// induction the folded bound never exceeds any completion's folded
// distance: admissible down to the last ulp, with no epsilon slack to
// blunt the exact-tie member prune that symmetric instances rely on.
func (s *bnbSearch) search(ti int) error {
	nT := len(s.p.Service.Tasks)
	if ti == nT {
		key := [3]float64{float64(s.unserved), s.dist, float64(s.members)}
		if lessKey(key, s.bestKey) {
			s.bestKey = key
			s.best = append(s.best[:0], s.assign...)
		}
		return nil
	}
	if float64(s.unserved) > s.bestKey[0] {
		return nil
	}
	if float64(s.unserved) == s.bestKey[0] {
		bound := s.dist
		for j := ti; j < nT; j++ {
			bound += s.lbs[j]
		}
		if bound > s.bestKey[1] {
			return nil
		}
		if bound == s.bestKey[1] && float64(s.members) >= s.bestKey[2] {
			return nil
		}
	}
	nN := len(s.p.Nodes)
	for choice := 0; choice <= nN; choice++ {
		s.explored++
		if s.explored > s.maxNodes {
			return fmt.Errorf("baseline: optimal search explored more than %d nodes", s.maxNodes)
		}
		s.assign[ti] = choice
		if choice == nN { // leave the task unserved
			s.unserved++
			if err := s.search(ti + 1); err != nil {
				return err
			}
			s.unserved--
			continue
		}
		cp := s.cps[ti]
		if cp == nil {
			continue
		}
		node := &s.nodes[choice]
		f, err := cp.Formulate(node.canReserve)
		if err != nil {
			continue // not servable here under the current prefix
		}
		saved := node.reserved
		if !node.reserve(f.Demand) {
			continue
		}
		prevDist := s.dist
		s.dist = prevDist + cp.C.Distance(f.Assignment)
		s.usage[choice]++
		if s.usage[choice] == 1 {
			s.members++
		}
		err = s.search(ti + 1)
		s.usage[choice]--
		if s.usage[choice] == 0 {
			s.members--
		}
		s.dist = prevDist
		node.reserved = saved
		if err != nil {
			return err
		}
	}
	return nil
}

// OptimalExhaustive is the cross-product enumerator Optimal replaced:
// it scores every complete task->node assignment by re-formulating all
// tasks against fresh scratch resources. Exponential in tasks —
// (len(Nodes)+1)^len(Tasks) leaves — so it refuses search spaces above
// MaxCombinations; it survives as the oracle for Optimal's argmin and
// as experiment E16's tractability strawman.
type OptimalExhaustive struct {
	// MaxCombinations bounds the search space (default 1e6).
	MaxCombinations int64
}

// Name implements Allocator.
func (OptimalExhaustive) Name() string { return "optimal-exhaustive" }

// Allocate implements Allocator.
func (o OptimalExhaustive) Allocate(p *Problem) (*Allocation, error) {
	maxC := o.MaxCombinations
	if maxC == 0 {
		maxC = 1_000_000
	}
	nT := len(p.Service.Tasks)
	nN := len(p.Nodes)
	combos := int64(1)
	for i := 0; i < nT; i++ {
		combos *= int64(nN + 1) // +1 = leave task unserved
		if combos > maxC {
			return nil, fmt.Errorf("baseline: optimal search space exceeds %d", maxC)
		}
	}
	evals := make([]*qos.Evaluator, nT)
	for i, t := range p.Service.Tasks {
		e, err := evaluatorFor(p, t)
		if err != nil {
			return nil, err
		}
		evals[i] = e
	}
	// Compile each task once; re-running BuildLadder + table compilation
	// at every one of the (nN+1)^nT leaves would make the enumerator an
	// unfairly slow strawman. A task that fails to compile is unservable
	// on every node, exactly like a task whose formulation always fails.
	cps := make([]*core.CompiledProblem, nT)
	for i, t := range p.Service.Tasks {
		if cp, err := compileTask(p, t); err == nil {
			cps[i] = cp
		}
	}

	assign := make([]int, nT) // node index per task; nN == unserved
	var best []int
	bestKey := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}

	var recurse func(ti int) error
	recurse = func(ti int) error {
		if ti == nT {
			key, ok, err := o.scoreAssign(p, evals, cps, assign)
			if err != nil {
				return err
			}
			if ok && lessKey(key, bestKey) {
				bestKey = key
				best = append([]int(nil), assign...)
			}
			return nil
		}
		for choice := 0; choice <= nN; choice++ {
			assign[ti] = choice
			if err := recurse(ti + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := recurse(0); err != nil {
		return nil, err
	}
	if best == nil {
		return &Allocation{Unserved: taskIDs(p)}, nil
	}
	return materialize(p, evals, cps, best)
}

func lessKey(a, b [3]float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// scoreAssign tests feasibility of one complete assignment by actually
// reserving on scratch copies, returning (unserved, totalDistance,
// members).
func (o OptimalExhaustive) scoreAssign(p *Problem, evals []*qos.Evaluator, cps []*core.CompiledProblem, assign []int) ([3]float64, bool, error) {
	scratch := make([]*resource.Set, len(p.Nodes))
	for i, n := range p.Nodes {
		scratch[i] = resource.NewSet(n.Res.Available())
	}
	unserved := 0
	var total float64
	members := make(map[int]bool)
	for ti, t := range p.Service.Tasks {
		choice := assign[ti]
		if choice == len(p.Nodes) {
			unserved++
			continue
		}
		if cps[ti] == nil {
			return [3]float64{}, false, nil // task cannot be served anywhere
		}
		f, err := cps[ti].Formulate(scratch[choice].CanReserve)
		if err != nil {
			return [3]float64{}, false, nil // infeasible branch
		}
		id := resource.ReservationID(fmt.Sprintf("opt/%d/%s", ti, t.ID))
		if err := scratch[choice].Reserve(id, f.Demand); err != nil {
			return [3]float64{}, false, nil
		}
		d, err := evals[ti].Distance(f.Level)
		if err != nil {
			return [3]float64{}, false, err
		}
		total += d
		members[choice] = true
	}
	return [3]float64{float64(unserved), total, float64(len(members))}, true, nil
}

// materialize re-runs the winning assignment against the real node sets.
func materialize(p *Problem, evals []*qos.Evaluator, cps []*core.CompiledProblem, assign []int) (*Allocation, error) {
	out := &Allocation{}
	for ti, t := range p.Service.Tasks {
		choice := assign[ti]
		if choice == len(p.Nodes) {
			out.Unserved = append(out.Unserved, t.ID)
			continue
		}
		n := p.Nodes[choice]
		f, err := formulateOn(p, cps[ti], n, t)
		if err != nil {
			out.Unserved = append(out.Unserved, t.ID)
			continue
		}
		d, err := evals[ti].Distance(f.Level)
		if err != nil {
			return nil, err
		}
		out.Assigned = append(out.Assigned, TaskAlloc{
			TaskID: t.ID, Node: n.ID, Level: f.Level, Distance: d, Reward: f.Reward,
		})
	}
	return out, nil
}

func taskIDs(p *Problem) []string {
	out := make([]string, len(p.Service.Tasks))
	for i, t := range p.Service.Tasks {
		out[i] = t.ID
	}
	return out
}

// SnapshotProblem builds a Problem from a live cluster: each node's
// current availability becomes an independent scratch resource set, so
// allocations never disturb the cluster.
func SnapshotProblem(svc *task.Service, organizer radio.NodeID, nodes map[radio.NodeID]*resource.Set, comm func(radio.NodeID) float64, gridSteps int) *Problem {
	p := &Problem{Service: svc, Organizer: organizer, GridSteps: gridSteps}
	ids := make([]radio.NodeID, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		cost := 0.0
		if comm != nil {
			cost = comm(id)
		}
		p.Nodes = append(p.Nodes, NodeView{
			ID:       id,
			Res:      resource.NewSet(nodes[id].Available()),
			CommCost: cost,
		})
	}
	return p
}
