package core

import (
	"math"
	"sort"

	"repro/internal/qos"
	"repro/internal/radio"
)

// Candidate is one node's offer for one task, annotated by the organizer
// with its evaluation (Section 6 distance) and communication cost.
type Candidate struct {
	Node     radio.NodeID
	TaskID   string
	Level    qos.Level
	Reward   float64
	Distance float64
	CommCost float64
	// Copies is the provider's capacity hint: how many tasks of this
	// demand it could hold concurrently at proposal time (>= 1). The
	// organizer never stacks more than the hinted capacity onto a node,
	// which keeps award declines (and renegotiation rounds) rare. This
	// is a protocol refinement over the paper, which leaves the
	// organizer blind to provider capacity (see DESIGN.md).
	Copies int
}

// budgetCost is the budget fraction one selected task consumes on its
// node: 1/Copies of the node's (task-shaped) capacity.
func (c Candidate) budgetCost() float64 {
	if c.Copies <= 1 {
		return 1
	}
	return 1 / float64(c.Copies)
}

// SelectionPolicy configures winner selection. The paper forms the
// coalition from the proposal set with (a) lowest evaluation value,
// (b) lowest communication cost, and (c) lowest number of distinct nodes.
// (a) always applies; (b) orders candidates within DistanceEps of each
// other; (c) is a greedy consolidation pass that packs tasks onto as few
// members as capacity hints allow, among candidates within DistanceEps of
// each task's best.
type SelectionPolicy struct {
	// DistanceEps is the evaluation-value tolerance within which two
	// proposals are considered equally good, enabling the secondary
	// criteria. Zero means strict lexicographic comparison.
	DistanceEps float64
	// UseCommCost enables criterion (b).
	UseCommCost bool
	// Consolidate enables criterion (c).
	Consolidate bool
	// Spread inverts criterion (c): among candidates within DistanceEps
	// of a task's best, prefer the node with the most remaining
	// capacity budget (classic load balancing). Mutually exclusive with
	// Consolidate; used by the E4 ablation to quantify what criterion
	// (c) buys.
	Spread bool
}

// DefaultPolicy applies all three of the paper's criteria with a small
// distance tolerance.
var DefaultPolicy = SelectionPolicy{DistanceEps: 0.05, UseCommCost: true, Consolidate: true}

// Assignment3 is the selected allocation for one task.
type Assignment3 struct {
	TaskID   string
	Node     radio.NodeID
	Level    qos.Level
	Distance float64
	CommCost float64
}

// Selection is the outcome of winner selection across a service's tasks.
type Selection struct {
	Assigned []Assignment3
	// Unserved lists tasks with no admissible proposal (or whose
	// proposers ran out of hinted capacity this round; they renegotiate).
	Unserved []string
}

// budget tracks per-node packed capacity during selection.
type budget map[radio.NodeID]float64

const budgetSlack = 1e-9

func (b budget) fits(c Candidate) bool {
	return b[c.Node]+c.budgetCost() <= 1+budgetSlack
}

func (b budget) take(c Candidate) { b[c.Node] += c.budgetCost() }

// SelectWinners picks, for every task with at least one candidate, the
// winning proposal under the policy. Candidates must already be
// admissible and annotated with Distance, CommCost and Copies; taskOrder
// fixes the deterministic processing order.
func SelectWinners(taskOrder []string, candidates map[string][]Candidate, policy SelectionPolicy) *Selection {
	sel := &Selection{}
	used := make(budget)
	chosen := make(map[string]Candidate, len(taskOrder))

	// bestDist per task sets the eligibility band for the secondary
	// criteria.
	bestDist := make(map[string]float64, len(taskOrder))
	for _, tid := range taskOrder {
		cands := candidates[tid]
		if len(cands) == 0 {
			continue
		}
		best := math.Inf(1)
		for _, c := range cands {
			if c.Distance < best {
				best = c.Distance
			}
		}
		bestDist[tid] = best
	}

	var open []string // tasks not yet assigned
	for _, tid := range taskOrder {
		if _, ok := bestDist[tid]; ok {
			open = append(open, tid)
		} else {
			sel.Unserved = append(sel.Unserved, tid)
		}
	}

	if policy.Consolidate {
		open = consolidate(open, candidates, bestDist, policy, used, chosen)
	}

	// Per-task assignment for whatever consolidation left open (or all
	// tasks when consolidation is off): best candidate with available
	// budget, ordered by the paper's criteria (or by remaining budget
	// when spreading).
	for _, tid := range open {
		ordered := append([]Candidate(nil), candidates[tid]...)
		sort.Slice(ordered, func(i, j int) bool {
			return candidateLess(ordered[i], ordered[j], policy)
		})
		if policy.Spread && len(ordered) > 0 {
			band := bestDist[tid] + policy.DistanceEps
			sort.SliceStable(ordered, func(i, j int) bool {
				ini, inj := ordered[i].Distance <= band, ordered[j].Distance <= band
				if ini != inj {
					return ini
				}
				if !ini {
					return false
				}
				return used[ordered[i].Node] < used[ordered[j].Node]
			})
		}
		assigned := false
		for _, c := range ordered {
			if !used.fits(c) {
				continue
			}
			used.take(c)
			chosen[tid] = c
			assigned = true
			break
		}
		if !assigned {
			sel.Unserved = append(sel.Unserved, tid)
		}
	}

	for _, tid := range taskOrder {
		c, ok := chosen[tid]
		if !ok {
			continue
		}
		sel.Assigned = append(sel.Assigned, Assignment3{
			TaskID: tid, Node: c.Node, Level: c.Level,
			Distance: c.Distance, CommCost: c.CommCost,
		})
	}
	return sel
}

// candidateLess orders candidates by the paper's criteria: evaluation
// value first; within DistanceEps, communication cost (when enabled);
// then node ID for determinism.
func candidateLess(a, b Candidate, p SelectionPolicy) bool {
	if math.Abs(a.Distance-b.Distance) > p.DistanceEps {
		return a.Distance < b.Distance
	}
	if p.UseCommCost && a.CommCost != b.CommCost {
		return a.CommCost < b.CommCost
	}
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.Node < b.Node
}

// consolidate implements criterion (c) — "lowest number of distinct nodes
// in coalition; coalition operation's complexity increases with the
// number of distinct members" — as a greedy set-cover: repeatedly pick
// the node that can absorb the most still-open tasks (only candidates
// within DistanceEps of each task's best are eligible, so criterion (a)
// keeps priority), assign them, and continue until no node can absorb
// two or more tasks. Remaining tasks fall through to per-task selection.
// Returns the tasks still open.
func consolidate(open []string, candidates map[string][]Candidate, bestDist map[string]float64, p SelectionPolicy, used budget, chosen map[string]Candidate) []string {
	remaining := append([]string(nil), open...)
	for {
		// For every node, collect the eligible candidate per open task.
		byNode := make(map[radio.NodeID]*pack)
		for _, tid := range remaining {
			for _, c := range candidates[tid] {
				if c.Distance > bestDist[tid]+p.DistanceEps {
					continue
				}
				pk := byNode[c.Node]
				if pk == nil {
					pk = &pack{node: c.Node, cands: make(map[string]Candidate)}
					byNode[c.Node] = pk
				}
				// Keep the best-evaluating offer per (node, task).
				if old, ok := pk.cands[tid]; !ok || candidateLess(c, old, p) {
					pk.cands[tid] = c
				}
			}
		}
		// Fill each node greedily within its remaining budget, tasks in
		// declaration order for determinism.
		var best *pack
		for _, pk := range byNode {
			b := used[pk.node]
			for _, tid := range remaining {
				c, ok := pk.cands[tid]
				if !ok {
					continue
				}
				if b+c.budgetCost() > 1+budgetSlack {
					continue
				}
				b += c.budgetCost()
				pk.tasks = append(pk.tasks, tid)
				pk.dist += c.Distance
				pk.comm += c.CommCost
			}
			if len(pk.tasks) == 0 {
				continue
			}
			if best == nil || packLess(pk, best, p) {
				best = pk
			}
		}
		// Stop when no node absorbs more than one task: per-task
		// selection handles the rest at least as well.
		if best == nil || len(best.tasks) < 2 {
			return remaining
		}
		for _, tid := range best.tasks {
			c := best.cands[tid]
			used.take(c)
			chosen[tid] = c
		}
		var left []string
		for _, tid := range remaining {
			if _, ok := chosen[tid]; !ok {
				left = append(left, tid)
			}
		}
		remaining = left
		if len(remaining) == 0 {
			return nil
		}
	}
}

// pack is one node's potential absorption of open tasks during the
// consolidation pass.
type pack struct {
	node  radio.NodeID
	tasks []string
	cands map[string]Candidate
	dist  float64
	comm  float64
}

// packLess ranks consolidation packs: absorb more tasks; then lower total
// distance; then lower communication cost (when enabled); then node ID.
func packLess(a, b *pack, p SelectionPolicy) bool {
	if len(a.tasks) != len(b.tasks) {
		return len(a.tasks) > len(b.tasks)
	}
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if p.UseCommCost && a.comm != b.comm {
		return a.comm < b.comm
	}
	return a.node < b.node
}
