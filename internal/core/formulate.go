// Package core implements the paper's primary contribution: dynamic
// QoS-aware coalition formation. It contains the local proposal
// formulation heuristic (Section 5), the multi-attribute proposal
// evaluation and winner selection with the paper's three criteria
// (Section 4.2/6), the Negotiation Organizer and QoS Provider state
// machines, and the coalition life cycle (formation, operation with
// failure-driven reconfiguration, dissolution).
package core

import (
	"errors"
	"fmt"

	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/task"
)

// ErrNoFeasibleLevel is returned when every degradation path is exhausted
// and no acceptable QoS level fits the node's available resources.
var ErrNoFeasibleLevel = errors.New("core: no acceptable QoS level is schedulable")

// Formulation is the outcome of the local QoS optimization heuristic: the
// least-degraded schedulable level, its reward (eq. 1), and the resource
// demand the level implies.
type Formulation struct {
	Level        qos.Level
	Assignment   qos.Assignment
	Ladder       *qos.Ladder
	Reward       float64
	Demand       resource.Vector
	Degradations int
}

// AvailFunc answers whether a demand vector is currently schedulable on
// the node; typically (*resource.Set).CanReserve.
type AvailFunc func(resource.Vector) bool

// CompiledProblem is one (spec, request, demand model, gridSteps,
// penalty) formulation instance with every per-request invariant
// precomputed: the degradation ladder, the slot-indexed reward/distance
// and dependency tables (qos.Compiled), the Section 5 degradation path
// and — when the demand model supports the slot-delta fast path — the
// per-slot demand decomposition. It is immutable once compiled, so
// providers cache one per CFP demand reference, the branch-and-bound
// baseline formulates the same task against many nodes, and the live
// and TCP runtimes share it across goroutines without a lock.
type CompiledProblem struct {
	Spec   *qos.Spec
	Req    *qos.Request
	Ladder *qos.Ladder
	// C evaluates reward, distance and dependencies on assignments.
	C *qos.Compiled
	// Path holds the dependency-consistent stops of the Section 5
	// degradation path, from the all-preferred level to ladder
	// exhaustion. The path is availability-independent — which attribute
	// degrades next depends only on the reward table — so a node's
	// resources merely pick the stopping point: Formulate returns the
	// first stop the node accepts, adaptation moves live tasks between
	// stops, and the baselines' distance bounds and stop menus are
	// admissible because they range over exactly these stops.
	Path []Stop
	// pathErr is what a scan that runs off the end of Path returns: the
	// demand model's error when one cut the walk short, ladder
	// exhaustion otherwise.
	pathErr error

	dm task.DemandModel
	// table is the slot-indexed demand decomposition, nil when dm does
	// not support (or declined) compilation; the fallback materializes a
	// Level per evaluation exactly like the pre-compiled implementation.
	table *task.DemandTable
}

// Stop is one dependency-consistent stop of the degradation path. Stops
// are shared by every reader of the compiled problem: treat them, the
// Assignment included, as read-only.
type Stop struct {
	Assignment qos.Assignment
	Demand     resource.Vector
	// Distance is the Section 6 distance of the stop's level and Utility
	// its eq. 3 utility.
	Distance, Utility float64
	// reward is the eq. 1 local reward; steps counts the degradations
	// from the preferred level, non-consistent assignments included.
	reward float64
	steps  int
}

// CompileProblem builds the compiled formulation instance. gridSteps
// <= 0 selects qos.DefaultGridSteps (see qos.BuildLadder) and a nil
// penalty qos.DefaultPenalty.
func CompileProblem(spec *qos.Spec, req *qos.Request, dm task.DemandModel, gridSteps int, penalty qos.PenaltyFunc) (*CompiledProblem, error) {
	ladder, err := qos.BuildLadder(spec, req, gridSteps)
	if err != nil {
		return nil, err
	}
	ev := &qos.Evaluator{Spec: spec, Req: req}
	c, err := ev.Compile(ladder, penalty)
	if err != nil {
		return nil, err
	}
	cp := &CompiledProblem{Spec: spec, Req: req, Ladder: ladder, C: c, dm: dm}
	if sd, ok := dm.(task.SlotDemandModel); ok {
		if tbl, terr := sd.CompileDemand(spec, ladder); terr == nil {
			cp.table = tbl
		}
	}
	cp.walkPath(ev)
	return cp, nil
}

// walkPath runs the Section 5 heuristic, inspired by the local QoS
// optimization of Abdelzaher et al., once for every availability:
//
//  1. start by selecting the user's preferred values for all QoS
//     dimensions;
//  2. determine for each degradable attribute the decrease in local
//     reward of stepping it one level down, and apply the degradation
//     with minimal decrease;
//  3. repeat until no attribute can degrade further, recording every
//     dependency-consistent level on the way as a Stop.
//
// Demand is evaluated at every visited level, consistent or not, so a
// demand-model error surfaces at the same point of the walk where the
// availability-driven loop would have met it.
func (cp *CompiledProblem) walkPath(ev *qos.Evaluator) {
	a := cp.Ladder.NewAssignment()
	// Every step degrades one attribute by one choice, so the walk
	// visits exactly 1 + Σ(choices-1) levels: size the stops and one
	// backing array for their assignments up front.
	visits := 1
	for i := range cp.Ladder.Attrs {
		visits += len(cp.Ladder.Attrs[i].Choices) - 1
	}
	cp.Path = make([]Stop, 0, visits)
	levels := make([]int, 0, visits*len(a))
	for steps := 0; ; steps++ {
		demand, err := cp.demand(a)
		if err != nil {
			cp.pathErr = err
			return
		}
		if ok, _ := cp.C.DepsSatisfied(a); ok {
			d := cp.C.Distance(a)
			levels = append(levels, a...)
			cp.Path = append(cp.Path, Stop{
				Assignment: levels[len(levels)-len(a) : len(levels) : len(levels)], Demand: demand,
				Distance: d, Utility: ev.Utility(d),
				reward: cp.C.Reward(a), steps: steps,
			})
		}
		i, ok := cp.cheapestDegradation(a)
		if !ok {
			cp.pathErr = fmt.Errorf("%w (request %q after %d degradations)", ErrNoFeasibleLevel, cp.Req.Service, steps)
			return
		}
		a[i]++
	}
}

// demand evaluates an assignment's demand: slot-indexed when compiled
// (a few vector adds in canonical key order — bit-identical to the
// model's level-by-level answer, see task.DemandTable), level-by-level
// otherwise.
func (cp *CompiledProblem) demand(a qos.Assignment) (resource.Vector, error) {
	if cp.table != nil {
		return cp.table.Demand(a), nil
	}
	return cp.dm.Demand(cp.Spec, cp.Ladder.Level(a))
}

// finish packages the accepted assignment as a Formulation, paying the
// single Level materialization of the whole formulate call.
func (cp *CompiledProblem) finish(a qos.Assignment, demand resource.Vector, reward float64, degradations int) *Formulation {
	return &Formulation{
		Level:        cp.Ladder.Level(a),
		Assignment:   a,
		Ladder:       cp.Ladder,
		Reward:       reward,
		Demand:       demand,
		Degradations: degradations,
	}
}

// Formulate returns the Section 5 heuristic's answer for one node: the
// first stop of the degradation path whose demand avail accepts — the
// least-degraded schedulable, dependency-consistent level. The scan
// touches no maps and allocates nothing (finish pays the one Level
// materialization), and the returned Assignment is the stop's own:
// read-only.
func (cp *CompiledProblem) Formulate(avail AvailFunc) (*Formulation, error) {
	for i := range cp.Path {
		if s := &cp.Path[i]; avail(s.Demand) {
			return cp.finish(s.Assignment, s.Demand, s.reward, s.steps), nil
		}
	}
	return nil, cp.pathErr
}

// cheapestDegradation finds the attribute whose next degradation step
// loses the least local reward (the paper's "find task Tm whose decrease
// is minimum", applied per attribute within one task's level). Ties break
// toward the least important attribute (highest ladder position), so that
// important dimensions keep their quality longest.
func (cp *CompiledProblem) cheapestDegradation(a qos.Assignment) (int, bool) {
	best := -1
	var bestCost float64
	for i := range cp.C.Slots {
		if !cp.Ladder.CanDegrade(a, i) {
			continue
		}
		cost := cp.C.DegradeCost(a, i)
		if best == -1 || cost < bestCost || (cost == bestCost && i > best) {
			best, bestCost = i, cost
		}
	}
	return best, best != -1
}

// FormulateResourceAware is an extension of the Section 5 heuristic that
// addresses its known myopia: the paper degrades whichever attribute
// loses the least reward, even when that degradation barely reduces
// resource demand (e.g. trimming audio bits while the CPU shortage comes
// from the frame rate). This variant scores each candidate degradation by
// reward-loss per unit of relieved bottleneck demand and applies the best
// ratio. It is not part of the paper; experiment E5 quantifies the gap it
// closes (see DESIGN.md "extensions").
func (cp *CompiledProblem) FormulateResourceAware(avail AvailFunc) (*Formulation, error) {
	a := cp.Ladder.NewAssignment()
	trial := cp.Ladder.NewAssignment()
	degradations := 0
	for {
		demand, derr := cp.demand(a)
		if derr != nil {
			return nil, derr
		}
		depsOK, _ := cp.C.DepsSatisfied(a)
		if depsOK && avail(demand) {
			return cp.finish(a, demand, cp.C.Reward(a), degradations), nil
		}
		best := -1
		bestScore := 0.0
		for i := range cp.C.Slots {
			if !cp.Ladder.CanDegrade(a, i) {
				continue
			}
			cost := cp.C.DegradeCost(a, i)
			copy(trial, a)
			trial[i]++
			trialDemand, terr := cp.demand(trial)
			if terr != nil {
				return nil, terr
			}
			relief := demandRelief(demand, trialDemand)
			// Score: relief per unit of reward lost; degradations that
			// relieve nothing rank last but stay eligible (cost-only).
			score := relief / (cost + 1e-9)
			if best == -1 || score > bestScore {
				best, bestScore = i, score
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("%w (request %q after %d degradations)", ErrNoFeasibleLevel, cp.Req.Service, degradations)
		}
		a[best]++
		degradations++
	}
}

// demandRelief measures how much a degradation reduces demand, summed
// over kinds and normalized by the current demand (so kinds with larger
// shortage weigh proportionally).
func demandRelief(cur, next resource.Vector) float64 {
	var relief float64
	for i := range cur {
		if cur[i] <= 0 {
			continue
		}
		d := (cur[i] - next[i]) / cur[i]
		if d > 0 {
			relief += d
		}
	}
	return relief
}

// FormulateExhaustive enumerates the full ladder cross-product and
// returns the schedulable level with maximal reward (ties: fewest
// degradations, then lexicographically smallest assignment). It is the
// optimal counterpart of Formulate used by experiment E5 to measure the
// heuristic's optimality gap; cost is exponential in attributes, so
// callers must bound the ladder (maxCombinations guards mistakes).
func (cp *CompiledProblem) FormulateExhaustive(avail AvailFunc, maxCombinations int64) (*Formulation, error) {
	if c := cp.Ladder.Combinations(); c > maxCombinations {
		return nil, fmt.Errorf("core: exhaustive search over %d combinations exceeds bound %d", c, maxCombinations)
	}
	a := cp.Ladder.NewAssignment()
	var bestA qos.Assignment
	var bestReward float64
	var bestDemand resource.Vector
	bestDeg := 0
	for {
		if depsOK, _ := cp.C.DepsSatisfied(a); depsOK {
			demand, derr := cp.demand(a)
			if derr != nil {
				return nil, derr
			}
			if avail(demand) {
				r := cp.C.Reward(a)
				deg := 0
				for _, x := range a {
					deg += x
				}
				if bestA == nil || r > bestReward || (r == bestReward && deg < bestDeg) {
					bestA = a.Clone()
					bestReward, bestDeg, bestDemand = r, deg, demand
				}
			}
		}
		if !nextAssignment(cp.Ladder, a) {
			break
		}
	}
	if bestA == nil {
		return nil, ErrNoFeasibleLevel
	}
	return cp.finish(bestA, bestDemand, bestReward, bestDeg), nil
}

// nextAssignment advances a through the cross-product in odometer order,
// returning false after the last combination.
func nextAssignment(ld *qos.Ladder, a qos.Assignment) bool {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i]+1 < len(ld.Attrs[i].Choices) {
			a[i]++
			for j := i + 1; j < len(a); j++ {
				a[j] = 0
			}
			return true
		}
	}
	return false
}
