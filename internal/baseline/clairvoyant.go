package baseline

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/resource"
	"repro/internal/task"
)

// TraceSession is one arrival of a recorded open-system run: the
// instantiated service plus the arrival instant and the holding time the
// engine drew for it. The clairvoyant oracle re-decides its admission in
// hindsight, so blocked and expired sessions appear here too.
type TraceSession struct {
	Arrive  float64
	Hold    float64
	Service *task.Service
}

// Trace is a full recorded arrival trace over a fixed fleet: the offline
// admission problem the clairvoyant oracle optimizes. Node capacities
// must be the fleet's clean capacities (no churn, no faults — the
// oracle's accounting assumes capacity is constant over the horizon).
// GridSteps follows the Formulate convention (<=0 selects the provider
// default).
type Trace struct {
	Nodes     []NodeView
	GridSteps int
	// Horizon is the run length in simulated seconds; Bound integrates
	// resource-kind-seconds over [0, Horizon].
	Horizon float64
	// Window is the online engine's worst-case arrival-to-admission
	// latency (queue MaxWait plus formation slack). Bound credits each
	// session only the occupancy it must keep inside the horizon even if
	// admitted Window late; larger windows only loosen the bound.
	Window float64
	// Sessions is the trace in arrival order.
	Sessions []TraceSession
}

// Schedule is the oracle's hindsight-optimal answer.
type Schedule struct {
	// Accepted marks the admitted sessions, indexed like Trace.Sessions.
	Accepted []bool
	// Utility is the schedule's total utility: the sum, over admitted
	// sessions and their tasks, of Evaluator.Utility at the chosen
	// degradation-path stop — the same eq. 3 currency the session
	// engine's admit.Stats.UtilitySum accumulates.
	Utility float64
	// Explored counts search-tree edges, mirroring Optimal's effort
	// accounting.
	Explored int64
}

// Clairvoyant optimizes admission and degradation over a full recorded
// arrival trace: with the whole future known, which sessions should have
// been admitted, where, and at which dependency-consistent degradation
// stop, to maximize total utility. Solve is the exact branch-and-bound
// (small traces: the differential-test oracle); Bound is a polynomial
// relaxation valid for traces of any size, and is what the experiments'
// optimality-gap columns and the fuzz harness compare achieved utility
// against.
//
// The model matches the session engine's economy: an admitted session
// occupies its chosen per-task demands from its admission until its
// holding time elapses, feasibility means every node's reservations fit
// capacity at every instant, and a session's utility is the sum of its
// tasks' Utility(distance) at the chosen stop. Occupancy changes only at
// arrivals (departures only release), so per-instant feasibility reduces
// to feasibility at each accepted arrival's instant.
type Clairvoyant struct {
	// MaxNodes bounds Solve's explored search-tree edges (default 1e6),
	// like Optimal.MaxNodes.
	MaxNodes int64
}

// cvTask is a trace task compiled to its stop menu — its degradation
// path, each stop one admissible way to serve it; an empty menu means
// the task — and therefore its session — can never be served.
type cvTask struct {
	stops []core.Stop
	maxU  float64
}

// cvSession aggregates a session's compiled tasks.
type cvSession struct {
	tasks    []cvTask
	servable bool
	maxU     float64
}

// compileTrace compiles every session of the trace to its stop menus —
// the shared front half of Solve and Bound.
func compileTrace(tr *Trace) []cvSession {
	out := make([]cvSession, len(tr.Sessions))
	for i, s := range tr.Sessions {
		cs := cvSession{servable: true}
		for _, t := range s.Service.Tasks {
			var ct cvTask
			if cp, err := core.CompileProblem(s.Service.Spec, &t.Request, t.Demand, tr.GridSteps, nil); err == nil {
				ct.stops = cp.Path
				for j := range ct.stops {
					ct.maxU = max(ct.maxU, ct.stops[j].Utility)
				}
			}
			if len(ct.stops) == 0 {
				cs.servable = false
			}
			cs.tasks = append(cs.tasks, ct)
		}
		if cs.servable {
			for _, ct := range cs.tasks {
				cs.maxU += ct.maxU
			}
		} else {
			cs.maxU = 0
		}
		out[i] = cs
	}
	return out
}

// cvSearch carries Solve's depth-first state.
type cvSearch struct {
	tr     *Trace
	sess   []cvSession
	caps   []resource.Vector
	suffix []float64 // suffix[i] = max utility still reachable from session i on

	accepted []bool
	choice   [][2]int // per (session, task): chosen [node, stop]
	tasksAt  []int    // choice row offset per session
	util     float64

	found    bool
	best     float64
	bestAcc  []bool
	explored int64
	maxNodes int64
}

// Solve finds the hindsight-optimal admission schedule by depth-first
// branch-and-bound over (accept with a complete per-task placement |
// reject) per session, in arrival order. The accept branch is explored
// first and the incumbent only improves strictly, so ties resolve to the
// first schedule found — deterministic. Exponential in trace size: this
// is the differential-test oracle, not a production solver; MaxNodes
// errors out when the budget is exceeded.
func (c Clairvoyant) Solve(tr *Trace) (*Schedule, error) {
	sess := compileTrace(tr)
	s := &cvSearch{
		tr:       tr,
		sess:     sess,
		caps:     make([]resource.Vector, len(tr.Nodes)),
		suffix:   make([]float64, len(sess)+1),
		accepted: make([]bool, len(sess)),
		tasksAt:  make([]int, len(sess)),
		maxNodes: c.MaxNodes,
	}
	if s.maxNodes == 0 {
		s.maxNodes = 1_000_000
	}
	for i, n := range tr.Nodes {
		s.caps[i] = n.Res.Available()
	}
	rows := 0
	for i := range sess {
		s.tasksAt[i] = rows
		rows += len(sess[i].tasks)
	}
	s.choice = make([][2]int, rows)
	for i := len(sess) - 1; i >= 0; i-- {
		s.suffix[i] = s.suffix[i+1] + sess[i].maxU
	}
	if err := s.search(0); err != nil {
		return nil, err
	}
	out := &Schedule{Accepted: make([]bool, len(sess)), Explored: s.explored}
	if s.found {
		copy(out.Accepted, s.bestAcc)
		out.Utility = s.best
	}
	return out, nil
}

// search decides session i. The utility bound prunes subtrees that
// cannot strictly beat the incumbent; in the (ulp-rare) event float
// association makes the bound under-read, callers compare utilities with
// a small tolerance rather than bitwise.
func (s *cvSearch) search(i int) error {
	if i == len(s.sess) {
		if !s.found || s.util > s.best {
			s.found = true
			s.best = s.util
			s.bestAcc = append(s.bestAcc[:0], s.accepted...)
		}
		return nil
	}
	if s.found && s.util+s.suffix[i] <= s.best {
		return nil
	}
	if s.sess[i].servable {
		s.accepted[i] = true
		use := s.usageAt(s.tr.Sessions[i].Arrive, i)
		if err := s.place(i, 0, use); err != nil {
			return err
		}
	}
	s.accepted[i] = false
	return s.search(i + 1)
}

// usageAt sums, per node, the demands of sessions accepted before upto
// that are still alive at time t (alive on [arrive, arrive+hold)).
func (s *cvSearch) usageAt(t float64, upto int) []resource.Vector {
	use := make([]resource.Vector, len(s.caps))
	for j := 0; j < upto; j++ {
		if !s.accepted[j] {
			continue
		}
		sj := s.tr.Sessions[j]
		if sj.Arrive > t || sj.Arrive+sj.Hold <= t {
			continue
		}
		for ti := range s.sess[j].tasks {
			ch := s.choice[s.tasksAt[j]+ti]
			use[ch[0]] = use[ch[0]].Add(s.sess[j].tasks[ti].stops[ch[1]].Demand)
		}
	}
	return use
}

// place assigns session i's task ti to every (node, stop) that fits the
// arrival-instant usage, recursing over the remaining tasks and then the
// remaining sessions. Backtracking restores saved vector copies, like
// bnbSearch, so float state is exact along every prefix.
func (s *cvSearch) place(i, ti int, use []resource.Vector) error {
	if ti == len(s.sess[i].tasks) {
		return s.search(i + 1)
	}
	ct := &s.sess[i].tasks[ti]
	for ni := range s.caps {
		for si := range ct.stops {
			s.explored++
			if s.explored > s.maxNodes {
				return fmt.Errorf("baseline: clairvoyant search explored more than %d nodes", s.maxNodes)
			}
			st := &ct.stops[si]
			if !cvFits(use[ni], st.Demand, s.caps[ni]) {
				continue
			}
			saved := use[ni]
			use[ni] = saved.Add(st.Demand)
			prevU := s.util
			s.util = prevU + st.Utility
			s.choice[s.tasksAt[i]+ti] = [2]int{ni, si}
			err := s.place(i, ti+1, use)
			s.util = prevU
			use[ni] = saved
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// cvFits mirrors bnbNode's admission comparison: used + demand must fit
// capacity per kind, zero demands always fit.
func cvFits(used, demand, cap resource.Vector) bool {
	for k := range demand {
		if demand[k] > 0 && used[k]+demand[k] > cap[k] {
			return false
		}
	}
	return true
}

// Bound returns a polynomial upper bound on the total utility ANY
// admission policy — including Solve — can achieve on the trace. It is
// the per-resource-kind fractional-knapsack relaxation of the schedule
// economy:
//
//   - A session contributes at most u_i = sum over its tasks of the
//     maximum stop utility (its admission-time utility can only be an
//     actual stop's, and later upgrades never exceed the best stop).
//   - Admitting session i consumes, for each resource kind k, at least
//     w_ik = (sum of per-task minimum stop demand of kind k) x L_i
//     kind-seconds inside [0, Horizon], where L_i = max(0, min(Hold,
//     Horizon - Arrive - Window)): even admitted Window late and
//     degraded to the cheapest stops, the session holds at least that.
//   - Integrating per-instant feasibility over the horizon, the admitted
//     set satisfies sum w_ik <= (total fleet capacity of k) x Horizon.
//
// The fractional knapsack maximizes sum u_i under each kind's budget
// separately; the minimum over kinds (and the trivial sum-of-u_i cap) is
// therefore an upper bound on every feasible admitted set's utility.
// Valid only while capacity is constant and sessions are never killed
// mid-hold — callers must keep churn and fault injection off.
func (c Clairvoyant) Bound(tr *Trace) (float64, error) {
	if tr.Horizon <= 0 {
		return 0, fmt.Errorf("baseline: clairvoyant bound needs a positive horizon, got %g", tr.Horizon)
	}
	if tr.Window < 0 {
		return 0, fmt.Errorf("baseline: negative admission window %g", tr.Window)
	}
	sess := compileTrace(tr)
	type item struct {
		u float64
		w resource.Vector
	}
	items := make([]item, 0, len(sess))
	var total float64
	for i, cs := range sess {
		if !cs.servable || cs.maxU <= 0 {
			continue
		}
		l := tr.Horizon - tr.Sessions[i].Arrive - tr.Window
		if h := tr.Sessions[i].Hold; l > h {
			l = h
		}
		if l < 0 {
			l = 0
		}
		var w resource.Vector
		for _, ct := range cs.tasks {
			var mink resource.Vector
			for k := range mink {
				mink[k] = math.Inf(1)
			}
			for _, st := range ct.stops {
				for k := range st.Demand {
					if st.Demand[k] < mink[k] {
						mink[k] = st.Demand[k]
					}
				}
			}
			w = w.Add(mink)
		}
		items = append(items, item{u: cs.maxU, w: w.Scale(l)})
		total += cs.maxU
	}
	bound := total
	for k := 0; k < resource.NumKinds; k++ {
		var budget float64
		for _, n := range tr.Nodes {
			budget += n.Res.Available()[k]
		}
		budget *= tr.Horizon
		type kitem struct {
			u, w float64
			idx  int
		}
		var ks []kitem
		var free float64
		for idx := range items {
			if w := items[idx].w[k]; w > 0 {
				ks = append(ks, kitem{u: items[idx].u, w: w, idx: idx})
			} else {
				free += items[idx].u
			}
		}
		if len(ks) == 0 {
			continue // kind k does not constrain this trace
		}
		sort.Slice(ks, func(a, b int) bool {
			ra, rb := ks[a].u/ks[a].w, ks[b].u/ks[b].w
			if ra != rb {
				return ra > rb
			}
			return ks[a].idx < ks[b].idx
		})
		got, rem := free, budget
		for _, ki := range ks {
			if ki.w <= rem {
				got += ki.u
				rem -= ki.w
				continue
			}
			if rem > 0 {
				got += ki.u * (rem / ki.w)
			}
			break
		}
		if got < bound {
			bound = got
		}
	}
	return bound, nil
}
