// Package xp defines the experiment suite of this reproduction. The
// paper (a model/architecture paper) publishes no tables or figures; each
// experiment here operationalizes one of its qualitative claims (see
// EXPERIMENTS.md for the catalog and DESIGN.md for the module map) into
// a reproducible table. Experiments declare their sweeps against the
// parallel runner in runner.go; cmd/qosbench prints the tables and the
// root bench_test.go wraps each in a testing.B benchmark.
package xp

import (
	"fmt"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config scales an experiment run.
type Config struct {
	// Seed is the base seed; repeat r of a sweep point uses Seed+r.
	Seed int64
	// Repeats is the number of seeds averaged per sweep point.
	Repeats int
	// Quick shrinks sweeps for use inside testing.B loops.
	Quick bool
	// Parallel is the worker-pool width the sweep runner fans
	// replications and sweep points out over; <= 1 runs sequentially.
	// Tables are bit-identical at every width: each replication owns a
	// rand.Rand seeded with Seed+r and aggregation happens in
	// replication order after the fan-in.
	Parallel int
	// Trace, when set, collects every replication's flight-recorder
	// events into the journal, one scope per (sweep point, replication)
	// job so serialization order is independent of Parallel. Experiments
	// that support tracing pass Rep.Trace into their session.Config; the
	// rest leave the journal empty. nil (the default) disables tracing.
	Trace *trace.Journal
	// TraceGroup prefixes the journal scope names of this run (e.g. the
	// experiment ID), keeping multiple traced runs apart in one journal.
	TraceGroup string
}

// Experiment is one entry of the suite.
type Experiment struct {
	ID    string
	Title string
	Claim string
	Run   func(cfg Config) (*metrics.Table, error)
}

// All returns the suite in order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Acceptance ratio vs population size",
			Claim: "coalitions serve requests a single node cannot (Abstract, S1)", Run: E1AcceptanceVsNodes},
		{ID: "E2", Title: "User-perceived quality vs load",
			Claim: "selection by lowest evaluation maximizes perceived utility (S4.2)", Run: E2UtilityVsLoad},
		{ID: "E3", Title: "Negotiation message overhead vs population size",
			Claim: "distributed broadcast negotiation scales linearly in neighbours (S4.2)", Run: E3MessageOverhead},
		{ID: "E4", Title: "Coalition size with and without consolidation",
			Claim: "operation complexity grows with distinct members (S4.2)", Run: E4CoalitionSize},
		{ID: "E5", Title: "Degradation heuristic vs exhaustive optimum",
			Claim: "the S5 heuristic finds the closest schedulable level", Run: E5HeuristicVsOptimal},
		{ID: "E6", Title: "Selection-criteria ablation",
			Claim: "all three selection criteria matter (S4.2)", Run: E6SelectionAblation},
		{ID: "E7", Title: "Reconfiguration under member failures",
			Claim: "operation-phase reconfiguration survives partial failures (S4)", Run: E7FailureReconfig},
		{ID: "E8", Title: "Heterogeneity: weak device among strong neighbours",
			Claim: "weak devices offload to nearby more powerful nodes (S1/S2)", Run: E8Heterogeneity},
		{ID: "E9", Title: "Evaluation-function consistency",
			Claim: "lower distance always means closer to the preference order (S6)", Run: E9DistanceConsistency},
		{ID: "E10", Title: "Bare protocol over TCP sockets vs simulator",
			Claim: "the protocol is runtime-independent (engineering validation)", Run: E10NetVsSim},
		{ID: "E11", Title: "Formation and operation under mobility",
			Claim: "coalitions survive nodes moving in and out of range (S1)", Run: E11MobilityStress},
		{ID: "E12", Title: "Negotiation under packet loss",
			Claim: "renegotiation rounds absorb lossy wireless links (S2)", Run: E12LossyRadio},
		{ID: "E13", Title: "Concurrent negotiations and proposal holds",
			Claim: "proposals are not hard commitments; holds trade utilization for decline rate", Run: E13ConcurrentServices},
		{ID: "E14", Title: "Operation under battery depletion",
			Claim: "cooperation must survive helpers dying of battery exhaustion (S7)", Run: E14EnergyDepletion},
		{ID: "E15", Title: "Run-time quality upgrade",
			Claim: "coalitions can dynamically change the executing quality level (S4)", Run: E15QualityUpgrade},
		{ID: "E16", Title: "Optimal baseline: branch-and-bound vs exhaustive enumeration",
			Claim: "pruning, not enumeration, keeps the optimal baseline tractable as populations grow", Run: E16OptimalScaling},
		{ID: "E17", Title: "Steady-state admission and QoS vs offered load",
			Claim: "the spontaneous neighbourhood serves a continuous stream of arriving services (S1/S2)", Run: E17OfferedLoad},
		{ID: "E18", Title: "Arrival shape at equal mean load",
			Claim: "burstier arrival processes degrade admission at equal mean offered load", Run: E18ArrivalShapes},
		{ID: "E19", Title: "Combined service and node churn",
			Claim: "coalitions form, operate and dissolve while both services and devices come and go (S1, S4)", Run: E19CombinedChurn},
		{ID: "E20", Title: "City fabric: shard-count scaling at fixed offered load",
			Claim: "many spontaneous neighbourhoods coexist across a wide area; capacity scales out with shards (S1)", Run: E20ShardScaling},
		{ID: "E21", Title: "City fabric: hotspot load imbalance",
			Claim: "equal mean load does not mean equal quality — skew across neighbourhoods drives city-wide blocking", Run: E21HotspotImbalance},
		{ID: "E22", Title: "Churn repair policy: degrade vs migrate vs kill",
			Claim: "renegotiating live sessions to a degraded level beats killing them when members churn (S4)", Run: E22AdaptChurn},
		{ID: "E23", Title: "Upgrade reclamation after burst load",
			Claim: "run-time adaptation is bidirectional — degraded sessions reclaim quality when capacity frees (S4)", Run: E23UpgradeReclamation},
		{ID: "E24", Title: "City-scale adaptation under hotspot imbalance",
			Claim: "mid-session adaptation concentrates its work where the load is, lifting city-wide survival (S1, S4)", Run: E24CityAdaptation},
		{ID: "E25", Title: "Admission under message loss: retransmission vs bare protocol",
			Claim: "bounded blind retransmission with backoff recovers most of the admission a lossy radio destroys (S2)", Run: E25LossRetry},
		{ID: "E26", Title: "Loss shape at equal mean drop rate",
			Claim: "bursty loss defeats bounded retransmission where i.i.d. loss of equal mean does not", Run: E26BurstLoss},
		{ID: "E27", Title: "Transient partitions: reconfiguration and reclamation",
			Claim: "coalitions reconfigure around a split and the reconciliation sweep reclaims what the cut stranded (S4)", Run: E27PartitionHeal},
		{ID: "E28", Title: "TCP socket fabric vs simulator, with daemon crash",
			Claim: "the protocol is deployment-independent: real sockets form the same coalition, and survive losing a daemon mid-negotiation (engineering validation)", Run: E28InteropTCP},
		{ID: "E29", Title: "Admission policy vs clairvoyant bound across offered load",
			Claim: "queue and yield lift admission and utility over block at every load, and no policy exceeds the clairvoyant oracle's bound on its own recorded trace (economic admission)", Run: E29AdmissionPolicies},
		{ID: "E30", Title: "Queue vs yield under burst overload",
			Claim: "under deep transient overload queueing rides the burst out while yielding meets it by degrading incumbents, and both stay under the clairvoyant bound (economic admission)", Run: E30QueueVsYieldBurst},
	}
}

// ByID resolves one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("xp: unknown experiment %q", id)
}

// formationOutcome captures one coalition run.
type formationOutcome struct {
	Result  *core.Result
	Stats   radio.Stats
	Cluster *core.Cluster
	// MeanUtility is the mean per-task utility (1 = preferred level)
	// over assigned tasks.
	MeanUtility float64
}

// runCoalition builds the scenario, submits svc at node 0, and runs the
// negotiation to completion (plus settle seconds of operation).
func runCoalition(scfg workload.ScenarioConfig, svc *task.Service, ocfg core.OrganizerConfig, settle float64) (*formationOutcome, error) {
	sc, err := workload.Build(scfg)
	if err != nil {
		return nil, err
	}
	var res *core.Result
	_, err = sc.Cluster.Submit(0, 0, svc, ocfg, func(r *core.Result) {
		if res == nil {
			res = r
		}
	})
	if err != nil {
		return nil, err
	}
	horizon := 10.0 + settle
	sc.Cluster.Run(horizon)
	if res == nil {
		return nil, fmt.Errorf("xp: formation did not complete within %g s", horizon)
	}
	out := &formationOutcome{Result: res, Stats: sc.Cluster.Medium.Stats, Cluster: sc.Cluster}
	out.MeanUtility = meanUtility(svc, res)
	return out, nil
}

// meanUtility converts assigned distances into mean [0,1] utility;
// unserved tasks contribute utility 0, making it comparable across
// allocators with different acceptance.
func meanUtility(svc *task.Service, res *core.Result) float64 {
	if len(svc.Tasks) == 0 {
		return 0
	}
	var total float64
	for _, t := range svc.Tasks {
		a, ok := res.Assigned[t.ID]
		if !ok {
			continue
		}
		eval, err := qos.NewEvaluator(svc.Spec, &t.Request)
		if err != nil {
			continue
		}
		total += eval.Utility(a.Distance)
	}
	return total / float64(len(svc.Tasks))
}

// allocUtility is meanUtility for baseline allocations.
func allocUtility(svc *task.Service, alloc *baseline.Allocation) float64 {
	if len(svc.Tasks) == 0 {
		return 0
	}
	byID := make(map[string]baseline.TaskAlloc, len(alloc.Assigned))
	for _, a := range alloc.Assigned {
		byID[a.TaskID] = a
	}
	var total float64
	for _, t := range svc.Tasks {
		a, ok := byID[t.ID]
		if !ok {
			continue
		}
		eval, err := qos.NewEvaluator(svc.Spec, &t.Request)
		if err != nil {
			continue
		}
		total += eval.Utility(a.Distance)
	}
	return total / float64(len(svc.Tasks))
}

// ablationScenario is the population used by the selection-policy
// ablations: no access-point giant (it would absorb every task at zero
// distance under any policy) and a propagation-delay radio so that
// communication costs differ across neighbours.
func ablationScenario(seed int64) workload.ScenarioConfig {
	scfg := workload.DefaultScenario(seed)
	scfg.Mix = workload.Mix{
		{Profile: workload.Phone, Weight: 0.4},
		{Profile: workload.PDA, Weight: 0.35},
		{Profile: workload.Laptop, Weight: 0.25},
	}
	scfg.Radio.PropDelay = 2e-3 // 2 ms per meter: position matters
	return scfg
}

// newRng builds a deterministic random source for baseline allocators.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// snapshotProblem views a freshly built scenario as a baseline Problem.
// Only nodes the organizer can actually reach over the radio participate,
// so baselines compete under the same physical constraints as the
// protocol.
func snapshotProblem(sc *workload.Scenario, svc *task.Service) *baseline.Problem {
	nodes := make(map[radio.NodeID]*resource.Set)
	for _, id := range sc.Cluster.Nodes() {
		if id != 0 && !sc.Cluster.Medium.InRange(0, id) {
			continue
		}
		nodes[id] = sc.Cluster.Node(id).Res
	}
	comm := func(id radio.NodeID) float64 {
		return sc.Cluster.Medium.TxTime(0, id, 32*1024)
	}
	return baseline.SnapshotProblem(svc, 0, nodes, comm)
}
