package xp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	qnet "repro/internal/net"
	"repro/internal/proto"
	"repro/internal/qos"
	"repro/internal/workload"
)

// E6SelectionAblation isolates the paper's three selection criteria:
// distance only, distance + communication cost, and the full policy with
// member consolidation.
func E6SelectionAblation(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E6 selection-criteria ablation",
		"policy", "mean-dist", "total-commcost-s", "members", "acceptance")
	type policyCase struct {
		name string
		p    core.SelectionPolicy
	}
	policies := []policyCase{
		{"distance-only", core.SelectionPolicy{}},
		{"+comm-cost", core.SelectionPolicy{DistanceEps: 0.05, UseCommCost: true}},
		{"+consolidate (full)", core.SelectionPolicy{DistanceEps: 0.05, UseCommCost: true, Consolidate: true}},
	}
	reps := repeats(cfg)
	acc, err := sweep(cfg, reps, policies, func(pol policyCase, rep Rep) ([]float64, error) {
		scfg := ablationScenario(rep.Seed)
		svc := workload.StreamService("e6", 6, 1.2)
		ocfg := core.DefaultOrganizerConfig
		ocfg.Policy = pol.p
		out, err := runCoalition(scfg, svc, ocfg, 0)
		if err != nil {
			return nil, err
		}
		var cc float64
		for _, a := range out.Result.Assigned {
			cc += a.CommCost
		}
		return []float64{
			out.Result.MeanDistance(),
			cc,
			float64(len(out.Result.Members())),
			float64(len(out.Result.Assigned)) / float64(len(svc.Tasks)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, pol := range policies {
		s := acc.Point(i)
		t.AddRow(pol.name, s[0].Mean(), s[1].Mean(), s[2].Mean(), metrics.Ratio(s[3].Mean(), 1))
	}
	t.Note("16 nodes (no access point), 6 tasks at 1.2x demand, 2 ms/m propagation delay; %d seeds per policy", reps)
	return t, nil
}

// E7FailureReconfig kills coalition members mid-operation and measures
// how many tasks remain served with reconfiguration enabled versus
// disabled.
func E7FailureReconfig(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E7 reconfiguration under member failures",
		"failures", "served(reconfig)", "served(none)", "reconfigurations", "detected")
	kills := []int{1, 2, 3}
	if cfg.Quick {
		kills = []int{1}
	}
	reps := repeats(cfg)
	acc, err := sweep(cfg, reps, kills, func(k int, rep Rep) ([]float64, error) {
		servedOn, nre, nfail, err := failureRun(rep.Seed, k, true)
		if err != nil {
			return nil, err
		}
		servedOff, _, _, err := failureRun(rep.Seed, k, false)
		if err != nil {
			return nil, err
		}
		return []float64{servedOn, servedOff, nre, nfail}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, k := range kills {
		s := acc.Point(i)
		t.AddRow(k, metrics.Ratio(s[0].Mean(), 1), metrics.Ratio(s[1].Mean(), 1),
			s[2].Mean(), s[3].Mean())
	}
	t.Note("12 nodes, 4-task service; members killed at t=5s, served fraction measured at t=40s; %d seeds per row", reps)
	return t, nil
}

func failureRun(seed int64, kills int, reconfig bool) (served, reconfs, failures float64, err error) {
	scfg := workload.DefaultScenario(seed)
	scfg.Nodes = 12
	sc, err := workload.Build(scfg)
	if err != nil {
		return 0, 0, 0, err
	}
	svc := workload.StreamService("e7", 4, 1.2)
	ocfg := core.DefaultOrganizerConfig
	ocfg.Reconfigure = reconfig
	var first *core.Result
	org, err := sc.Cluster.Submit(0, 0, svc, ocfg, func(r *core.Result) {
		if first == nil {
			first = r
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	sc.Cluster.Eng.At(5, func() {
		if first == nil {
			return
		}
		killed := 0
		for _, m := range first.Members() {
			if m == 0 {
				continue // never kill the organizer
			}
			sc.Cluster.FailNode(m)
			killed++
			if killed == kills {
				break
			}
		}
	})
	sc.Cluster.Run(40)
	if first == nil {
		return 0, 0, 0, fmt.Errorf("xp: e7 formation never completed (seed %d)", seed)
	}
	frac := float64(len(org.Snapshot())) / float64(len(svc.Tasks))
	return frac, float64(org.Reconfigurations), float64(org.Failures), nil
}

// E8Heterogeneity compares a phone requesting a demanding service in a
// phone-only neighbourhood against heterogeneous neighbourhoods.
func E8Heterogeneity(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E8 heterogeneity: who helps a weak device",
		"population", "acceptance", "mean-utility", "members", "remote-tasks")
	type popCase struct {
		name string
		mix  workload.Mix
	}
	pops := []popCase{
		{"8 phones", workload.UniformMix(workload.Phone)},
		{"7 phones + 1 laptop", workload.Mix{
			{Profile: workload.Phone, Weight: 7},
			{Profile: workload.Laptop, Weight: 1},
		}},
		{"mixed (default)", workload.DefaultMix},
		{"4 phones + 4 laptops", workload.Mix{
			{Profile: workload.Phone, Weight: 1},
			{Profile: workload.Laptop, Weight: 1},
		}},
	}
	reps := repeats(cfg)
	acc, err := sweep(cfg, reps, pops, func(pop popCase, rep Rep) ([]float64, error) {
		scfg := workload.DefaultScenario(rep.Seed)
		scfg.Nodes = 8
		scfg.Mix = pop.mix
		svc := workload.StreamService("e8", 4, 2.0)
		out, err := runCoalition(scfg, svc, core.DefaultOrganizerConfig, 0)
		if err != nil {
			return nil, err
		}
		rem := 0
		for _, a := range out.Result.Assigned {
			if a.Node != 0 {
				rem++
			}
		}
		return []float64{
			float64(len(out.Result.Assigned)) / float64(len(svc.Tasks)),
			out.MeanUtility,
			float64(len(out.Result.Members())),
			float64(rem),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, pop := range pops {
		s := acc.Point(i)
		t.AddRow(pop.name, metrics.Ratio(s[0].Mean(), 1), s[1].Mean(), s[2].Mean(), s[3].Mean())
	}
	t.Note("8 nodes, organizer always a phone, 4 tasks at 2.0x demand; %d seeds per row", reps)
	return t, nil
}

// E9DistanceConsistency property-checks the Section 6 evaluation over
// randomized admissible proposals: distance is 0 exactly at the preferred
// level, never negative, never above MaxDistance, and agrees with the
// user's lexicographic preference order on a large sampled fraction of
// comparable pairs. Each request case is one sweep point with its own
// replication rng, so the cases are independent and parallelizable.
func E9DistanceConsistency(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E9 evaluation-function consistency",
		"request", "samples", "range-violations", "zero-at-preferred", "dominance-violations", "lex-agreement")
	trials := 20000
	if cfg.Quick {
		trials = 2000
	}
	type reqCase struct {
		name string
		spec *qos.Spec
		req  qos.Request
	}
	cases := []reqCase{
		{"surveillance (S3.1)", workload.VideoSpec(), workload.SurveillanceRequest()},
		{"streaming", workload.VideoSpec(), workload.StreamingRequest("e9")},
		{"offload", workload.OffloadSpec(), workload.OffloadRequest("e9o")},
	}
	acc, err := sweep(cfg, 1, cases, func(c reqCase, rep Rep) ([]float64, error) {
		eval, err := qos.NewEvaluator(c.spec, &c.req)
		if err != nil {
			return nil, err
		}
		ladder, err := qos.BuildLadder(c.spec, &c.req, 4)
		if err != nil {
			return nil, err
		}
		// The sampling loop below runs 2*trials evaluations; the
		// compiled tables are bit-identical to eval.Distance on ladder
		// levels (the qos property test enforces ==), so the table is
		// unchanged while the loop stops allocating.
		comp, err := eval.Compile(ladder, nil)
		if err != nil {
			return nil, err
		}
		maxD := eval.MaxDistance()
		rangeViol, domViol := 0, 0
		agree, comparable := 0, 0

		dPref := comp.Distance(ladder.NewAssignment())
		zeroOK := 0.0
		if dPref == 0 {
			zeroOK = 1
		}

		randAssign := func() qos.Assignment {
			a := ladder.NewAssignment()
			for i := range a {
				a[i] = rep.Rng.Intn(len(ladder.Attrs[i].Choices))
			}
			return a
		}
		for i := 0; i < trials; i++ {
			a, b := randAssign(), randAssign()
			// The map-based evaluator rejected dependency-violating
			// proposals with an error; keep that guard (the current
			// specs declare no deps, so no sample is skipped today).
			if ok, _ := comp.DepsSatisfied(a); !ok {
				continue
			}
			if ok, _ := comp.DepsSatisfied(b); !ok {
				continue
			}
			da := comp.Distance(a)
			db := comp.Distance(b)
			if da < 0 || da > maxD+1e-9 {
				rangeViol++
			}
			// Dominance: a no deeper than b on every attribute and
			// strictly shallower somewhere must not evaluate worse.
			if dominates(a, b) && da > db+1e-9 {
				domViol++
			}
			// Lexicographic agreement over the user's importance order.
			if cmp := lexCompare(a, b); cmp != 0 {
				comparable++
				if (cmp < 0) == (da < db) && da != db {
					agree++
				}
			}
		}
		return []float64{float64(rangeViol), zeroOK, float64(domViol),
			float64(agree), float64(comparable)}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cases {
		vec := acc.Get(i, 0)
		t.AddRow(c.name, trials, int(vec[0]), vec[1] != 0, int(vec[2]),
			metrics.Ratio(vec[3], vec[4]))
	}
	t.Note("dominance uses ladder depth (the user's own per-attribute preference order)")
	return t, nil
}

// dominates reports a <= b everywhere with a < b somewhere (ladder depth).
func dominates(a, b qos.Assignment) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// lexCompare compares two assignments in the user's importance order.
func lexCompare(a, b qos.Assignment) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// E10NetVsSim runs the identical neighbourhood and service through the
// discrete-event simulator and the bare two-round protocol — the
// reliability layer off, as on the simulator — between in-process
// daemons on TCP loopback sockets, and compares the resulting
// allocations. E28 is the same comparison with the hardened protocol
// and a daemon crash. The networked half races goroutines and real
// sockets against scaled wall-clock timers, so its rows are not
// guaranteed bit-identical across runs.
func E10NetVsSim(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E10 bare protocol over TCP sockets vs simulator",
		"trial", "sim-members", "net-members", "same-assignment", "sim-dist", "net-dist")
	reps := repeats(cfg)
	// Real sockets and scaled wall-clock timers: replications must not
	// contend for CPU, so this experiment always runs sequentially.
	cfg.Parallel = 1
	acc, err := sweep(cfg, reps, []int{0}, func(_ int, rep Rep) ([]float64, error) {
		simRes, err := qnet.InteropSim(rep.Seed, interopTotal, interopTasks, interopScale)
		if err != nil {
			return nil, err
		}
		netRes, _, err := e28Run(0, proto.RetryConfig{})
		if err != nil {
			return nil, err
		}
		same := 0.0
		if qnet.SameAssignment(simRes, netRes) {
			same = 1
		}
		return []float64{
			float64(len(simRes.Members())),
			float64(len(netRes.Members())),
			same,
			simRes.MeanDistance(),
			netRes.MeanDistance(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	matches := 0
	for r := 0; r < reps; r++ {
		vec := acc.Get(0, r)
		same := vec[2] != 0
		if same {
			matches++
		}
		t.AddRow(r, int(vec[0]), int(vec[1]), same, vec[3], vec[4])
	}
	t.Note("deterministic 6-node neighbourhood; %d/%d identical allocations", matches, reps)
	return t, nil
}
