package xp

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/resource"
	"repro/internal/workload"
)

// nodeSweep returns the population sizes exercised by the scaling
// experiments.
func nodeSweep(quick bool) []int {
	if quick {
		return []int{4, 8}
	}
	return []int{2, 4, 8, 16, 32}
}

func repeats(cfg Config) int {
	if cfg.Repeats > 0 {
		return cfg.Repeats
	}
	if cfg.Quick {
		return 2
	}
	return 5
}

// E1AcceptanceVsNodes measures the fraction of tasks served as the
// neighbourhood grows, for coalition formation versus the local-only
// baseline. The service (5 video tasks at 2x demand) deliberately exceeds
// a phone's capacity: the paper's "coalition formation is necessary when
// a single node cannot execute a specific service".
func E1AcceptanceVsNodes(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E1 acceptance ratio vs population size",
		"nodes", "coalition-acc", "local-acc", "coalition-util", "local-util", "rounds")
	nodes := nodeSweep(cfg.Quick)
	reps := repeats(cfg)
	acc, err := sweep(cfg, reps, nodes, func(n int, rep Rep) ([]float64, error) {
		scfg := workload.DefaultScenario(rep.Seed)
		scfg.Nodes = n
		svc := workload.StreamService("e1", 5, 2.0)

		// Local-only baseline on an identical, untouched scenario.
		scBase, err := workload.Build(scfg)
		if err != nil {
			return nil, err
		}
		la, err := baseline.LocalOnly{}.Allocate(snapshotProblem(scBase, svc))
		if err != nil {
			return nil, err
		}

		out, err := runCoalition(scfg, svc, core.DefaultOrganizerConfig, 0)
		if err != nil {
			return nil, err
		}
		return []float64{
			float64(len(out.Result.Assigned)) / float64(len(svc.Tasks)),
			float64(len(la.Assigned)) / float64(len(svc.Tasks)),
			out.MeanUtility,
			allocUtility(svc, la),
			float64(out.Result.Rounds),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range nodes {
		s := acc.Point(i)
		t.AddRow(n,
			metrics.Ratio(s[0].Mean(), 1), metrics.Ratio(s[1].Mean(), 1),
			s[2].Mean(), s[3].Mean(), s[4].Mean())
	}
	t.Note("service: 5 video tasks at 2.0x demand; organizer is always a phone; %d seeds per row", reps)
	return t, nil
}

// E2UtilityVsLoad compares the mean perceived utility (1 = preferred
// level, 0 = unserved) of the coalition protocol against the random and
// greedy baselines as per-task demand scales up on a fixed 16-node
// population.
func E2UtilityVsLoad(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E2 user-perceived utility vs load",
		"demand-scale", "coalition-util", "random-util", "greedy-util",
		"coalition-acc", "random-acc", "greedy-acc")
	scales := []float64{0.5, 1, 2, 4, 6}
	if cfg.Quick {
		scales = []float64{1, 4}
	}
	reps := repeats(cfg)
	acc, err := sweep(cfg, reps, scales, func(scale float64, rep Rep) ([]float64, error) {
		scfg := workload.DefaultScenario(rep.Seed)
		svc := workload.StreamService("e2", 6, scale)

		// Each baseline allocates on its own freshly built copy of the
		// identical scenario.
		runBase := func(name string, alloc baseline.Allocator) (util, accepted float64, err error) {
			scBase, err := workload.Build(scfg)
			if err != nil {
				return 0, 0, fmt.Errorf("%s: %w", name, err)
			}
			al, err := alloc.Allocate(snapshotProblem(scBase, svc))
			if err != nil {
				return 0, 0, fmt.Errorf("%s: %w", name, err)
			}
			return allocUtility(svc, al), float64(len(al.Assigned)) / float64(len(svc.Tasks)), nil
		}
		ru, ra, err := runBase("random", baseline.Random{Rng: newRng(rep.Seed)})
		if err != nil {
			return nil, err
		}
		gu, ga, err := runBase("greedy", baseline.Greedy{})
		if err != nil {
			return nil, err
		}

		out, err := runCoalition(scfg, svc, core.DefaultOrganizerConfig, 0)
		if err != nil {
			return nil, err
		}
		cu := out.MeanUtility
		ca := float64(len(out.Result.Assigned)) / float64(len(svc.Tasks))
		return []float64{cu, ru, gu, ca, ra, ga}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, scale := range scales {
		s := acc.Point(i)
		t.AddRow(scale, s[0].Mean(), s[1].Mean(), s[2].Mean(),
			metrics.Ratio(s[3].Mean(), 1), metrics.Ratio(s[4].Mean(), 1), metrics.Ratio(s[5].Mean(), 1))
	}
	t.Note("16 nodes, 6-task video service; utility counts unserved tasks as 0; %d seeds per row", reps)
	return t, nil
}

// E3MessageOverhead counts negotiation traffic per formed coalition as
// the population grows: broadcast CFPs fan out to every neighbour, so
// deliveries grow linearly while unicast replies track the population.
func E3MessageOverhead(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E3 negotiation message overhead",
		"nodes", "broadcasts", "unicasts", "deliveries", "kbytes", "proposals", "formation-s")
	nodes := nodeSweep(cfg.Quick)
	reps := repeats(cfg)
	acc, err := sweep(cfg, reps, nodes, func(n int, rep Rep) ([]float64, error) {
		scfg := workload.DefaultScenario(rep.Seed)
		scfg.Nodes = n
		// Disable heartbeats and monitoring so the counters measure
		// pure negotiation traffic.
		scfg.Provider.HeartbeatEvery = 0
		ocfg := core.DefaultOrganizerConfig
		ocfg.Monitor = false
		svc := workload.StreamService("e3", 4, 1.0)
		out, err := runCoalition(scfg, svc, ocfg, 0)
		if err != nil {
			return nil, err
		}
		return []float64{
			float64(out.Stats.Broadcasts),
			float64(out.Stats.Unicasts),
			float64(out.Stats.Deliveries),
			float64(out.Stats.Bytes) / 1024,
			float64(out.Result.ProposalsReceived),
			out.Result.FormationTime,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range nodes {
		s := acc.Point(i)
		t.AddRow(n, s[0].Mean(), s[1].Mean(), s[2].Mean(), s[3].Mean(), s[4].Mean(), s[5].Mean())
	}
	t.Note("4-task video service; heartbeats disabled, counts are pure negotiation traffic; %d seeds per row", reps)
	return t, nil
}

// E4CoalitionSize measures how the member-consolidation pass (criterion
// c) shrinks the coalition as the service grows, at equal or nearly equal
// evaluation value.
func E4CoalitionSize(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E4 coalition size: consolidation ablation",
		"tasks", "members(criterion-c)", "members(spread)", "dist(criterion-c)", "dist(spread)")
	sizes := []int{1, 2, 4, 6, 8}
	if cfg.Quick {
		sizes = []int{2, 4}
	}
	reps := repeats(cfg)
	acc, err := sweep(cfg, reps, sizes, func(nt int, rep Rep) ([]float64, error) {
		// 1.2x demand over a population without the access-point
		// giant: strong nodes saturate after a couple of tasks, so
		// packing (criterion c) and spreading genuinely differ.
		svc := workload.StreamService("e4", nt, 1.2)
		scfg := ablationScenario(rep.Seed)

		on := core.DefaultOrganizerConfig
		on.Policy = core.SelectionPolicy{DistanceEps: 0.1, UseCommCost: true, Consolidate: true}
		off := core.DefaultOrganizerConfig
		off.Policy = core.SelectionPolicy{DistanceEps: 0.1, UseCommCost: true, Spread: true}

		outOn, err := runCoalition(scfg, svc, on, 0)
		if err != nil {
			return nil, err
		}
		outOff, err := runCoalition(scfg, svc, off, 0)
		if err != nil {
			return nil, err
		}
		return []float64{
			float64(len(outOn.Result.Members())),
			float64(len(outOff.Result.Members())),
			outOn.Result.MeanDistance(),
			outOff.Result.MeanDistance(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, nt := range sizes {
		s := acc.Point(i)
		t.AddRow(nt, s[0].Mean(), s[1].Mean(), s[2].Mean(), s[3].Mean())
	}
	t.Note("16 nodes (phones/PDAs/laptops, no access point) at 1.2x demand; %d seeds per row", reps)
	t.Note("spread = load-balancing anti-policy: same distance band, prefers emptiest node")
	return t, nil
}

// E5HeuristicVsOptimal compares the Section 5 degradation heuristic
// against exhaustive search over the same ladder as local resources get
// scarcer. capacity = fraction x (demand of the preferred level). The
// point grid is deterministic (no seeds); the runner still fans the
// independent capacity fractions out across workers.
func E5HeuristicVsOptimal(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E5 degradation heuristic vs exhaustive optimum",
		"capacity-frac", "paper-reward", "resource-aware-reward", "optimal-reward",
		"paper-degr", "aware-degr", "optimal-degr")
	fracs := []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3}
	if cfg.Quick {
		fracs = []float64{1.0, 0.6, 0.3}
	}
	acc, err := sweep(cfg, 1, fracs, func(frac float64, rep Rep) ([]float64, error) {
		spec := workload.VideoSpec()
		req := workload.StreamingRequest("e5")
		dm := workload.VideoDemand(1.0)

		cp, err := core.CompileProblem(spec, &req, dm, 3, nil)
		if err != nil {
			return nil, err
		}
		preferred := cp.Ladder.Level(cp.Ladder.NewAssignment())
		prefDemand, err := dm.Demand(spec, preferred)
		if err != nil {
			return nil, err
		}
		capacity := prefDemand.Scale(frac)
		set := resource.NewSet(capacity)
		h, herr := cp.Formulate(set.CanReserve)
		ra, raerr := cp.FormulateResourceAware(set.CanReserve)
		o, oerr := cp.FormulateExhaustive(set.CanReserve, 1<<20)
		switch {
		case herr != nil && oerr != nil && raerr != nil:
			return []float64{nan, nan, nan, nan, nan, nan}, nil
		case herr != nil || oerr != nil || raerr != nil:
			return nil, fmt.Errorf("xp: formulators disagree on feasibility at frac %g: %v / %v / %v", frac, herr, raerr, oerr)
		default:
			return []float64{h.Reward, ra.Reward, o.Reward,
				float64(h.Degradations), float64(ra.Degradations), float64(o.Degradations)}, nil
		}
	})
	if err != nil {
		return nil, err
	}
	for i, frac := range fracs {
		vec := acc.Get(i, 0)
		if isNaN(vec[0]) {
			t.AddRow(frac, "infeasible", "infeasible", "infeasible", "-", "-", "-")
			continue
		}
		t.AddRow(frac, vec[0], vec[1], vec[2], int(vec[3]), int(vec[4]), int(vec[5]))
	}
	t.Note("video streaming request, grid 3; capacity scaled from the preferred level's demand")
	t.Note("paper = S5 heuristic (min reward loss); resource-aware = extension scoring relief per reward lost")
	return t, nil
}
