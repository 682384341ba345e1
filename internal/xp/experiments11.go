package xp

import (
	"repro/internal/adapt"
	"repro/internal/admit"
	"repro/internal/arrival"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/resource"
	"repro/internal/session"
	"repro/internal/workload"
)

// The admission-policy experiments (E29-E30) score the economic
// admission layer (internal/admit) against the clairvoyant oracle
// (baseline.Clairvoyant): every replication records its full arrival
// trace, the oracle's polynomial relaxation bounds the utility any
// policy could have extracted from that trace in hindsight, and the
// optimality gap 1 - achieved/bound says how much the online policy
// left on the table. Churn and fault injection stay off — the bound's
// accounting assumes clean, constant capacity (see baseline.Bound).

// admitRun drives one open-system replication like openRun, but with an
// admission policy installed, and scores the achieved admission-time
// utility against the clairvoyant bound of the recorded arrival trace.
// The fleet snapshot is taken before the run (clean capacities), and
// the bound's admission window is the policy's worst-case
// arrival-to-admission latency: queue MaxWait plus formation slack.
func admitRun(seed int64, nodes int, mix workload.Mix, cfg session.Config) (*session.Stats, float64, float64, error) {
	scfg := workload.DefaultScenario(seed)
	scfg.Nodes = nodes
	scfg.Mix = mix
	sc, err := workload.Build(scfg)
	if err != nil {
		return nil, 0, 0, err
	}
	adm := cfg.Admission.WithDefaults()
	tr := baseline.Trace{
		Horizon: cfg.Horizon,
		Window:  adm.MaxWait + 30,
	}
	for _, id := range sc.Cluster.Nodes() {
		tr.Nodes = append(tr.Nodes, baseline.NodeView{
			ID:  id,
			Res: resource.NewSet(sc.Cluster.Node(id).Res.Capacity()),
		})
	}
	eng, err := session.New(sc.Cluster, cfg, seed)
	if err != nil {
		return nil, 0, 0, err
	}
	st, err := eng.Run()
	if err != nil {
		return nil, 0, 0, err
	}
	for _, a := range eng.ArrivalTrace() {
		tr.Sessions = append(tr.Sessions, baseline.TraceSession{
			Arrive: a.T, Hold: a.Hold, Service: a.Svc,
		})
	}
	bound, err := baseline.Clairvoyant{}.Bound(&tr)
	if err != nil {
		return nil, 0, 0, err
	}
	return st, st.Admit.UtilitySum, bound, nil
}

// optGap is the optimality-gap column: the fraction of the clairvoyant
// bound the policy failed to extract, clamped to [0, 1]. A slack bound
// (or an empty trace) yields gap 0 rather than a negative artifact.
func optGap(utility, bound float64) float64 {
	if bound <= 0 {
		return 0
	}
	g := 1 - utility/bound
	if g < 0 {
		return 0
	}
	if g > 1 {
		return 1
	}
	return g
}

// admitPoint is one (arrival rate, admission policy) cell of E29.
type admitPoint struct {
	rate   float64
	policy admit.Policy
}

// E29AdmissionPolicies crosses the E17 load sweep with the three
// admission policies and scores each cell against the clairvoyant
// bound. Block is the PR-9 baseline economy; queue trades latency for
// admission by letting blocked sessions wait out transient congestion;
// yield buys admission by degrading incumbents when the arrival's
// marginal utility exceeds the drift cost. The gap column is the
// differential claim: no policy extracts more utility than the oracle
// bound allows (TestE29GapWithinBound checks utility <= bound per row).
func E29AdmissionPolicies(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E29 admission policy vs clairvoyant bound across offered load",
		"rate/s", "policy", "admission", "q-admit", "y-admit", "utility", "bound", "gap")
	rates := []float64{0.05, 0.2, 0.4}
	if cfg.Quick {
		rates = []float64{0.05, 0.2}
	}
	policies := []admit.Policy{admit.Block, admit.Queue, admit.Yield}
	var points []admitPoint
	for _, rate := range rates {
		for _, p := range policies {
			points = append(points, admitPoint{rate: rate, policy: p})
		}
	}
	const holdMean = 40.0
	horizon, warmup := openHorizon(cfg.Quick)
	reps := repeats(cfg)
	acc, err := sweep(cfg, reps, points, func(p admitPoint, rep Rep) ([]float64, error) {
		scfg := session.Config{
			Arrivals:   arrival.Poisson{Rate: p.rate},
			NewService: workload.SessionTemplate{Name: "e29", Tasks: 3, Scale: 1.0}.Instantiate,
			HoldMean:   holdMean,
			Horizon:    horizon,
			Warmup:     warmup,
			Organizer:  core.DefaultOrganizerConfig,
			Trace:      rep.Trace,
			Admission:  &admit.Config{Policy: p.policy},
		}
		if p.policy == admit.Yield {
			// Yield degrades incumbents through the adaptation engine;
			// churn repair config is moot (no churn here), but the
			// engine requires an owner for its ladder bookkeeping.
			scfg.Organizer = adaptOrganizer()
			scfg.Adapt = &adapt.Config{OnChurn: adapt.DegradeToFit}
		}
		st, utility, bound, err := admitRun(rep.Seed, 16, nil, scfg)
		if err != nil {
			return nil, err
		}
		return []float64{
			st.AdmissionRatio(),
			float64(st.Admit.QueueAdmits), float64(st.Admit.YieldAdmits),
			utility, bound, optGap(utility, bound),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		s := acc.Point(i)
		t.AddRow(p.rate, p.policy.String(), metrics.Ratio(s[0].Mean(), 1),
			s[1].Mean(), s[2].Mean(), s[3].Mean(), s[4].Mean(), s[5].Mean())
	}
	t.Note("16 nodes; 3-task sessions at 1.0x demand, exponential holding mean %gs; horizon %gs, warmup %gs; %d seeds per row", holdMean, horizon, warmup, reps)
	t.Note("utility = sum of admission-time eq. 3 utility over all admitted sessions (full horizon); bound = clairvoyant fractional-knapsack relaxation of the recorded trace; gap = 1 - utility/bound, clamped to [0, 1]")
	t.Note("queue: 30s max wait, 5s retry; yield: up to 8 incumbent degrade steps when marginal gain exceeds drift cost; no churn or faults (bound validity)")
	return t, nil
}

// E30QueueVsYieldBurst drives the E23 burst shape through all three
// policies: deep transient overloads are exactly where the policies
// diverge. Queue rides the burst out — arrivals wait for the trough and
// admission recovers at a latency cost; yield meets the burst head-on —
// incumbents shed QoS (drift) to make room immediately. Block, the
// baseline, simply loses the burst's arrivals. The gap column keeps all
// three under the clairvoyant bound of the identical recorded trace.
func E30QueueVsYieldBurst(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E30 queue vs yield under burst overload",
		"policy", "admission", "q-admit", "expired", "y-admit", "reverted", "drift", "utility", "gap")
	policies := []admit.Policy{admit.Block, admit.Queue, admit.Yield}
	const mean = 0.15
	const holdMean = 40.0
	horizon, warmup := openHorizon(cfg.Quick)
	period := (horizon - warmup) / 4
	reps := repeats(cfg)
	acc, err := sweep(cfg, reps, policies, func(policy admit.Policy, rep Rep) ([]float64, error) {
		scfg := session.Config{
			// The E18/E23 burst shape: 10% of each period at 7.75x the
			// mean rate, mean preserved — deep transient overloads at
			// equal mean load.
			Arrivals: arrival.Inhomogeneous{Profile: arrival.Burst{
				Base: mean / 4, Burst: mean/4 + (3.0/4.0)*mean*10,
				Period: period, BurstLen: period / 10,
			}},
			NewService: workload.SessionTemplate{Name: "e30", Tasks: 3, Scale: 1.0}.Instantiate,
			HoldMean:   holdMean,
			Horizon:    horizon,
			Warmup:     warmup,
			Organizer:  adaptOrganizer(),
			Trace:      rep.Trace,
			Admission:  &admit.Config{Policy: policy},
			// Full adaptation on every row so the rows differ only in
			// admission policy: yield's degrades and the pressure
			// trigger's degrades share one reclamation economy, and the
			// post-burst epoch scans upgrade both back. No node churn —
			// the clairvoyant bound requires constant capacity.
			Adapt: &adapt.Config{
				OnChurn:           adapt.DegradeToFit,
				DegradeOnPressure: true, UtilHigh: 0.85,
				UpgradeOnSlack: true, UtilLow: 0.6,
				Epoch: 10,
			},
		}
		st, utility, bound, err := admitRun(rep.Seed, 16, workload.ChurnMix, scfg)
		if err != nil {
			return nil, err
		}
		return []float64{
			st.AdmissionRatio(),
			float64(st.Admit.QueueAdmits), float64(st.Admit.Expired),
			float64(st.Admit.YieldAdmits), float64(st.Admit.YieldReverted),
			st.Adapt.MeanDrift(), utility, optGap(utility, bound),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, policy := range policies {
		s := acc.Point(i)
		t.AddRow(policy.String(), metrics.Ratio(s[0].Mean(), 1),
			s[1].Mean(), s[2].Mean(), s[3].Mean(), s[4].Mean(),
			s[5].Mean(), s[6].Mean(), s[7].Mean())
	}
	t.Note("16 nodes, burst arrivals at %.2f sessions/s mean (10%% of each %gs period at 7.75x), holding %gs; %d seeds per row", mean, period, holdMean, reps)
	t.Note("all rows run degrade+upgrade adaptation (pressure 0.85, hysteresis 0.6, epoch 10s); queue: 30s max wait, 5s retry; drift = mean (departure - admission) distance; no churn or faults (bound validity)")
	return t, nil
}
