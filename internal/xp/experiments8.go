package xp

import (
	"repro/internal/adapt"
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/session"
	"repro/internal/workload"
)

// The adaptation experiments (E22-E24) measure what mid-session QoS
// renegotiation buys: instead of holding every admitted session at its
// admission-time levels (and killing it when churn takes a member), the
// adapt engine repairs churn-orphaned tasks via the degradation walk,
// sheds QoS under utilisation pressure, and reclaims it at epoch scans.
// All three derive every draw from the replication seed and the adapt
// engine draws no randomness at all, so the tables are bit-identical at
// any -parallel width (scripts/determinism.sh pins E22 and E24).

// adaptOrganizer is the organizer configuration for adaptation runs:
// heartbeat monitoring and protocol-level reconfiguration are off, so
// the adaptation engine is the single owner of churn repair (DESIGN.md
// §10's ownership rule).
func adaptOrganizer() core.OrganizerConfig {
	ocfg := core.DefaultOrganizerConfig
	ocfg.Monitor = false
	ocfg.Reconfigure = false
	return ocfg
}

// E22AdaptChurn compares churn repair policies under identical node
// churn: kill (the PR-3 baseline — an affected session dies), migrate
// (re-place orphaned tasks at their current level) and degrade
// (re-place at the smallest QoS degradation that restores feasibility).
// Survival rises monotonically from kill to degrade under the same
// seeds, and the degrade column shows the price: mean distance drift —
// how much worse than admission-time QoS the surviving sessions run.
func E22AdaptChurn(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E22 churn repair policy: degrade vs migrate vs kill",
		"policy", "survival", "admission", "qos-dist", "drift", "repairs", "kills", "leaves")
	policies := []adapt.ChurnPolicy{adapt.KillAffected, adapt.MigrateExact, adapt.DegradeToFit}
	const rate = 0.1
	const holdMean = 40.0
	const leavesPerHour = 360.0
	horizon, warmup := openHorizon(cfg.Quick)
	reps := repeats(cfg)
	acc, err := sweep(cfg, reps, policies, func(policy adapt.ChurnPolicy, rep Rep) ([]float64, error) {
		scfg := session.Config{
			Arrivals:   arrival.Poisson{Rate: rate},
			NewService: workload.SessionTemplate{Name: "e22", Tasks: 3, Scale: 1.0}.Instantiate,
			HoldMean:   holdMean,
			Horizon:    horizon,
			Warmup:     warmup,
			Organizer:  adaptOrganizer(),
			Churn: &session.ChurnConfig{
				Leave:    arrival.Poisson{Rate: leavesPerHour / 3600},
				DownMean: 30,
			},
			Adapt: &adapt.Config{OnChurn: policy},
		}
		st, err := openRun(rep.Seed, 16, workload.ChurnMix, scfg)
		if err != nil {
			return nil, err
		}
		return []float64{
			st.SurvivalRatio(), st.AdmissionRatio(), st.DistanceAvg,
			st.Adapt.MeanDrift(), float64(st.Adapt.Repairs),
			float64(st.Adapt.Kills), float64(st.NodeLeaves),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, policy := range policies {
		s := acc.Point(i)
		t.AddRow(policy.String(), metrics.Ratio(s[0].Mean(), 1), metrics.Ratio(s[1].Mean(), 1),
			s[2].Mean(), s[3].Mean(), s[4].Mean(), s[5].Mean(), s[6].Mean())
	}
	t.Note("16 nodes (no AP giant), %.2f sessions/s, holding %gs, %g leaves/h with 30s mean downtime; %d seeds per row", rate, holdMean, leavesPerHour, reps)
	t.Note("survival = admitted sessions not killed; drift = mean (departure - admission) QoS distance of surviving sessions; organizer monitor off — the adapt engine owns churn repair")
	return t, nil
}

// E23UpgradeReclamation drives a burst arrival profile through the
// pressure/reclamation triggers: during the burst the engine sheds QoS
// from live sessions (freeing capacity that lifts admission), and after
// the burst the epoch scans upgrade the degraded survivors back toward
// their admission-time levels. Comparing fixed / degrade-only /
// degrade+upgrade shows both halves: degradation buys admission at a
// distance cost, reclamation claws the distance back once the burst
// passes.
func E23UpgradeReclamation(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E23 upgrade reclamation after burst load",
		"policy", "admission", "qos-dist", "drift", "degrades", "upgrades", "adapted")
	policies := []string{"fixed", "degrade", "degrade+upgrade"}
	const mean = 0.15
	const holdMean = 40.0
	horizon, warmup := openHorizon(cfg.Quick)
	period := (horizon - warmup) / 4
	reps := repeats(cfg)
	acc, err := sweep(cfg, reps, policies, func(policy string, rep Rep) ([]float64, error) {
		scfg := session.Config{
			// The E18 burst shape: 10% of each period at 7.75x the mean
			// rate, mean preserved — deep transient overloads at equal
			// mean load.
			Arrivals: arrival.Inhomogeneous{Profile: arrival.Burst{
				Base: mean / 4, Burst: mean/4 + (3.0/4.0)*mean*10,
				Period: period, BurstLen: period / 10,
			}},
			NewService: workload.SessionTemplate{Name: "e23", Tasks: 3, Scale: 1.0}.Instantiate,
			HoldMean:   holdMean,
			Horizon:    horizon,
			Warmup:     warmup,
			Organizer:  adaptOrganizer(),
		}
		if policy != "fixed" {
			scfg.Adapt = &adapt.Config{
				OnChurn:           adapt.DegradeToFit,
				DegradeOnPressure: true, UtilHigh: 0.85,
				UpgradeOnSlack: policy == "degrade+upgrade", UtilLow: 0.6,
				Epoch: 10,
			}
		}
		st, err := openRun(rep.Seed, 16, workload.ChurnMix, scfg)
		if err != nil {
			return nil, err
		}
		return []float64{
			st.AdmissionRatio(), st.DistanceAvg, st.Adapt.MeanDrift(),
			float64(st.Adapt.Degrades), float64(st.Adapt.Upgrades),
			float64(st.Adapt.AdaptedSessions),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, policy := range policies {
		s := acc.Point(i)
		t.AddRow(policy, metrics.Ratio(s[0].Mean(), 1), s[1].Mean(), s[2].Mean(),
			s[3].Mean(), s[4].Mean(), s[5].Mean())
	}
	t.Note("16 nodes, burst arrivals at %.2f sessions/s mean (10%% of each %gs period at 7.75x), holding %gs; %d seeds per row", mean, period, holdMean, reps)
	t.Note("pressure threshold 0.85 max-kind node utilisation, reclamation hysteresis 0.6, epoch 10s; drift = mean (departure - admission) distance over departed sessions; adapted = departed sessions with at least one adaptation event")
	return t, nil
}

// E24CityAdaptation scales adaptation out to the city fabric: a 3x3
// hotspot grid under per-shard node churn, with the centre shard
// carrying 8x the edge load. Without adaptation every churn-affected
// session dies (the kill baseline); with degrade+upgrade repair the
// city-wide survival recovers, and the merged per-shard stats show the
// adaptation work concentrating where the load is — the hot shard
// degrades and reclaims, the edges barely adapt.
func E24CityAdaptation(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E24 city-scale adaptation under hotspot imbalance",
		"policy", "survival", "admission", "hot-blocking", "edge-blocking",
		"drift", "repairs", "kills", "hot-share")
	policies := []adapt.ChurnPolicy{adapt.KillAffected, adapt.DegradeToFit}
	const totalRate = 0.99
	reps := repeats(cfg)
	acc, err := sweep(cfg, reps, policies, func(policy adapt.ChurnPolicy, rep Rep) ([]float64, error) {
		horizon, warmup := openHorizon(cfg.Quick)
		res, err := fabric.Run(fabric.Config{
			City: workload.CityScenario{
				Rows: 3, Cols: 3, NodesPerShard: 16,
				TotalRate: totalRate, Profile: workload.CityHotspot, HotspotBoost: 8,
			},
			Template:     workload.SessionTemplate{Name: "e24", Tasks: 3, Scale: 1.0},
			HoldMean:     40,
			Horizon:      horizon,
			Warmup:       warmup,
			Organizer:    adaptOrganizer(),
			ChurnPerHour: 120, ChurnDownMean: 30,
			Adapt: &adapt.Config{
				OnChurn:           policy,
				DegradeOnPressure: policy == adapt.DegradeToFit, UtilHigh: 0.85,
				UpgradeOnSlack: policy == adapt.DegradeToFit, UtilLow: 0.6,
				Epoch: 10,
			},
			Parallel: cfg.Parallel,
			Seed:     rep.Seed,
		})
		if err != nil {
			return nil, err
		}
		hotShard, edge := splitHotEdge(res)
		hot := hotShard.Stats
		city := &res.City
		hotShare := 0.0
		if n := city.Adapt.Repairs + city.Adapt.Degrades + city.Adapt.Upgrades; n > 0 {
			hotShare = float64(hot.Adapt.Repairs+hot.Adapt.Degrades+hot.Adapt.Upgrades) / float64(n)
		}
		return []float64{
			city.SurvivalRatio(), city.AdmissionRatio(),
			hot.BlockingRatio(), edge.BlockingRatio(),
			city.Adapt.MeanDrift(), float64(city.Adapt.Repairs),
			float64(city.Adapt.Kills), hotShare,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, policy := range policies {
		s := acc.Point(i)
		t.AddRow(policy.String(), metrics.Ratio(s[0].Mean(), 1), metrics.Ratio(s[1].Mean(), 1),
			metrics.Ratio(s[2].Mean(), 1), metrics.Ratio(s[3].Mean(), 1),
			s[4].Mean(), s[5].Mean(), s[6].Mean(), metrics.Ratio(s[7].Mean(), 1))
	}
	t.Note("3x3 grid of 16-node shards, city load %.2f sessions/s with hotspot boost 8, 120 leaves/h per shard (30s mean downtime); %d seeds per row", totalRate, reps)
	t.Note("hot-share = fraction of all adaptation events (repairs+degrades+upgrades) in the centre shard; organizer monitor off — the adapt engine owns churn repair")
	return t, nil
}
