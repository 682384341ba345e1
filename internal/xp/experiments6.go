package xp

import (
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/resource"
	"repro/internal/session"
	"repro/internal/workload"
)

// The open-system experiments (E17-E19) leave the one-shot world behind:
// sessions arrive continuously from a seeded arrival process, negotiate,
// operate for a holding time, and dissolve, while E19 additionally
// churns helper nodes off the air. All three run the session lifecycle
// engine on the shared virtual clock and report steady-state statistics
// over [warmup, horizon].

// openRun builds a fresh neighbourhood (mix nil = the default
// population) and drives one open-system replication to its horizon.
func openRun(seed int64, nodes int, mix workload.Mix, cfg session.Config) (*session.Stats, error) {
	scfg := workload.DefaultScenario(seed)
	scfg.Nodes = nodes
	scfg.Mix = mix
	sc, err := workload.Build(scfg)
	if err != nil {
		return nil, err
	}
	eng, err := session.New(sc.Cluster, cfg, seed)
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// openHorizon returns the (horizon, warmup) pair for the configuration
// size: long enough past warmup that offered load, not the initial
// transient, dominates the averages.
func openHorizon(quick bool) (horizon, warmup float64) {
	if quick {
		return 300, 60
	}
	return 1200, 120
}

// E17OfferedLoad sweeps the session arrival rate at fixed holding time
// over a 16-node neighbourhood: the open-system analogue of E2's load
// axis. As offered load (arrival rate x holding time, in erlangs of
// concurrent sessions) grows past what the population can carry,
// admission falls, the steady-state QoS distance of the sessions that
// do get in degrades, and per-resource utilization saturates.
func E17OfferedLoad(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E17 steady-state admission and QoS vs offered load",
		"rate/s", "offered-erl", "admission", "blocking", "live-avg", "live-peak",
		"qos-dist", "cpu-util", "net-util")
	rates := []float64{0.02, 0.05, 0.1, 0.2, 0.4}
	if cfg.Quick {
		rates = []float64{0.05, 0.2}
	}
	const holdMean = 40.0
	horizon, warmup := openHorizon(cfg.Quick)
	reps := repeats(cfg)
	acc, err := sweep(cfg, reps, rates, func(rate float64, rep Rep) ([]float64, error) {
		tmpl := workload.SessionTemplate{Name: "e17", Tasks: 3, Scale: 1.0}
		st, err := openRun(rep.Seed, 16, nil, session.Config{
			Arrivals:   arrival.Poisson{Rate: rate},
			NewService: tmpl.Instantiate,
			HoldMean:   holdMean,
			Horizon:    horizon,
			Warmup:     warmup,
			Organizer:  core.DefaultOrganizerConfig,
			Trace:      rep.Trace,
		})
		if err != nil {
			return nil, err
		}
		return []float64{
			st.AdmissionRatio(), st.BlockingRatio(),
			st.LiveAvg, float64(st.PeakLive), st.DistanceAvg,
			st.Util[resource.CPU], st.Util[resource.NetBW],
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, rate := range rates {
		s := acc.Point(i)
		t.AddRow(rate, rate*holdMean,
			metrics.Ratio(s[0].Mean(), 1), metrics.Ratio(s[1].Mean(), 1),
			s[2].Mean(), s[3].Mean(), s[4].Mean(), s[5].Mean(), s[6].Mean())
	}
	t.Note("16 nodes; 3-task sessions at 1.0x demand, exponential holding mean %gs; horizon %gs, warmup %gs; %d seeds per row", holdMean, horizon, warmup, reps)
	t.Note("admitted = all tasks assigned on first formation; blocked sessions dissolve immediately")
	return t, nil
}

// E18ArrivalShapes compares arrival processes at equal mean offered
// load: the same number of sessions per hour arrives uniformly,
// diurnally (sinusoid), in periodic bursts, or modulated by an on/off
// Markov chain. Mean load alone does not determine steady-state
// quality — the burstier the process, the deeper the transient
// overloads and the higher the blocking at equal mean.
func E18ArrivalShapes(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E18 arrival shape at equal mean load",
		"shape", "arrivals", "admission", "live-avg", "live-peak", "qos-dist", "cpu-util")
	const mean = 0.15
	const holdMean = 40.0
	horizon, warmup := openHorizon(cfg.Quick)
	// Four full cycles inside the measurement window [warmup, horizon]:
	// over an integer number of periods the sinusoid integrates to its
	// mean and the burst windows cover exactly their calibrated
	// fraction, whatever the phase — so the deterministic shapes offer
	// *exactly* equal in-window load, not just equal long-run load.
	period := (horizon - warmup) / 4
	shapes := []string{"constant", "diurnal", "burst", "mmpp"}
	if cfg.Quick {
		shapes = []string{"constant", "burst"}
	}
	process := func(shape string) arrival.Process {
		switch shape {
		case "constant":
			return arrival.Poisson{Rate: mean}
		case "diurnal":
			return arrival.Inhomogeneous{Profile: arrival.Diurnal{Mean: mean, Amplitude: 0.9, Period: period}}
		case "burst":
			// 10% of each period at 7.75x the mean rate (31x the quiet
			// base of mean/4), mean preserved.
			return arrival.Inhomogeneous{Profile: arrival.Burst{
				Base: mean / 4, Burst: mean/4 + (3.0/4.0)*mean*10,
				Period: period, BurstLen: period / 10,
			}}
		default: // mmpp
			// On one third of the time at 3x the mean, off otherwise.
			return &arrival.MMPP{OnRate: 3 * mean, MeanOn: period / 3, MeanOff: 2 * period / 3}
		}
	}
	reps := repeats(cfg)
	acc, err := sweep(cfg, reps, shapes, func(shape string, rep Rep) ([]float64, error) {
		tmpl := workload.SessionTemplate{Name: "e18", Tasks: 3, Scale: 1.0}
		st, err := openRun(rep.Seed, 16, nil, session.Config{
			Arrivals:   process(shape),
			NewService: tmpl.Instantiate,
			HoldMean:   holdMean,
			Horizon:    horizon,
			Warmup:     warmup,
			Organizer:  core.DefaultOrganizerConfig,
		})
		if err != nil {
			return nil, err
		}
		return []float64{
			float64(st.Arrivals), st.AdmissionRatio(),
			st.LiveAvg, float64(st.PeakLive), st.DistanceAvg,
			st.Util[resource.CPU],
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, shape := range shapes {
		s := acc.Point(i)
		t.AddRow(shape, s[0].Mean(), metrics.Ratio(s[1].Mean(), 1),
			s[2].Mean(), s[3].Mean(), s[4].Mean(), s[5].Mean())
	}
	t.Note("all shapes calibrated to %.2f sessions/s mean (%.0f erlangs offered); period %gs, 4 full cycles in-window; %d seeds per row", mean, mean*holdMean, period, reps)
	t.Note("diurnal = sinusoid amplitude 0.9; burst = 10%% of period at 7.75x the mean; mmpp = on/off at 3x mean, on 1/3 of the time")
	return t, nil
}

// E19CombinedChurn runs service arrivals and node churn together: the
// paper's spontaneous neighbourhood where both the offered services and
// the helping devices come and go. Leave events take a helper off the
// air mid-coalition; the operation-phase monitor detects the silent
// member and renegotiates, so reconfiguration rate — not just admission
// — is the cost axis of node volatility.
func E19CombinedChurn(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E19 combined service and node churn",
		"leaves/h", "admission", "qos-dist", "reconf/h", "member-failures", "node-leaves", "live-avg")
	perHour := []float64{0, 30, 120, 360}
	if cfg.Quick {
		perHour = []float64{0, 120}
	}
	const rate = 0.1
	const holdMean = 40.0
	horizon, warmup := openHorizon(cfg.Quick)
	reps := repeats(cfg)
	acc, err := sweep(cfg, reps, perHour, func(lph float64, rep Rep) ([]float64, error) {
		tmpl := workload.SessionTemplate{Name: "e19", Tasks: 3, Scale: 1.0}
		scfg := session.Config{
			Arrivals:   arrival.Poisson{Rate: rate},
			NewService: tmpl.Instantiate,
			HoldMean:   holdMean,
			Horizon:    horizon,
			Warmup:     warmup,
			Organizer:  core.DefaultOrganizerConfig,
		}
		if lph > 0 {
			scfg.Churn = &session.ChurnConfig{
				Leave:    arrival.Poisson{Rate: lph / 3600},
				DownMean: 30,
			}
		}
		// No access-point giant (workload.ChurnMix): a leave event has
		// a real chance of hitting a serving member and forcing a
		// reconfiguration.
		st, err := openRun(rep.Seed, 16, workload.ChurnMix, scfg)
		if err != nil {
			return nil, err
		}
		return []float64{
			st.AdmissionRatio(), st.DistanceAvg,
			st.ReconfigPerHour(horizon),
			float64(st.MemberFailures), float64(st.NodeLeaves),
			st.LiveAvg,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, lph := range perHour {
		s := acc.Point(i)
		t.AddRow(lph, metrics.Ratio(s[0].Mean(), 1), s[1].Mean(),
			s[2].Mean(), s[3].Mean(), s[4].Mean(), s[5].Mean())
	}
	t.Note("16 nodes; %.2f sessions/s, holding %gs; leave victims rejoin after 30s mean downtime with soft state wiped", rate, holdMean)
	t.Note("organizer node 0 is churn-protected; reconf/h normalized to the %gs horizon; %d seeds per row", horizon, reps)
	return t, nil
}
