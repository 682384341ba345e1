package xp

import (
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/session"
	"repro/internal/workload"
)

// The chaos experiments (E25-E27) run the open system against the
// deterministic fault injector (internal/faults): message loss (i.i.d.
// and bursty), duplication, node freezes and transient partitions. They
// quantify what the partial-failure hardening buys — blind
// retransmission with backoff (internal/proto), receiver-side
// deduplication, and the reservation-reconciliation sweep
// (internal/session). Like every table they are golden-pinned: the
// injector draws from private seeded rngs, so a chaos run is as
// bit-reproducible as a clean one.

// chaosOutcome bundles one faulted replication with the overhead
// counters its tables report.
type chaosOutcome struct {
	Stats *session.Stats
	// Retx and Dups are the cluster-wide reliability-layer totals —
	// retransmissions issued and duplicate deliveries suppressed — read
	// from the run's unified counter snapshot (Stats.Counters), which
	// replaced the old loop summing per-node accessors by hand.
	Retx, Dups uint64
	// Faults is what the injector actually did (zero without a plan).
	Faults faults.Stats
}

// chaosRun drives one open-system replication with an optional retry
// configuration and fault plan. The injector's horizon is the session
// horizon, so the plan heals before the drain and leak accounting
// isolates what the faults orphaned.
func chaosRun(seed int64, nodes int, retry proto.RetryConfig, plan *faults.Plan, cfg session.Config) (*chaosOutcome, error) {
	scfg := workload.DefaultScenario(seed)
	scfg.Nodes = nodes
	scfg.Retry = retry
	sc, err := workload.Build(scfg)
	if err != nil {
		return nil, err
	}
	var inj *faults.Injector
	if plan != nil {
		inj, err = faults.New(seed, cfg.Horizon, sc.Cluster.Nodes(), *plan)
		if err != nil {
			return nil, err
		}
		cfg.Faults = inj
	}
	eng, err := session.New(sc.Cluster, cfg, seed)
	if err != nil {
		return nil, err
	}
	st, err := eng.Run()
	if err != nil {
		return nil, err
	}
	out := &chaosOutcome{
		Stats: st,
		Retx:  st.Counters.Get(obs.Retransmissions),
		Dups:  st.Counters.Get(obs.Duplicates),
	}
	if inj != nil {
		out.Faults = inj.Stats
	}
	return out, nil
}

// chaosFormationConfig is the admission-isolating session configuration
// E25/E26 share: a tight two-round formation deadline (so a lost
// handshake message costs the admission instead of hiding behind
// renegotiation retries), no operation-phase monitor and no adaptation
// (so the only moving part is the formation handshake), and a periodic
// reconciliation sweep reclaiming whatever dropped releases orphan.
func chaosFormationConfig(quick bool, tmpl workload.SessionTemplate) session.Config {
	horizon, warmup := openHorizon(quick)
	ocfg := core.DefaultOrganizerConfig
	ocfg.MaxRounds = 2
	ocfg.Monitor = false
	ocfg.Reconfigure = false
	return session.Config{
		Arrivals:       arrival.Poisson{Rate: 0.1},
		NewService:     tmpl.Instantiate,
		HoldMean:       40,
		Horizon:        horizon,
		Warmup:         warmup,
		Organizer:      ocfg,
		ReconcileEvery: 10,
	}
}

// E25LossRetry sweeps i.i.d. message loss and compares three arms per
// seed: a clean run (no faults), the bare protocol under loss, and the
// hardened protocol (3 transmissions, exponential backoff with
// deterministic jitter, receiver dedup) under the same loss. The
// recovered column is the fraction of the admission lost to the faults
// that retransmission wins back — the headline robustness number.
func E25LossRetry(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E25 admission under message loss: blind retransmission vs bare protocol",
		"loss", "adm-clean", "adm-bare", "adm-retry", "recovered", "retx", "dup-drops")
	losses := []float64{0.05, 0.1, 0.2}
	if cfg.Quick {
		losses = []float64{0.1, 0.2}
	}
	reps := repeats(cfg)
	acc, err := sweep(cfg, reps, losses, func(loss float64, rep Rep) ([]float64, error) {
		tmpl := workload.SessionTemplate{Name: "e25", Tasks: 3, Scale: 1.0}
		mk := func() session.Config { return chaosFormationConfig(cfg.Quick, tmpl) }
		clean, err := chaosRun(rep.Seed, 16, proto.RetryConfig{}, nil, mk())
		if err != nil {
			return nil, err
		}
		plan := &faults.Plan{Loss: loss}
		bare, err := chaosRun(rep.Seed, 16, proto.RetryConfig{}, plan, mk())
		if err != nil {
			return nil, err
		}
		traced := mk()
		traced.Trace = rep.Trace
		retry, err := chaosRun(rep.Seed, 16, proto.DefaultRetryConfig, plan, traced)
		if err != nil {
			return nil, err
		}
		return []float64{
			clean.Stats.AdmissionRatio(), bare.Stats.AdmissionRatio(),
			retry.Stats.AdmissionRatio(),
			float64(retry.Retx), float64(retry.Dups),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, loss := range losses {
		s := acc.Point(i)
		admClean, admBare, admRetry := s[0].Mean(), s[1].Mean(), s[2].Mean()
		recovered := 1.0 // nothing was lost, so nothing was left unrecovered
		if admClean > admBare {
			recovered = (admRetry - admBare) / (admClean - admBare)
		}
		t.AddRow(loss, metrics.Ratio(admClean, 1), metrics.Ratio(admBare, 1),
			metrics.Ratio(admRetry, 1), metrics.Ratio(recovered, 1),
			s[3].Mean(), s[4].Mean())
	}
	horizon, _ := openHorizon(cfg.Quick)
	t.Note("16 nodes; 3-task sessions at 0.10/s, holding 40s, horizon %gs; formation deadline 2 rounds, monitor off; %d seeds per row", horizon, reps)
	t.Note("retry = 3 transmissions, 50/100ms backoff with deterministic jitter, receiver dedup; recovered = share of fault-lost admission won back")
	return t, nil
}

// E26BurstLoss holds the mean drop rate fixed and changes only its
// shape: i.i.d. loss vs an on/off burst process (90%% loss during ON
// phases of mean 2s, calibrated OFF dwell for the same long-run mean).
// Retransmission backoff is bounded well under a burst, so all three
// transmissions of a handshake can die inside one ON phase — equal mean
// loss does not mean equal admission.
func E26BurstLoss(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E26 loss shape at equal mean drop rate",
		"shape", "admission", "qos-dist", "drops", "retx", "dup-drops")
	shapes := []string{"iid", "burst"}
	const meanLoss = 0.1
	// Burst ON fraction f solves LossOn*f = meanLoss: with LossOn 0.9
	// and MeanOn 2s, f = 1/9 so MeanOff = 8*MeanOn = 16s.
	plans := map[string]*faults.Plan{
		"iid":   {Loss: meanLoss},
		"burst": {Burst: &faults.BurstLoss{LossOn: 0.9, MeanOn: 2, MeanOff: 16}},
	}
	reps := repeats(cfg)
	acc, err := sweep(cfg, reps, shapes, func(shape string, rep Rep) ([]float64, error) {
		tmpl := workload.SessionTemplate{Name: "e26", Tasks: 3, Scale: 1.0}
		scfg := chaosFormationConfig(cfg.Quick, tmpl)
		scfg.Trace = rep.Trace
		out, err := chaosRun(rep.Seed, 16, proto.DefaultRetryConfig, plans[shape], scfg)
		if err != nil {
			return nil, err
		}
		return []float64{
			out.Stats.AdmissionRatio(), out.Stats.DistanceAvg,
			float64(out.Faults.Drops), float64(out.Retx), float64(out.Dups),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, shape := range shapes {
		s := acc.Point(i)
		t.AddRow(shape, metrics.Ratio(s[0].Mean(), 1), s[1].Mean(),
			s[2].Mean(), s[3].Mean(), s[4].Mean())
	}
	t.Note("both shapes drop %.0f%% of deliveries in the long run; burst = 90%% loss in ON phases of mean 2s (OFF mean 16s)", meanLoss*100)
	t.Note("retry on in both arms (same schedule as E25); workload as E25")
	return t, nil
}

// E27PartitionHeal opens periodic 2-way splits of growing length under
// the full protocol path — operation-phase heartbeat monitor and
// reconfiguration on, retry on, no adaptation engine. Members across
// the cut go silent, the organizer reconfigures onto its own side, and
// the reservations stranded on the far side (their releases were cut
// too) are reclaimed by the reconciliation sweep once the split heals.
func E27PartitionHeal(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E27 transient partitions: reconfiguration and reservation reclamation",
		"part-len", "admission", "qos-dist", "reconf/h", "member-fail", "reclaimed")
	lens := []float64{0, 10, 20, 40}
	if cfg.Quick {
		lens = []float64{0, 20}
	}
	horizon, _ := openHorizon(cfg.Quick)
	reps := repeats(cfg)
	acc, err := sweep(cfg, reps, lens, func(plen float64, rep Rep) ([]float64, error) {
		tmpl := workload.SessionTemplate{Name: "e27", Tasks: 3, Scale: 1.0}
		scfg := chaosFormationConfig(cfg.Quick, tmpl)
		// Full protocol path: default formation deadline, monitor and
		// reconfiguration on — the partition is an operation-phase event.
		scfg.Organizer = core.DefaultOrganizerConfig
		var plan *faults.Plan
		if plen > 0 {
			plan = &faults.Plan{Partition: &faults.PartitionPlan{K: 2, Every: 60, Len: plen}}
		}
		out, err := chaosRun(rep.Seed, 16, proto.DefaultRetryConfig, plan, scfg)
		if err != nil {
			return nil, err
		}
		st := out.Stats
		return []float64{
			st.AdmissionRatio(), st.DistanceAvg,
			st.ReconfigPerHour(horizon),
			float64(st.MemberFailures), float64(st.Reclaimed()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, plen := range lens {
		s := acc.Point(i)
		t.AddRow(plen, metrics.Ratio(s[0].Mean(), 1), s[1].Mean(),
			s[2].Mean(), s[3].Mean(), s[4].Mean())
	}
	t.Note("2-way splits every 60s for part-len seconds, group membership re-hashed per window; retry on; monitor+reconfigure on, no adaptation engine")
	t.Note("reclaimed = orphaned reservations released by the reconciliation sweep (every 10s and after the drain); %d seeds per row", reps)
	return t, nil
}
