package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/adapt"
	"repro/internal/admit"
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/radio"
	"repro/internal/session"
	"repro/internal/task"
	"repro/internal/workload"
)

// simSpec is one simulated workload: the open system a replication
// builds and runs to its horizon. An op is one session handed to the
// engine (one NewService call), warm-up arrivals included — the host
// does that work too.
type simSpec struct {
	name            string
	nodes           int
	rate, hold      float64
	tmpl            workload.SessionTemplate
	horizon, warmup float64
	// chaos turns on everything sim-chaos adds: the churn-sensitive mix,
	// the reliability layer, node churn, adaptation, yield admission,
	// message loss and the reconciliation sweep.
	chaos bool
}

// The sizes below are part of the benchmark's definition: changing one
// changes every number measured after it. README.md says why each
// workload exists.
var simSpecs = []simSpec{
	{name: "sim-negotiate", nodes: 16, rate: 1.0, hold: 3,
		tmpl:    workload.SessionTemplate{Name: "neg", Tasks: 4, Scale: 1},
		horizon: 4000, warmup: 60},
	{name: "sim-hold", nodes: 32, rate: 0.02, hold: 600,
		tmpl:    workload.SessionTemplate{Name: "hold", Tasks: 2, Scale: 0.25},
		horizon: 20000, warmup: 2000},
	{name: "sim-chaos", nodes: 16, rate: 0.3, hold: 40,
		tmpl:    workload.SessionTemplate{Name: "chaos", Tasks: 3, Scale: 1},
		horizon: 6000, warmup: 600, chaos: true},
}

// smoke shrinks a spec to a fraction of a second for the tests.
func (s simSpec) smoke() simSpec {
	s.horizon /= 20
	s.warmup /= 20
	return s
}

const (
	chaosChurnPerHour = 360
	chaosDownMean     = 30
	chaosLoss         = 0.05
	chaosReconcile    = 10
)

// repOut is what one replication yields: the engine's statistics, the
// public counters of every layer under it, and the host time it took.
type repOut struct {
	stats     *session.Stats
	ops       int
	wall      time.Duration
	digest    uint64
	medium    radio.Stats
	cfps      int // CFP handlings summed over providers
	proposals int
	accepts   int
	declines  int
	rounds    int // CFPs the organizer node heard from itself: one per round
	faults    faults.Stats
}

// simHooks carries the traced run's recorder into a replication. The
// zero value traces nothing.
type simHooks struct {
	tr *tracer
	// stamps receives the host time of every NewService call, from which
	// the per-op host-time distribution is read.
	stamps *[]int64
}

// tracedArrivals wraps an arrival process in a span per draw.
type tracedArrivals struct {
	inner  arrival.Process
	tr     *tracer
	name   uint16
	trace  int
	parent *int // the run span, opened after the config is built
}

func (a *tracedArrivals) Next(now float64, rng *rand.Rand) float64 {
	s := a.tr.begin(a.name, a.trace, *a.parent)
	v := a.inner.Next(now, rng)
	a.tr.end(s)
	return v
}

// topologySalt seeds the neighbourhoods. Replication r of a workload
// always meets the same devices in the same places, whatever -seed is:
// the population is part of the workload's definition, like its sizes,
// and holding it still is what lets runs of different seeds be compared
// (a neighbourhood of phones blocks a third of its sessions, one with an
// access point none, and per-op cost follows). The seed drives
// everything that happens there: arrivals, holding times, churn, faults.
const topologySalt = 0x51a7e

// runRep runs replication r of spec under the run seed: it builds the
// replication's neighbourhood, runs the session engine over it, checks
// the run's invariants and returns its outcome.
func runRep(spec simSpec, runSeed int64, r int, h simHooks) (*repOut, error) {
	seed := repSeed(runSeed, spec.name, r)
	tr := h.tr
	start := time.Now()
	root := tr.begin(tr.name("replication"), r, -1)

	sp := tr.begin(tr.name("workload.build"), r, root)
	scfg := workload.DefaultScenario(repSeed(topologySalt, spec.name, r))
	scfg.Nodes = spec.nodes
	if spec.chaos {
		scfg.Mix = workload.ChurnMix
		scfg.Retry = proto.DefaultRetryConfig
	}
	sc, err := workload.Build(scfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	cl := sc.Cluster

	ops := 0
	instName := tr.name("workload.instantiate")
	var runSpan int
	cfg := session.Config{
		Arrivals: arrival.Poisson{Rate: spec.rate},
		NewService: func(seq int) *task.Service {
			ops++
			if h.stamps != nil {
				*h.stamps = append(*h.stamps, int64(time.Since(start)))
			}
			s := tr.begin(instName, r, runSpan)
			svc := spec.tmpl.Instantiate(seq)
			tr.end(s)
			return svc
		},
		HoldMean:  spec.hold,
		Horizon:   spec.horizon,
		Warmup:    spec.warmup,
		Organizer: core.DefaultOrganizerConfig,
	}
	var inj *faults.Injector
	if spec.chaos {
		cfg.Organizer.Monitor = false
		cfg.Organizer.Reconfigure = false
		cfg.Churn = &session.ChurnConfig{
			Leave:    arrival.Poisson{Rate: chaosChurnPerHour / 3600.0},
			DownMean: chaosDownMean,
		}
		cfg.Adapt = &adapt.Config{OnChurn: adapt.DegradeToFit, DegradeOnPressure: true, UpgradeOnSlack: true}
		cfg.Admission = &admit.Config{Policy: admit.Yield}
		cfg.ReconcileEvery = chaosReconcile
		sp = tr.begin(tr.name("faults.new"), r, root)
		inj, err = faults.New(seed, spec.horizon, cl.Nodes(), faults.Plan{Loss: chaosLoss})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		cfg.Faults = inj
	}

	if tr != nil {
		// Untraced runs hand the engine the bare arrival processes.
		cfg = withTracedArrivals(cfg, tr, r, &runSpan)
	}

	sp = tr.begin(tr.name("session.new"), r, root)
	eng, err := session.New(cl, cfg, seed)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	runSpan = tr.begin(tr.name("session.run"), r, root)
	st, err := eng.Run()
	tr.end(runSpan)
	if err != nil {
		return nil, err
	}
	tr.end(root)

	out := &repOut{stats: st, ops: ops, wall: time.Since(start), medium: cl.Medium.Stats}
	for _, id := range cl.Nodes() {
		n := cl.Node(id)
		p := n.Provider
		out.cfps += p.CFPs
		out.proposals += p.Proposals
		out.accepts += p.Accepts
		out.declines += p.Declines
		if n.Res.Available() != n.Res.Capacity() {
			return nil, fmt.Errorf("%s seed %d: node %d ledger not empty after the drain: available %v of %v",
				spec.name, seed, id, n.Res.Available(), n.Res.Capacity())
		}
	}
	out.rounds = cl.Node(0).Provider.CFPs
	if inj != nil {
		out.faults = inj.Stats
	}
	if st.Admitted+st.Blocked != st.Arrivals {
		return nil, fmt.Errorf("%s seed %d: admitted %d + blocked %d != arrivals %d",
			spec.name, seed, st.Admitted, st.Blocked, st.Arrivals)
	}
	if st.Arrivals == 0 {
		return nil, fmt.Errorf("%s seed %d: no arrivals", spec.name, seed)
	}
	out.digest = statsDigest(st)
	return out, nil
}

// withTracedArrivals returns cfg with its arrival (and churn) streams
// wrapped in spans parented to the run span.
func withTracedArrivals(cfg session.Config, tr *tracer, traceID int, parent *int) session.Config {
	cfg.Arrivals = &tracedArrivals{inner: cfg.Arrivals, tr: tr, name: tr.name("arrival.next"), trace: traceID, parent: parent}
	if cfg.Churn != nil {
		churn := *cfg.Churn
		churn.Leave = &tracedArrivals{inner: churn.Leave, tr: tr, name: tr.name("arrival.next"), trace: traceID, parent: parent}
		cfg.Churn = &churn
	}
	return cfg
}

// statsDigest folds every field of session.Stats that is a pure
// function of (spec, seed) into one number. Two runs of one seed must
// agree on it bit for bit; pins.go holds the seed-1 values.
func statsDigest(st *session.Stats) uint64 {
	h := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	put(uint64(st.Arrivals), uint64(st.Admitted), uint64(st.Blocked), uint64(st.Departed),
		uint64(st.PeakLive), uint64(st.NodeLeaves), st.SimEvents, math.Float64bits(st.DistanceAvg))
	a := st.Adapt
	put(uint64(a.Triggers), uint64(a.Epochs), uint64(a.Degrades), uint64(a.Upgrades), uint64(a.Repairs), uint64(a.Kills))
	ad := st.Admit
	put(uint64(ad.Queued), uint64(ad.Retries), uint64(ad.QueueAdmits), uint64(ad.Expired),
		uint64(ad.YieldAttempts), uint64(ad.YieldAdmits), uint64(ad.YieldSteps), uint64(ad.YieldReverted))
	put(st.Counters.Get(obs.Retransmissions), st.Counters.Get(obs.Duplicates), st.Counters.Get(obs.Reclaimed))
	return h.Sum64()
}
