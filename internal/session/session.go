package session

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/adapt"
	"repro/internal/admit"
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/task"
	"repro/internal/trace"
)

// ChurnConfig adds node join/leave churn as a second event stream: at
// each event of Leave, one unprotected, currently-alive node goes off
// the air for an exponential downtime, then reboots (provider soft
// state purged) and rejoins.
type ChurnConfig struct {
	// Leave generates node-leave event times.
	Leave arrival.Process
	// DownMean is the mean off-air time in seconds.
	DownMean float64
}

// Config parameterizes one open-system run.
type Config struct {
	// Arrivals generates session arrival times over [0, Horizon).
	Arrivals arrival.Process
	// NewService stamps out the seq-th session's service (seq is the
	// global arrival sequence number, 0-based). Services must have
	// unique IDs; workload.SessionTemplate.Instantiate is the standard
	// factory.
	NewService func(seq int) *task.Service
	// HoldMean is the mean exponential session holding time (seconds),
	// measured from admission.
	HoldMean float64
	// Horizon is the simulated span; Warmup excludes the initial
	// transient from every steady-state statistic.
	Horizon, Warmup float64
	// Organizers lists the nodes user requests originate at,
	// round-robin by arrival sequence (default: node 0). Organizer
	// nodes are protected from churn: a vanished organizer cannot
	// dissolve its sessions, which is a different failure mode than the
	// helper churn this engine models.
	Organizers []radio.NodeID
	// Organizer configures every session's negotiation organizer.
	Organizer core.OrganizerConfig
	// SampleEvery is the steady-state sampling period (default 1s).
	SampleEvery float64
	// DepartGrace is how long after a dissolve the radio is given to
	// deliver the release broadcast before departure hooks run
	// (default 1s).
	DepartGrace float64
	// Churn enables node join/leave churn.
	Churn *ChurnConfig
	// Adapt, when set, runs the mid-session QoS adaptation engine
	// (internal/adapt) over the live sessions: churn repair per its
	// ChurnPolicy, utilisation-pressure degradation and epoch-driven
	// upgrade reclamation. nil keeps the fixed-QoS lifecycle, where an
	// admitted session holds its admission-time levels until departure.
	// Run the organizer with Monitor/Reconfigure off when adaptation
	// owns churn repair: exactly one layer should renegotiate a lost
	// member (see DESIGN.md §10).
	Adapt *adapt.Config
	// Admission, when set, enables the admission-control policy layer
	// (internal/admit): an incomplete first formation is handled per the
	// configured policy — Block (the default behaviour), Queue (dissolve
	// the partial coalition and retry until MaxWait) or Yield (degrade
	// incumbents through the adaptation engine when the arriving
	// session's utility gain exceeds the drift cost, then retry once;
	// requires Adapt). A non-nil Admission also makes the engine draw
	// holding times at arrival, record the full arrival trace (see
	// ArrivalTrace) and account admission-time utility, so runs are
	// comparable against baseline.Clairvoyant's hindsight bound. nil —
	// the default everywhere — keeps the engine byte-identical to the
	// pre-admission-layer behaviour, rng draw order included.
	Admission *admit.Config
	// AfterDeparture, when set, runs DepartGrace after every session
	// teardown (departure or admission failure) with the service ID;
	// the leak-guard tests hang their reservation-ledger detector here.
	// With the Queue/Yield policies it runs only after a session's FINAL
	// teardown, not between retry attempts of the same service.
	AfterDeparture func(now float64, svcID string)
	// Faults, when set, wires a deterministic fault injector
	// (internal/faults) into the radio medium for the whole run and
	// schedules its freeze/thaw events: frozen nodes go radio-dark while
	// their timers and ledgers live on. nil leaves the medium untouched
	// — the default paths are byte-identical with no plan.
	Faults *faults.Injector
	// ReconcileEvery is the period (seconds) of the reservation
	// reconciliation sweep that reclaims orphaned reservations — ledger
	// entries on frozen-then-recovered providers whose coalition moved
	// on or dissolved while they were dark. 0 (the default) disables
	// the periodic sweep; a final sweep still runs after the drain
	// whenever Faults is set, so no shipped fault plan can leak.
	ReconcileEvery float64
	// Trace, when set, receives the engine's structured flight-recorder
	// events: arrivals, admission verdicts, departures and kills, churn
	// leaves, fault-plan freeze/thaw fates, reconciliation sweeps and
	// adaptation passes. No emission site draws randomness or changes
	// control flow, so a run's trace is byte-identical at any worker-pool
	// width (scripts/determinism.sh diffs them). nil (the default) costs
	// one pointer check per site — observability off is free.
	Trace *trace.Recorder
}

// Stats is the steady-state outcome of a run. Counters cover sessions
// arriving at or after Warmup; time averages cover [Warmup, Horizon].
type Stats struct {
	// Arrivals, Admitted, Blocked count post-warmup session arrivals
	// and their admission outcome (admitted = every task assigned on
	// the first formation attempt; anything less is blocked and torn
	// down immediately). A formation still in flight when the horizon
	// falls is censored: it resolves during the drain, tears down
	// without a verdict, and is excluded from all three counters, so
	// Admitted + Blocked == Arrivals always holds.
	Arrivals, Admitted, Blocked int
	// Departed counts post-warmup-admitted sessions that completed
	// their holding time and dissolved before the horizon.
	Departed int
	// PeakLive is the maximum number of concurrently operating
	// sessions observed over [Warmup, Horizon].
	PeakLive int
	// LiveAvg is the time-averaged number of operating sessions.
	LiveAvg float64
	// DistanceAvg is the time-averaged mean QoS distance of live
	// sessions (sampled every SampleEvery over instants with at least
	// one live session): the steady-state quality users experience.
	DistanceAvg float64
	// Util is the time-averaged per-resource utilization, averaged
	// over nodes: 1 - available/capacity per kind.
	Util [resource.NumKinds]float64
	// Reconfigurations and MemberFailures aggregate the organizers'
	// operation-phase counters across every session of the whole run.
	Reconfigurations, MemberFailures int
	// NodeLeaves counts churn events that took a node off the air.
	NodeLeaves int
	// Counters is the run's unified hardening-counter snapshot from the
	// cluster's obs.Registry: protocol retransmissions and duplicate
	// suppressions, provider stale-release refusals, fault-plan freezes
	// and reconciliation reclaims (obs/names.go is the key catalog).
	// Registering a counter is sufficient for it to appear here and in
	// every fabric merge — no per-counter plumbing. The map is the one
	// reference field Stats carries; Merge never mutates it in place
	// (Snapshot.Merge returns a fresh map), so value copies of Stats
	// stay safe to share.
	Counters obs.Snapshot
	// Adapt aggregates the adaptation engine's counters and per-session
	// histories (zero when Config.Adapt is nil).
	Adapt adapt.Stats
	// Admit aggregates the admission-policy layer's counters (zero when
	// Config.Admission is nil). Arrivals/Admitted/Blocked keep their
	// invariant under every policy: a queued session that eventually
	// admits counts Admitted, one whose deadline expires counts Blocked.
	Admit admit.Stats
	// SimEvents is the number of discrete events the engine processed.
	SimEvents uint64
	// Nodes is the population size of the neighbourhood the stats were
	// collected over; Merge uses it to node-weight utilization when
	// folding heterogeneous shards.
	Nodes int
}

// Freezes reports the fault-plan freeze events applied (node went
// radio-dark with its state intact), from the counter snapshot.
func (s *Stats) Freezes() int { return int(s.Counters.Get(obs.Freezes)) }

// Reclaimed reports the orphaned reservations the reconciliation sweep
// released — ledger entries whose session departed, died, or migrated
// away while the holding node was unreachable.
func (s *Stats) Reclaimed() int { return int(s.Counters.Get(obs.Reclaimed)) }

// AdmissionRatio is Admitted/Arrivals (1 when nothing arrived).
func (s *Stats) AdmissionRatio() float64 {
	if s.Arrivals == 0 {
		return 1
	}
	return float64(s.Admitted) / float64(s.Arrivals)
}

// BlockingRatio is Blocked/Arrivals (0 when nothing arrived).
func (s *Stats) BlockingRatio() float64 {
	if s.Arrivals == 0 {
		return 0
	}
	return float64(s.Blocked) / float64(s.Arrivals)
}

// SurvivalRatio is the fraction of admitted sessions the adaptation
// engine did not kill: (Admitted - Adapt.Kills)/Admitted (1 when
// nothing was admitted). Without adaptation every admitted session
// survives to its holding-time expiry and the ratio is 1.
func (s *Stats) SurvivalRatio() float64 {
	if s.Admitted == 0 {
		return 1
	}
	return float64(s.Admitted-s.Adapt.Kills) / float64(s.Admitted)
}

// Merge folds another neighbourhood's steady-state stats into s,
// producing city-wide statistics: the two runs are treated as parallel
// open systems observed over the same [warmup, horizon] window (which
// is how the fabric engine runs its shards). Counters and SimEvents
// sum; LiveAvg sums (concurrent sessions across shards add); Util is
// node-weighted via Nodes; DistanceAvg is admission-weighted (shards
// with no admitted sessions contribute nothing). PeakLive sums the
// per-shard peaks, an upper bound on the city-wide peak — the shard
// peaks need not coincide in time. A pairwise merge is commutative, and
// the fabric folds shards in ascending shard order, so merged tables
// are deterministic.
func (s *Stats) Merge(o *Stats) {
	// Weighted means first: they need the pre-merge counters as weights.
	if s.Admitted+o.Admitted > 0 {
		s.DistanceAvg = (s.DistanceAvg*float64(s.Admitted) + o.DistanceAvg*float64(o.Admitted)) /
			float64(s.Admitted+o.Admitted)
	}
	if s.Nodes+o.Nodes > 0 {
		for k := range s.Util {
			s.Util[k] = (s.Util[k]*float64(s.Nodes) + o.Util[k]*float64(o.Nodes)) /
				float64(s.Nodes+o.Nodes)
		}
	}
	s.Arrivals += o.Arrivals
	s.Admitted += o.Admitted
	s.Blocked += o.Blocked
	s.Departed += o.Departed
	s.PeakLive += o.PeakLive
	s.LiveAvg += o.LiveAvg
	s.Reconfigurations += o.Reconfigurations
	s.MemberFailures += o.MemberFailures
	s.NodeLeaves += o.NodeLeaves
	s.Counters = s.Counters.Merge(o.Counters)
	s.SimEvents += o.SimEvents
	s.Nodes += o.Nodes
	s.Adapt.Merge(&o.Adapt)
	s.Admit.Merge(&o.Admit)
}

// ReconfigPerHour normalizes the reconfiguration count to simulated
// hours of horizon.
func (s *Stats) ReconfigPerHour(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(s.Reconfigurations) * 3600 / horizon
}

// liveSession is one operating coalition. The record doubles as a slot
// in the engine's pooled session table: acquired from the free-list at
// arrival, retired (generation bumped) at teardown and reused by a later
// arrival. The persistent onFormedFn serves every formation callback of
// every occupant, so an arrival allocates no closure.
type liveSession struct {
	id       string
	node     radio.NodeID
	org      *core.Organizer
	counted  bool // arrived at or after Warmup
	departed bool

	slot       int    // index in Engine.slots
	gen        uint64 // bumped at retire; invalidates pooled timer records
	formed     bool   // first-formation guard of the current attempt
	onFormedFn func(*core.Result)

	// Admission-layer state, meaningful only when Config.Admission is
	// set. svc keeps the instantiated service across retry attempts (the
	// same service is re-submitted); arrive/hold are the arrival instant
	// and the arrival-time holding-time draw; attempts counts
	// re-submissions so far; ySteps/yieldCost journal a pending Yield's
	// purchased steps until the retried formation settles them.
	seq       int
	svc       *task.Service
	arrive    float64
	hold      float64
	attempts  int
	ySteps    int
	yieldCost float64
}

// departEv is one scheduled holding-time expiry, pooled on the engine.
// It records the slot's generation at schedule time: a timer that
// outlives its session (the adapt engine killed it, or the drain beat
// the timer) fires into a recycled slot and must not touch it.
type departEv struct {
	e   *Engine
	ls  *liveSession
	gen uint64
}

// runDepart is the shared event handler for every departEv record.
func runDepart(x any) {
	ev := x.(*departEv)
	e, ls, gen := ev.e, ev.ls, ev.gen
	ev.ls = nil
	e.departPool = append(e.departPool, ev)
	if ls.gen != gen {
		return // slot recycled since scheduling: the session already ended
	}
	e.depart(ls)
}

// hookEv is one pending AfterDeparture callback, pooled on the engine.
type hookEv struct {
	e  *Engine
	id string
}

func runHook(x any) {
	ev := x.(*hookEv)
	e, id := ev.e, ev.id
	ev.id = ""
	e.hookPool = append(e.hookPool, ev)
	e.cfg.AfterDeparture(e.cl.Eng.Now(), id)
}

// retryEv is one scheduled admission re-submission (queue retry or
// yield re-attempt), pooled on the engine. Like departEv it records the
// slot generation at schedule time; a retry that outlives its session
// (the drain censored it) fires into a recycled or departed slot and
// must not touch it.
type retryEv struct {
	e   *Engine
	ls  *liveSession
	gen uint64
}

func runRetry(x any) {
	ev := x.(*retryEv)
	e, ls, gen := ev.e, ev.ls, ev.gen
	ev.ls = nil
	e.retryPool = append(e.retryPool, ev)
	if ls.gen != gen || ls.departed {
		return
	}
	e.retryFire(ls)
}

// rebootEv is one pending churn-victim reboot, pooled on the engine.
type rebootEv struct {
	e      *Engine
	victim radio.NodeID
}

func runReboot(x any) {
	ev := x.(*rebootEv)
	e, victim := ev.e, ev.victim
	e.rebootPool = append(e.rebootPool, ev)
	e.cl.RebootNode(victim)
}

// Engine drives the session lifecycle and churn streams over a built
// cluster. It is single-use: New, then Run once.
type Engine struct {
	cfg Config
	cl  *core.Cluster

	arriveRng, holdRng, churnRng *rand.Rand

	ad *adapt.Engine

	// Admission-policy layer (Config.Admission). adm is the normalized
	// config, admOn its presence; waiting holds sessions between retry
	// attempts in enqueue order; arrivals is the recorded trace the
	// clairvoyant oracle replays; evals caches per-(spec, demand ref)
	// utility evaluators for admission-time accounting.
	adm      admit.Config
	admOn    bool
	waiting  []*liveSession
	arrivals []admit.ArrivalRecord
	evals    map[evalKey]*sessEval

	seq       int
	live      []*liveSession
	protected map[radio.NodeID]bool
	forming   int // submitted sessions whose first formation attempt is still running
	draining  bool
	err       error

	// activeSvc registers every submitted-and-not-yet-torn-down session
	// by service ID (forming or live); the reconciliation sweep treats
	// any reservation outside this set as an orphan.
	activeSvc map[string]*core.Organizer

	// ledgers is every node's resource ledger in ascending node ID, the
	// order the sampling tick sums utilization in.
	ledgers []*resource.Set

	stats   Stats
	liveAvg metrics.TimeAvg
	utilAvg [resource.NumKinds]metrics.TimeAvg
	dist    metrics.Sample

	// rec is the flight recorder (nil = tracing off).
	rec *trace.Recorder

	// freezes/reclaimed are the engine's registered hardening counters;
	// Run snapshots the whole cluster registry into stats.Counters at
	// the very end, after the drain and the final reconcile sweep.
	freezes   *obs.Counter
	reclaimed *obs.Counter

	// The slot-indexed session table with its free-list, the pooled
	// timer records, the persistent stream closures, and the
	// churn-candidate scratch.
	slots       []*liveSession
	freeSlots   []int
	departPool  []*departEv
	hookPool    []*hookEv
	rebootPool  []*rebootEv
	retryPool   []*retryEv
	arrivalFn   func()
	churnFn     func()
	sampleFn    func()
	nextArrival float64
	nextChurn   float64
	candBuf     []radio.NodeID
}

// New builds an engine over the cluster. The seed derives the engine's
// private arrival / holding-time / churn rngs, one per stream, so the
// draw sequence of each stream is independent of how session outcomes
// interleave with arrivals.
func New(cl *core.Cluster, cfg Config, seed int64) (*Engine, error) {
	if cfg.Arrivals == nil {
		return nil, fmt.Errorf("session: config needs an arrival process")
	}
	if cfg.NewService == nil {
		return nil, fmt.Errorf("session: config needs a service factory")
	}
	if cfg.HoldMean <= 0 {
		return nil, fmt.Errorf("session: holding-time mean must be positive, got %g", cfg.HoldMean)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("session: horizon must be positive, got %g", cfg.Horizon)
	}
	if cfg.Warmup < 0 || cfg.Warmup >= cfg.Horizon {
		return nil, fmt.Errorf("session: warmup %g outside [0, horizon %g)", cfg.Warmup, cfg.Horizon)
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1
	}
	if cfg.DepartGrace <= 0 {
		cfg.DepartGrace = 1
	}
	if len(cfg.Organizers) == 0 {
		cfg.Organizers = []radio.NodeID{0}
	}
	if cfg.Churn != nil && (cfg.Churn.Leave == nil || cfg.Churn.DownMean <= 0) {
		return nil, fmt.Errorf("session: churn config needs a leave process and a positive downtime mean")
	}
	if cfg.ReconcileEvery < 0 {
		return nil, fmt.Errorf("session: ReconcileEvery must be >= 0, got %g", cfg.ReconcileEvery)
	}
	var adm admit.Config
	admOn := false
	if cfg.Admission != nil {
		adm = cfg.Admission.WithDefaults()
		if err := adm.Validate(); err != nil {
			return nil, err
		}
		if adm.Policy == admit.Yield && cfg.Adapt == nil {
			return nil, fmt.Errorf("session: admission policy yield degrades incumbents through the adaptation engine; set Config.Adapt")
		}
		if adm.Policy == admit.Queue && adm.RetryEvery < 2*cfg.DepartGrace {
			return nil, fmt.Errorf("session: queue RetryEvery %g must be at least twice DepartGrace %g, so a failed attempt's releases land before the retry reserves again", adm.RetryEvery, cfg.DepartGrace)
		}
		admOn = true
	}
	e := &Engine{
		cfg:       cfg,
		cl:        cl,
		arriveRng: rand.New(rand.NewSource(seed ^ 0x243f6a8885a308d3)),
		holdRng:   rand.New(rand.NewSource(seed ^ 0x13198a2e03707344)),
		churnRng:  rand.New(rand.NewSource(seed ^ 0x0a4093822299f31d)),
		protected: make(map[radio.NodeID]bool, len(cfg.Organizers)),
		activeSvc: make(map[string]*core.Organizer),
		freezes:   cl.Obs.Counter(obs.Freezes),
		reclaimed: cl.Obs.Counter(obs.Reclaimed),
		rec:       cfg.Trace,
		adm:       adm,
		admOn:     admOn,
	}
	if admOn {
		e.evals = make(map[evalKey]*sessEval)
	}
	for _, id := range cl.Medium.IDs() {
		e.ledgers = append(e.ledgers, cl.Node(id).Res)
	}
	for _, id := range cfg.Organizers {
		if cl.Node(id) == nil {
			return nil, fmt.Errorf("session: organizer node %d not in cluster", id)
		}
		e.protected[id] = true
	}
	if cfg.Adapt != nil {
		// Exactly one layer renegotiates a lost member (DESIGN.md §10):
		// the protocol monitor and the adaptation engine repairing the
		// same session would desynchronize silently, so mixing them is
		// a configuration error, not a preference.
		if cfg.Organizer.Monitor || cfg.Organizer.Reconfigure {
			return nil, fmt.Errorf("session: adaptation owns churn repair; disable Organizer.Monitor and Organizer.Reconfigure when Config.Adapt is set")
		}
		ad, err := adapt.New(cl, *cfg.Adapt, cfg.Warmup)
		if err != nil {
			return nil, err
		}
		e.ad = ad
	}
	return e, nil
}

// Adapter returns the run's adaptation engine (nil without Config.Adapt),
// for test assertions and CLI reporting.
func (e *Engine) Adapter() *adapt.Engine { return e.ad }

// ArrivalTrace returns the run's recorded arrival trace — every arrival
// with its arrival-time holding draw — in arrival order, or nil when
// Config.Admission is unset. Callers feed it to baseline.Clairvoyant to
// bound the run's achieved utility in hindsight; the services are shared
// with the engine and must be treated as read-only.
func (e *Engine) ArrivalTrace() []admit.ArrivalRecord { return e.arrivals }

// Cluster returns the cluster the engine drives, for test assertions.
func (e *Engine) Cluster() *core.Cluster { return e.cl }

// Run schedules the arrival, churn and sampling streams, drives the
// simulation to the horizon, then dissolves any sessions still
// operating and lets their releases propagate. It returns the
// steady-state statistics over [Warmup, Horizon].
func (e *Engine) Run() (*Stats, error) {
	e.sampleFn = e.sampleTick
	// One closure per stream for the whole run, so scheduling the next
	// event allocates nothing; the next-event time lives on the engine.
	e.arrivalFn = func() {
		e.onArrival()
		e.scheduleArrival(e.nextArrival)
	}
	e.scheduleArrival(0)
	if e.cfg.Churn != nil {
		e.churnFn = func() {
			e.onLeave()
			e.scheduleChurn(e.nextChurn)
		}
		e.scheduleChurn(0)
	}
	if e.ad != nil {
		e.scheduleAdapt()
	}
	if e.cfg.Faults != nil {
		e.cl.Medium.SetInterceptor(e.cfg.Faults)
		e.scheduleFreezes()
	}
	if e.cfg.ReconcileEvery > 0 {
		e.scheduleReconcile()
	}
	e.cl.Eng.At(e.cfg.Warmup, e.sampleFn)
	e.cl.Run(e.cfg.Horizon)
	if e.err != nil {
		return nil, e.err
	}
	e.finalize()
	// Drain: dissolve sessions still operating so the system ends with
	// every reservation released, then let the radio deliver. Their
	// organizer counters flow into the stats through teardown; they do
	// not count as departures (the horizon cut them short). Formations
	// still in flight — arrivals just before the horizon — resolve
	// during the drain and tear down immediately via the draining guard
	// in onFormed; a formation attempt is bounded by
	// MaxRounds*(ProposalWait+AckWait), so the deadline loop below
	// always terminates well inside its iteration budget.
	e.draining = true
	for len(e.live) > 0 {
		e.depart(e.live[0]) // depart always removes the head: arrival order
	}
	// Sessions parked between admission retries are censored like
	// formations in flight: the horizon fell before their verdict. Their
	// pending retry timers fire into departed/recycled slots and no-op.
	for len(e.waiting) > 0 {
		ls := e.waiting[0]
		e.waiting = e.waiting[1:]
		e.censorWaiting(ls)
	}
	deadline := e.cfg.Horizon
	for i := 0; e.forming > 0 && i < 64; i++ {
		deadline += e.cfg.DepartGrace
		e.cl.Run(deadline)
	}
	if e.forming > 0 {
		return nil, fmt.Errorf("session: %d formation(s) unresolved after drain", e.forming)
	}
	e.cl.Run(deadline + 2*e.cfg.DepartGrace)
	if e.err != nil {
		return nil, e.err
	}
	// Post-drain reconciliation: by now every session is torn down, so
	// any surviving ledger entry is an orphan a fault plan stranded —
	// a Dissolve blackholed by a freeze or partition that never thawed
	// before the horizon. One final sweep reclaims them all, making the
	// leak-guard invariant (reserved == 0 after drain) hold under every
	// fault plan, not only those whose faults healed in time.
	if e.cfg.Faults != nil || e.cfg.ReconcileEvery > 0 {
		e.reconcile()
	}
	// Snapshot the adaptation counters only after the drain: sessions
	// still live at the horizon record their distance drift during the
	// drain teardown.
	if e.ad != nil {
		e.stats.Adapt = *e.ad.Stats()
	}
	e.stats.Counters = e.cl.Obs.Snapshot()
	return &e.stats, nil
}

// fail records the first error and stops the simulation.
func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
		e.cl.Eng.Stop()
	}
}

// scheduleArrival chains the session arrival stream from the given
// simulated time through the persistent arrivalFn closure.
func (e *Engine) scheduleArrival(from float64) {
	next := e.cfg.Arrivals.Next(from, e.arriveRng)
	if math.IsInf(next, 1) || next >= e.cfg.Horizon {
		return
	}
	e.nextArrival = next
	e.cl.Eng.At(next, e.arrivalFn)
}

// acquireSlot pops a retired session slot (or grows the table) and
// resets it for a new occupant. The generation deliberately survives
// the reset: it was bumped at retire time, which is what invalidates
// any pooled timer record still pointing at this slot.
func (e *Engine) acquireSlot() *liveSession {
	if n := len(e.freeSlots); n > 0 {
		ls := e.slots[e.freeSlots[n-1]]
		e.freeSlots = e.freeSlots[:n-1]
		ls.id, ls.org = "", nil
		ls.departed, ls.formed = false, false
		return ls
	}
	s := &liveSession{slot: len(e.slots)}
	s.onFormedFn = func(r *core.Result) {
		// The first-formation guard: reformation attempts of the same
		// occupancy re-fire the callback and must not re-admit. A retired
		// occupant's organizer is dissolved before the slot recycles, so
		// it can never fire this callback into the next occupant.
		if s.formed {
			return
		}
		s.formed = true
		e.onFormed(s, r)
	}
	e.slots = append(e.slots, s)
	return s
}

// onArrival spawns a session: instantiate the service, pick the
// round-robin organizer node, and submit the negotiation.
func (e *Engine) onArrival() {
	seq := e.seq
	e.seq++
	svc := e.cfg.NewService(seq)
	node := e.cfg.Organizers[seq%len(e.cfg.Organizers)]
	now := e.cl.Eng.Now()
	counted := now >= e.cfg.Warmup
	if counted {
		e.stats.Arrivals++
	}
	ls := e.acquireSlot()
	ls.id, ls.node, ls.counted = svc.ID, node, counted
	if e.admOn {
		// The holding time is drawn at arrival, not admission, so the
		// recorded trace carries it for every session — the clairvoyant
		// oracle may admit sessions the online policy lost. This changes
		// the holdRng draw sequence relative to Admission == nil, which
		// is why the admission layer is opt-in per run, never default.
		hold := arrival.Exp(e.holdRng, e.cfg.HoldMean)
		ls.seq, ls.svc, ls.arrive, ls.hold = seq, svc, now, hold
		ls.attempts, ls.ySteps, ls.yieldCost = 0, 0, 0
		e.arrivals = append(e.arrivals, admit.ArrivalRecord{Seq: seq, T: now, Hold: hold, Svc: svc})
	}
	e.rec.Point(now, int(node), "engine", "arrival", svc.ID)
	org, err := e.cl.Submit(now, node, svc, e.cfg.Organizer, ls.onFormedFn)
	if err != nil {
		e.fail(fmt.Errorf("session: submit %s: %w", svc.ID, err))
		return
	}
	ls.org = org
	e.activeSvc[svc.ID] = org
	e.forming++
}

// onFormed decides admission when a formation attempt resolves. A
// complete formation admits; an incomplete one is handled per the
// admission policy — Block (the default, and the only behaviour when
// Config.Admission is nil) dissolves the partial coalition immediately,
// Queue parks the session for a retry, Yield has already been paid for
// by the time the retried formation lands here and settles its journal.
func (e *Engine) onFormed(ls *liveSession, r *core.Result) {
	e.forming--
	now := e.cl.Eng.Now()
	if e.draining {
		// The horizon cut this formation short: no admission verdict,
		// just teardown so no reservation outlives Run. Uncount the
		// arrival so the Admitted + Blocked == Arrivals invariant holds.
		if e.admOn && ls.ySteps > 0 {
			e.ad.YieldResolve(now, ls.id, false)
		}
		if ls.counted {
			e.stats.Arrivals--
		}
		e.rec.Point(now, int(ls.node), "engine", "censored", ls.id)
		e.teardown(ls, "horizon reached during formation")
		return
	}
	if r.Complete() {
		e.admitSession(ls)
		return
	}
	if e.admOn {
		switch e.adm.Policy {
		case admit.Queue:
			if e.queueFailed(ls) {
				return
			}
		case admit.Yield:
			if e.yieldFailed(ls) {
				return
			}
		}
		if ls.ySteps > 0 {
			// The post-yield retry still failed: roll the incumbents back.
			n := e.ad.YieldResolve(now, ls.id, false)
			if ls.counted {
				e.stats.Admit.YieldReverted += n
			}
			e.rec.Point(now, int(ls.node), "engine", "yield.revert", ls.id)
		}
	}
	if ls.counted {
		e.stats.Blocked++
	}
	e.rec.Point(now, int(ls.node), "engine", "block", ls.id)
	e.teardown(ls, fmt.Sprintf("admission failed: %d/%d tasks assigned", len(r.Assigned), len(r.Assigned)+len(r.Unserved)))
}

// admitSession installs a completely formed session: stats, trace,
// adaptation registration, utility accounting, departure timer.
func (e *Engine) admitSession(ls *liveSession) {
	now := e.cl.Eng.Now()
	if ls.counted {
		e.stats.Admitted++
	}
	e.rec.Point(now, int(ls.node), "engine", "admit", ls.id)
	e.live = append(e.live, ls)
	if e.ad != nil {
		if err := e.ad.Admit(now, ls.node, ls.org, ls.counted); err != nil {
			e.fail(err)
			return
		}
	}
	if e.admOn {
		e.stats.Admit.UtilitySum += e.sessionUtility(ls.org)
		if e.adm.Policy == admit.Queue && ls.attempts > 0 {
			if ls.counted {
				e.stats.Admit.QueueAdmits++
			}
			e.rec.Point(now, int(ls.node), "engine", "queue.admit", ls.id)
		}
		if ls.ySteps > 0 {
			// The yield paid off: commit the incumbents' degrades.
			e.ad.YieldResolve(now, ls.id, true)
			if ls.counted {
				e.stats.Admit.YieldAdmits++
				e.stats.Admit.YieldSteps += ls.ySteps
				e.stats.Admit.DriftCost += ls.yieldCost
			}
			e.rec.Point(now, int(ls.node), "engine", "yield.admit", ls.id)
		}
	}
	// PeakLive, like every other steady-state statistic, excludes
	// the pre-warmup transient.
	if len(e.live) > e.stats.PeakLive && now >= e.cfg.Warmup {
		e.stats.PeakLive = len(e.live)
	}
	// With the admission layer on the holding time was drawn at arrival
	// (the recorded trace needs it for every session); the default
	// engine draws it here, at admission, preserving the historical
	// holdRng sequence bit for bit.
	var hold float64
	if e.admOn {
		hold = ls.hold
	} else {
		hold = arrival.Exp(e.holdRng, e.cfg.HoldMean)
	}
	ev := e.getDepartEv()
	ev.ls, ev.gen = ls, ls.gen
	e.cl.Eng.AfterArg(hold, runDepart, ev)
}

// depart ends an operating session at its holding-time expiry (or at
// the drain pass). Safe to invoke twice: the drain pass and a
// still-queued departure timer may both reach a session.
func (e *Engine) depart(ls *liveSession) {
	if ls.departed {
		return
	}
	for i, cur := range e.live {
		if cur == ls {
			e.live = append(e.live[:i], e.live[i+1:]...)
			break
		}
	}
	if ls.counted && !e.draining {
		e.stats.Departed++
	}
	e.rec.Point(e.cl.Eng.Now(), int(ls.node), "engine", "depart", ls.id)
	e.teardown(ls, "session departure")
}

// kill tears down a session the adaptation engine declared dead
// (churn policy, or an orphaned task no node could host). Killed
// sessions count neither as departures nor as blocks — adapt.Stats.Kills
// carries them, and SurvivalRatio reads them back out.
func (e *Engine) kill(svcID string) {
	for i, ls := range e.live {
		if ls.id != svcID {
			continue
		}
		e.live = append(e.live[:i], e.live[i+1:]...)
		e.rec.Point(e.cl.Eng.Now(), int(ls.node), "engine", "kill", ls.id)
		e.teardown(ls, "session killed: coalition member lost to churn")
		return
	}
}

// teardown dissolves, retires, and aggregates a session's
// operation-phase counters. The organizer's Dissolve is idempotent, so
// the double-invocation paths above stay safe. This is the FINAL
// teardown — the departure hook fires and the slot recycles; a queued
// retry between attempts goes through dissolveAttempt alone.
func (e *Engine) teardown(ls *liveSession, reason string) {
	ls.departed = true
	if !e.dissolveAttempt(ls, reason) {
		return
	}
	e.scheduleHook(ls.id)
	e.retireSlot(ls)
}

// dissolveAttempt undoes one formation attempt: deregister, forget from
// adaptation, fold the organizer's operation counters, dissolve the
// coalition and retire its service so every reservation releases. It
// deliberately neither marks the session departed, nor schedules the
// departure hook, nor recycles the slot — the Queue policy re-submits
// the same service after a dissolveAttempt, and a hook firing between
// attempts would race the retry's fresh reservations.
func (e *Engine) dissolveAttempt(ls *liveSession, reason string) bool {
	delete(e.activeSvc, ls.id)
	if e.ad != nil {
		e.ad.Forget(e.cl.Eng.Now(), ls.id)
	}
	e.stats.Reconfigurations += ls.org.Reconfigurations
	e.stats.MemberFailures += ls.org.Failures
	ls.org.Dissolve(reason)
	if err := e.cl.RetireService(ls.node, ls.id); err != nil {
		e.fail(err)
		return false
	}
	return true
}

// scheduleHook arms the AfterDeparture callback DepartGrace out.
func (e *Engine) scheduleHook(id string) {
	hook := e.cfg.AfterDeparture
	if hook == nil {
		return
	}
	ev := e.getHookEv()
	ev.id = id
	e.cl.Eng.AfterArg(e.cfg.DepartGrace, runHook, ev)
}

// queueFailed handles an incomplete formation under the Queue policy.
// It returns false to fall through to the plain block path: queue full
// on first failure, or the next retry would already overshoot MaxWait
// on first failure. Otherwise the partial coalition is dissolved and
// the session either waits for its next retry or — when its deadline
// has passed — expires as a block.
func (e *Engine) queueFailed(ls *liveSession) bool {
	now := e.cl.Eng.Now()
	retryAt := now + e.adm.RetryEvery
	expired := retryAt > ls.arrive+e.adm.MaxWait
	if ls.attempts == 0 {
		if expired || len(e.waiting) >= e.adm.MaxQueue {
			return false
		}
		if ls.counted {
			e.stats.Admit.Queued++
		}
		e.rec.Point(now, int(ls.node), "engine", "queue", ls.id)
	} else if expired {
		if ls.counted {
			e.stats.Admit.Expired++
			e.stats.Blocked++
		}
		e.rec.Point(now, int(ls.node), "engine", "queue.expire", ls.id)
		e.teardown(ls, "admission failed: queue deadline expired")
		return true
	}
	if !e.dissolveAttempt(ls, "admission retry pending") {
		return true
	}
	e.waiting = append(e.waiting, ls)
	e.scheduleRetry(ls, e.adm.RetryEvery)
	return true
}

// yieldFailed handles an incomplete formation under the Yield policy:
// price the arriving session's best attainable utility, buy incumbent
// degrade steps strictly cheaper than that gain, and retry the
// formation once after DepartGrace (so this attempt's releases land
// first). Returns false to fall through to the block path — second
// failure, nothing to gain, or no affordable step (the retry-failure
// rollback happens in onFormed, which knows ySteps).
func (e *Engine) yieldFailed(ls *liveSession) bool {
	if ls.attempts > 0 {
		return false
	}
	now := e.cl.Eng.Now()
	gain, err := e.ad.SessionBestUtility(ls.svc)
	if err != nil {
		e.fail(err)
		return false
	}
	if gain <= 0 {
		return false
	}
	steps, cost := e.ad.Yield(now, ls.id, gain, e.adm.MaxYieldSteps)
	if steps == 0 {
		return false
	}
	ls.ySteps, ls.yieldCost = steps, cost
	if ls.counted {
		e.stats.Admit.YieldAttempts++
	}
	e.rec.Point(now, int(ls.node), "engine", "yield", ls.id)
	if !e.dissolveAttempt(ls, "admission retry after yielding incumbents") {
		return true
	}
	e.waiting = append(e.waiting, ls)
	e.scheduleRetry(ls, e.cfg.DepartGrace)
	return true
}

// scheduleRetry arms the session's re-submission delay seconds out.
func (e *Engine) scheduleRetry(ls *liveSession, delay float64) {
	ev := e.getRetryEv()
	ev.ls, ev.gen = ls, ls.gen
	e.cl.Eng.AfterArg(delay, runRetry, ev)
}

// retryFire re-submits a waiting session's service. Sessions censored
// by the drain flush never reach here (departed guard in the event).
func (e *Engine) retryFire(ls *liveSession) {
	for i, cur := range e.waiting {
		if cur == ls {
			e.waiting = append(e.waiting[:i], e.waiting[i+1:]...)
			break
		}
	}
	ls.attempts++
	if ls.counted {
		e.stats.Admit.Retries++
	}
	ls.formed = false
	org, err := e.cl.Submit(e.cl.Eng.Now(), ls.node, ls.svc, e.cfg.Organizer, ls.onFormedFn)
	if err != nil {
		e.fail(fmt.Errorf("session: resubmit %s: %w", ls.id, err))
		return
	}
	ls.org = org
	e.activeSvc[ls.id] = org
	e.forming++
}

// censorWaiting ends a session the drain caught between retry attempts:
// its coalition is already dissolved, so only the bookkeeping half of a
// final teardown remains. Like a censored formation, the arrival is
// uncounted. Incumbent degrades a pending yield bought stay as ordinary
// history entries (the run is over; nothing is admitted either way).
func (e *Engine) censorWaiting(ls *liveSession) {
	if e.admOn && ls.ySteps > 0 {
		e.ad.YieldResolve(e.cl.Eng.Now(), ls.id, false)
	}
	if ls.counted {
		e.stats.Arrivals--
	}
	e.rec.Point(e.cl.Eng.Now(), int(ls.node), "engine", "censored", ls.id)
	ls.departed = true
	e.scheduleHook(ls.id)
	e.retireSlot(ls)
}

// evalKey caches utility evaluators per (spec, demand reference),
// mirroring the adaptation engine's compiled-problem cache.
type evalKey struct {
	spec string
	ref  string
}

type sessEval struct {
	req qos.Request
	ev  *qos.Evaluator
}

// evalFor returns the cached eq. 3 evaluator for one task of svc.
func (e *Engine) evalFor(svc *task.Service, t *task.Task) (*qos.Evaluator, error) {
	key := evalKey{spec: svc.Spec.Name, ref: t.Ref(svc.ID)}
	if ent, ok := e.evals[key]; ok && ent.req.Equal(&t.Request) {
		return ent.ev, nil
	}
	ent := &sessEval{req: t.Request}
	ev, err := qos.NewEvaluator(svc.Spec, &ent.req)
	if err != nil {
		return nil, err
	}
	ent.ev = ev
	e.evals[key] = ent
	return ev, nil
}

// sessionUtility is the admitted session's admission-time utility: the
// sum over assigned tasks of Utility(distance) — the achieved side of
// the clairvoyant optimality gap. Tasks whose evaluator cannot build
// contribute 0, under-counting achieved utility, which only slackens
// the achieved <= bound comparison in the safe direction.
func (e *Engine) sessionUtility(org *core.Organizer) float64 {
	svc := org.Service()
	var u float64
	for _, t := range svc.Tasks {
		a, ok := org.Assignment(t.ID)
		if !ok {
			continue
		}
		ev, err := e.evalFor(svc, t)
		if err != nil {
			continue
		}
		u += ev.Utility(a.Distance)
	}
	return u
}

// retireSlot returns a torn-down session to the free-list. The
// generation bump is the pooled path's reuse guard: any timer record
// still queued for the old occupant compares generations when it fires
// and touches nothing.
func (e *Engine) retireSlot(ls *liveSession) {
	ls.gen++
	ls.org = nil
	ls.id = ""
	ls.svc = nil
	e.freeSlots = append(e.freeSlots, ls.slot)
}

// getDepartEv pops a pooled departure record, or allocates the first
// time the pool runs dry.
func (e *Engine) getDepartEv() *departEv {
	if n := len(e.departPool); n > 0 {
		ev := e.departPool[n-1]
		e.departPool = e.departPool[:n-1]
		return ev
	}
	return &departEv{e: e}
}

func (e *Engine) getHookEv() *hookEv {
	if n := len(e.hookPool); n > 0 {
		ev := e.hookPool[n-1]
		e.hookPool = e.hookPool[:n-1]
		return ev
	}
	return &hookEv{e: e}
}

func (e *Engine) getRetryEv() *retryEv {
	if n := len(e.retryPool); n > 0 {
		ev := e.retryPool[n-1]
		e.retryPool = e.retryPool[:n-1]
		return ev
	}
	return &retryEv{e: e}
}

func (e *Engine) getRebootEv() *rebootEv {
	if n := len(e.rebootPool); n > 0 {
		ev := e.rebootPool[n-1]
		e.rebootPool = e.rebootPool[:n-1]
		return ev
	}
	return &rebootEv{e: e}
}

// scheduleChurn chains the node-leave stream from the given time
// through the persistent churnFn closure.
func (e *Engine) scheduleChurn(from float64) {
	next := e.cfg.Churn.Leave.Next(from, e.churnRng)
	if math.IsInf(next, 1) || next >= e.cfg.Horizon {
		return
	}
	e.nextChurn = next
	e.cl.Eng.At(next, e.churnFn)
}

// onLeave takes one alive, unprotected node off the air and schedules
// its reboot. Victims are drawn from the ascending node-ID list so the
// pick is a pure function of the churn rng.
func (e *Engine) onLeave() {
	e.candBuf = e.candBuf[:0]
	for _, id := range e.cl.Medium.IDs() {
		if !e.protected[id] && !e.cl.Medium.Down(id) {
			e.candBuf = append(e.candBuf, id)
		}
	}
	if len(e.candBuf) == 0 {
		return
	}
	victim := e.candBuf[e.churnRng.Intn(len(e.candBuf))]
	e.cl.FailNode(victim)
	e.stats.NodeLeaves++
	e.rec.Point(e.cl.Eng.Now(), int(victim), "engine", "churn.leave", "")
	if e.ad != nil {
		for _, svcID := range e.ad.NodeDown(e.cl.Eng.Now()) {
			e.kill(svcID)
		}
	}
	down := arrival.Exp(e.churnRng, e.cfg.Churn.DownMean)
	ev := e.getRebootEv()
	ev.victim = victim
	e.cl.Eng.AfterArg(down, runReboot, ev)
}

// scheduleFreezes arms the fault plan's precomputed freeze/thaw
// schedule. A freeze is a gray failure: the node's radio goes dark (the
// injector drops its traffic) while its timers, provider and ledger
// live on — so unlike churn there is no FailNode and no reboot purge.
// With adaptation on, the node is marked avoided and its orphaned
// tasks re-placed immediately; without it, the organizer's own monitor
// (when enabled) notices the silence.
func (e *Engine) scheduleFreezes() {
	for _, ev := range e.cfg.Faults.FreezeEvents() {
		ev := ev
		e.cl.Eng.At(ev.T, func() { e.onFreezeEvent(ev) })
	}
}

func (e *Engine) onFreezeEvent(ev faults.FreezeEvent) {
	if !ev.Frozen {
		e.rec.Point(e.cl.Eng.Now(), int(ev.Node), "engine", "thaw", "")
		if e.ad != nil {
			e.ad.SetAvoid(ev.Node, false)
		}
		return
	}
	e.freezes.Inc()
	e.rec.Point(e.cl.Eng.Now(), int(ev.Node), "engine", "freeze", "")
	if e.ad != nil {
		e.ad.SetAvoid(ev.Node, true)
		for _, svcID := range e.ad.NodeUnreachable(e.cl.Eng.Now(), ev.Node) {
			e.kill(svcID)
		}
	}
}

// scheduleReconcile chains the periodic reservation sweep from
// ReconcileEvery to the horizon.
func (e *Engine) scheduleReconcile() {
	var tick func()
	next := e.cfg.ReconcileEvery
	tick = func() {
		e.reconcile()
		next += e.cfg.ReconcileEvery
		if next < e.cfg.Horizon {
			e.cl.Eng.At(next, tick)
		}
	}
	if next < e.cfg.Horizon {
		e.cl.Eng.At(next, tick)
	}
}

// reconcile sweeps every provider ledger against the active-session
// registry and reclaims orphans: reservations for departed or killed
// services (whose Dissolve a dark radio swallowed), and reservations
// for tasks a live session migrated away from the holding node while
// it was unreachable. It models the local lease expiry a deployed
// provider would run — the node itself notices its organizer is gone
// and frees the grant — so reclaiming via direct ledger calls is the
// node's own cleanup, not an out-of-band message. Live sessions are
// only inspected when their organizer is quiescent: mid-round, an
// award-time reservation legitimately precedes its published
// assignment. All iteration orders are sorted, so the sweep is
// deterministic.
func (e *Engine) reconcile() {
	sp := e.rec.Begin(e.cl.Eng.Now(), -1, "engine", "reconcile", "")
	var swept int
	for _, id := range e.cl.Medium.IDs() {
		n := e.cl.Node(id)
		if n == nil {
			continue
		}
		prov := n.Provider
		for _, svcID := range prov.ServiceIDs() {
			org, active := e.activeSvc[svcID]
			if !active {
				prov.ReleaseService(svcID)
				e.reclaimed.Inc()
				swept++
				continue
			}
			if !org.Quiescent() {
				continue
			}
			for _, tid := range prov.ReservedTasks(svcID) {
				if a, ok := org.Assignment(tid); !ok || a.Node != id {
					prov.DropTask(svcID, tid)
					e.reclaimed.Inc()
					swept++
				}
			}
		}
	}
	if e.rec.Enabled() {
		sp.End(e.cl.Eng.Now(), fmt.Sprintf("%d reclaimed", swept))
	}
}

// scheduleAdapt chains the adaptation engine's clock-driven triggers:
// the utilisation-pressure check every PressureEvery seconds and the
// upgrade-reclamation scan every Epoch seconds, both from time 0 to the
// horizon. Churn repair is event-driven from onLeave instead.
func (e *Engine) scheduleAdapt() {
	cfg := e.ad.Config()
	if cfg.DegradeOnPressure && cfg.PressureEvery < e.cfg.Horizon {
		var tick func()
		next := cfg.PressureEvery
		tick = func() {
			sp := e.rec.Begin(e.cl.Eng.Now(), -1, "engine", "adapt.pressure", "")
			e.ad.Tick(e.cl.Eng.Now())
			sp.End(e.cl.Eng.Now(), "")
			next += cfg.PressureEvery
			if next < e.cfg.Horizon {
				e.cl.Eng.At(next, tick)
			}
		}
		e.cl.Eng.At(next, tick)
	}
	if cfg.UpgradeOnSlack && cfg.Epoch < e.cfg.Horizon {
		var scan func()
		next := cfg.Epoch
		scan = func() {
			sp := e.rec.Begin(e.cl.Eng.Now(), -1, "engine", "adapt.epoch", "")
			e.ad.EpochScan(e.cl.Eng.Now())
			sp.End(e.cl.Eng.Now(), "")
			next += cfg.Epoch
			if next < e.cfg.Horizon {
				e.cl.Eng.At(next, scan)
			}
		}
		e.cl.Eng.At(next, scan)
	}
}

// sampleTick accumulates the steady-state signals every SampleEvery
// seconds over [Warmup, Horizon].
func (e *Engine) sampleTick() {
	now := e.cl.Eng.Now()
	if len(e.live) > e.stats.PeakLive {
		e.stats.PeakLive = len(e.live)
	}
	e.liveAvg.Observe(now, float64(len(e.live)))

	// Mean QoS distance over live sessions (those with at least one
	// assigned task). Live sessions are summed in arrival order, and
	// AssignedDistanceSum sums each session's tasks in declaration order
	// without copying the assignment map, so the float summation is
	// deterministic (core's TestAssignedDistanceSumMatchesSnapshot pins
	// it to the Snapshot-derived sum).
	var total float64
	var n int
	for _, ls := range e.live {
		cnt, sum := ls.org.AssignedDistanceSum()
		if cnt == 0 {
			continue
		}
		total += sum / float64(cnt)
		n++
	}
	if n > 0 {
		e.dist.Add(total / float64(n))
	}

	// Per-resource utilization averaged over nodes.
	var util resource.Vector
	for _, res := range e.ledgers {
		cap, avail := res.Usage()
		for k := range util {
			if cap[k] > 0 {
				util[k] += (cap[k] - avail[k]) / cap[k]
			}
		}
	}
	for k := range util {
		e.utilAvg[k].Observe(now, util[k]/float64(len(e.ledgers)))
	}

	if next := now + e.cfg.SampleEvery; next <= e.cfg.Horizon {
		e.cl.Eng.At(next, e.sampleFn)
	}
}

// finalize closes the time averages at the horizon. Organizer counters
// are not touched here: teardown is their single accumulation point,
// and the drain pass tears down whatever is still live.
func (e *Engine) finalize() {
	e.stats.LiveAvg = e.liveAvg.Mean(e.cfg.Horizon)
	e.stats.DistanceAvg = e.dist.Mean()
	for k := range e.utilAvg {
		e.stats.Util[k] = e.utilAvg[k].Mean(e.cfg.Horizon)
	}
	e.stats.SimEvents = e.cl.Eng.Processed
	e.stats.Nodes = len(e.cl.Nodes())
}
