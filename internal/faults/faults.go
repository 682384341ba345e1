// Package faults is the deterministic adversarial layer of the
// simulator: an Injector attaches to the radio medium's delivery hook
// (radio.Interceptor) and subjects every otherwise-successful delivery
// to a seeded fault plan — i.i.d. and bursty message loss, delay
// spikes, duplication (and, through delay, reordering), node
// freeze/unfreeze schedules, and transient k-way partitions.
//
// Every decision is a pure function of (Seed, Plan) and the delivery
// sequence: the injector owns private rngs derived from the seed by
// splitmix64 and never touches the engine rng, so a chaos run replays
// bit-identically and its experiment tables golden-pin like any other
// (E25-E27). Burst-loss phases and freeze schedules are precomputed
// on/off processes in the style of internal/arrival's MMPP: alternating
// exponential on/off dwell times drawn once at construction.
//
// The injector heals at its horizon: past Horizon every fate is the
// zero fate, so the session engine's drain (dissolves, release
// broadcasts) settles over a clean medium and leak accounting isolates
// what the faults themselves orphaned. A frozen node whose interval is
// cut by the horizon thaws with coalition state intact — the
// reservation-reconciliation sweep (internal/session) is what reclaims
// it.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/radio"
)

// BurstLoss is an on/off (MMPP-style) loss process layered over the
// plan's i.i.d. loss: while the process is ON every delivery drops
// with probability LossOn, while OFF the base Plan.Loss applies. Dwell
// times are exponential with the given means, starting OFF.
type BurstLoss struct {
	// LossOn is the drop probability during ON phases (0,1].
	LossOn float64
	// MeanOn and MeanOff are the mean phase durations in seconds.
	MeanOn, MeanOff float64
}

// FreezePlan schedules gray failures: a frozen node keeps its radio,
// timers and ledger — the paper's "silent member" — but every delivery
// from or to it is consumed until it thaws. Freeze events arrive as a
// Poisson process over the population; victims and exponential
// durations are drawn at construction.
type FreezePlan struct {
	// Rate is freezes per second across the whole population.
	Rate float64
	// MeanDur is the mean frozen duration in seconds.
	MeanDur float64
	// Protected lists nodes never frozen (typically the organizer
	// nodes, mirroring session.Config.Organizers churn protection).
	Protected []radio.NodeID
}

// PartitionPlan opens periodic k-way splits: during each window the
// population is hashed into K groups and cross-group deliveries drop.
// Group membership is re-drawn (by hash) every window, so successive
// splits cut the neighbourhood differently.
type PartitionPlan struct {
	// K is the number of groups (>= 2).
	K int
	// Every is the window cadence in seconds: window w covers
	// [Every*(w+1), Every*(w+1)+Len).
	Every float64
	// Len is the window length in seconds (must stay below Every).
	Len float64
}

// Plan is one deterministic adversarial schedule. The zero Plan
// injects nothing.
type Plan struct {
	// Loss is the i.i.d. per-delivery drop probability.
	Loss float64
	// Burst layers an on/off loss process over Loss.
	Burst *BurstLoss
	// DelayProb is the probability a delivery suffers a latency spike;
	// spike sizes are exponential with mean DelayMean seconds.
	DelayProb float64
	DelayMean float64
	// DupProb is the probability a delivery is duplicated; the clone
	// lands DupLag seconds after the original, so a positive lag also
	// reorders it past back-to-back traffic.
	DupProb float64
	DupLag  float64
	// Freeze schedules node freeze/unfreeze events.
	Freeze *FreezePlan
	// Partition opens periodic k-way splits.
	Partition *PartitionPlan
}

// validate rejects plans outside their domains.
func (p *Plan) validate() error {
	if p.Loss < 0 || p.Loss >= 1 {
		return fmt.Errorf("faults: Loss %g outside [0,1)", p.Loss)
	}
	if p.Burst != nil {
		b := p.Burst
		if b.LossOn <= 0 || b.LossOn > 1 {
			return fmt.Errorf("faults: Burst.LossOn %g outside (0,1]", b.LossOn)
		}
		if b.MeanOn <= 0 || b.MeanOff <= 0 {
			return fmt.Errorf("faults: burst phase means must be positive")
		}
	}
	if p.DelayProb < 0 || p.DelayProb >= 1 {
		return fmt.Errorf("faults: DelayProb %g outside [0,1)", p.DelayProb)
	}
	if p.DelayProb > 0 && p.DelayMean <= 0 {
		return fmt.Errorf("faults: DelayMean must be positive with DelayProb set")
	}
	if p.DupProb < 0 || p.DupProb >= 1 {
		return fmt.Errorf("faults: DupProb %g outside [0,1)", p.DupProb)
	}
	if p.DupLag < 0 {
		return fmt.Errorf("faults: DupLag must be non-negative")
	}
	if f := p.Freeze; f != nil && (f.Rate <= 0 || f.MeanDur <= 0) {
		return fmt.Errorf("faults: freeze plan needs positive Rate and MeanDur")
	}
	if pt := p.Partition; pt != nil {
		if pt.K < 2 {
			return fmt.Errorf("faults: partition K must be >= 2, got %d", pt.K)
		}
		if pt.Every <= 0 || pt.Len <= 0 || pt.Len >= pt.Every {
			return fmt.Errorf("faults: partition needs 0 < Len < Every")
		}
	}
	return nil
}

// interval is one half-open [start, end) span.
type interval struct{ start, end float64 }

// FreezeEvent is one freeze-state transition, for owners that mirror
// the schedule onto their own clock (the session engine bridges these
// to the adaptation repair path).
type FreezeEvent struct {
	T      float64
	Node   radio.NodeID
	Frozen bool
}

// Stats counts what the injector actually did to one run.
type Stats struct {
	// Drops counts deliveries consumed by loss (i.i.d. or burst).
	Drops uint64
	// Delayed and Dups count latency spikes and duplications applied.
	Delayed uint64
	Dups    uint64
	// FreezeDrops and PartitionDrops count deliveries consumed because
	// an endpoint was frozen, or the endpoints were in different
	// partition groups.
	FreezeDrops    uint64
	PartitionDrops uint64
}

// Injector implements radio.Interceptor over one plan. It must only be
// consulted with non-decreasing now values (the engine clock), which
// lets the precomputed on/off schedules advance by cursor.
type Injector struct {
	plan    Plan
	horizon float64
	seed    int64

	// draws serves the per-delivery loss/delay/dup draws, in delivery
	// order; phase/freeze schedules were drawn at construction from
	// separately derived rngs so the two streams never interleave.
	draws *rand.Rand

	// burstOn holds the precomputed ON intervals, cursor-advanced.
	burstOn  []interval
	burstCur int

	// frozen maps each node to its merged freeze intervals.
	frozen    map[radio.NodeID]*freezeTrack
	freezeEvs []FreezeEvent

	partSalt uint64

	// Stats is exported for experiment tables and the qosim CLI.
	Stats Stats
}

type freezeTrack struct {
	ivs []interval
	cur int
}

// splitmix64 is the seed-derivation hash (Steele et al.), also used to
// hash partition group membership.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subRng derives an independent rng stream for one concern.
func subRng(seed int64, concern uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix64(uint64(seed) ^ concern))))
}

// exp draws an exponential with the given mean.
func exp(rng *rand.Rand, mean float64) float64 { return rng.ExpFloat64() * mean }

// New builds an injector for one run: nodes is the population the
// freeze plan draws victims from, horizon the time past which the plan
// heals (the session engine's Config.Horizon). The whole schedule —
// burst phases, freeze victims and durations — is drawn here, so two
// injectors with equal (seed, horizon, nodes, plan) are
// indistinguishable whatever traffic they see.
func New(seed int64, horizon float64, nodes []radio.NodeID, plan Plan) (*Injector, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("faults: horizon must be positive, got %g", horizon)
	}
	inj := &Injector{
		plan:     plan,
		horizon:  horizon,
		seed:     seed,
		draws:    subRng(seed, 0xfa17de11),
		partSalt: splitmix64(uint64(seed) ^ 0x9a97170970),
	}
	if b := plan.Burst; b != nil {
		rng := subRng(seed, 0xb1257)
		t := 0.0
		on := false
		for t < horizon {
			var dwell float64
			if on {
				dwell = exp(rng, b.MeanOn)
				inj.burstOn = append(inj.burstOn, interval{t, math.Min(t+dwell, horizon)})
			} else {
				dwell = exp(rng, b.MeanOff)
			}
			t += dwell
			on = !on
		}
	}
	if f := plan.Freeze; f != nil {
		prot := make(map[radio.NodeID]bool, len(f.Protected))
		for _, id := range f.Protected {
			prot[id] = true
		}
		var eligible []radio.NodeID
		for _, id := range nodes {
			if !prot[id] {
				eligible = append(eligible, id)
			}
		}
		if len(eligible) == 0 {
			return nil, fmt.Errorf("faults: freeze plan protects every node")
		}
		rng := subRng(seed, 0xf2331e)
		raw := make(map[radio.NodeID][]interval)
		for t := exp(rng, 1/f.Rate); t < horizon; t += exp(rng, 1/f.Rate) {
			victim := eligible[rng.Intn(len(eligible))]
			raw[victim] = append(raw[victim], interval{t, t + exp(rng, f.MeanDur)})
		}
		inj.frozen = make(map[radio.NodeID]*freezeTrack, len(raw))
		for id, ivs := range raw {
			merged := mergeIntervals(ivs)
			inj.frozen[id] = &freezeTrack{ivs: merged}
			for _, iv := range merged {
				inj.freezeEvs = append(inj.freezeEvs, FreezeEvent{T: iv.start, Node: id, Frozen: true})
				inj.freezeEvs = append(inj.freezeEvs, FreezeEvent{T: math.Min(iv.end, horizon), Node: id, Frozen: false})
			}
		}
		sort.SliceStable(inj.freezeEvs, func(i, j int) bool {
			a, b := inj.freezeEvs[i], inj.freezeEvs[j]
			if a.T != b.T {
				return a.T < b.T
			}
			if a.Node != b.Node {
				return a.Node < b.Node
			}
			return !a.Frozen && b.Frozen // thaw before freeze at a tie
		})
	}
	return inj, nil
}

// mergeIntervals sorts and merges overlapping spans so the cursor scan
// in frozenAt stays monotone.
func mergeIntervals(ivs []interval) []interval {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		if last := &out[len(out)-1]; iv.start <= last.end {
			if iv.end > last.end {
				last.end = iv.end
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// FreezeEvents returns the full freeze/thaw schedule in time order.
// Owners that must *react* to freezes (the session engine's adaptation
// bridge) schedule these on their own clock; the injector itself needs
// no callbacks — delivery fates read the precomputed intervals.
func (inj *Injector) FreezeEvents() []FreezeEvent { return inj.freezeEvs }

// Frozen reports whether the node is inside a freeze interval at now.
// Like DeliverFate it must be called with non-decreasing now.
func (inj *Injector) Frozen(id radio.NodeID, now float64) bool {
	if now >= inj.horizon {
		return false
	}
	tr, ok := inj.frozen[id]
	if !ok {
		return false
	}
	for tr.cur < len(tr.ivs) && tr.ivs[tr.cur].end <= now {
		tr.cur++
	}
	return tr.cur < len(tr.ivs) && tr.ivs[tr.cur].start <= now
}

// burstActive reports whether the on/off loss process is ON at now.
func (inj *Injector) burstActive(now float64) bool {
	for inj.burstCur < len(inj.burstOn) && inj.burstOn[inj.burstCur].end <= now {
		inj.burstCur++
	}
	return inj.burstCur < len(inj.burstOn) && inj.burstOn[inj.burstCur].start <= now
}

// group hashes a node into its partition group for window w.
func (inj *Injector) group(id radio.NodeID, w uint64) int {
	h := splitmix64(inj.partSalt ^ uint64(id)*0x9e3779b97f4a7c15 ^ w<<32)
	return int(h % uint64(inj.plan.Partition.K))
}

// partitioned reports whether from and to are split at now.
func (inj *Injector) partitioned(now float64, from, to radio.NodeID) bool {
	pt := inj.plan.Partition
	if pt == nil || now < pt.Every {
		return false
	}
	w := uint64((now - pt.Every) / pt.Every)
	start := pt.Every * float64(w+1)
	if now < start || now >= start+pt.Len {
		return false
	}
	return inj.group(from, w) != inj.group(to, w)
}

// DeliverFate implements radio.Interceptor: the fate of one delivery,
// drawn in delivery order from the injector's private rng. Past the
// horizon the plan heals and every fate is the zero fate.
func (inj *Injector) DeliverFate(now float64, from, to radio.NodeID, size int) radio.Fate {
	if now >= inj.horizon {
		return radio.Fate{}
	}
	if inj.frozen != nil && (inj.Frozen(from, now) || inj.Frozen(to, now)) {
		inj.Stats.FreezeDrops++
		return radio.Fate{Drop: true}
	}
	if inj.partitioned(now, from, to) {
		inj.Stats.PartitionDrops++
		return radio.Fate{Drop: true}
	}
	loss := inj.plan.Loss
	if inj.plan.Burst != nil && inj.burstActive(now) {
		loss = inj.plan.Burst.LossOn
	}
	if loss > 0 && inj.draws.Float64() < loss {
		inj.Stats.Drops++
		return radio.Fate{Drop: true}
	}
	var fate radio.Fate
	if inj.plan.DelayProb > 0 && inj.draws.Float64() < inj.plan.DelayProb {
		fate.Delay = exp(inj.draws, inj.plan.DelayMean)
		inj.Stats.Delayed++
	}
	if inj.plan.DupProb > 0 && inj.draws.Float64() < inj.plan.DupProb {
		fate.Dup, fate.DupDelay = true, inj.plan.DupLag
		inj.Stats.Dups++
	}
	return fate
}
