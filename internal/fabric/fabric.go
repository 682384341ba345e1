package fabric

import (
	"fmt"

	"repro/internal/adapt"
	"repro/internal/admit"
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/session"
	"repro/internal/workload"
)

// Config parameterizes one city-scale run.
type Config struct {
	// City lays out the shard grid and shapes the per-shard load.
	City workload.CityScenario
	// Template stamps out every shard's arriving services. Service IDs
	// only need to be unique within a shard (each shard is its own
	// cluster), so all shards share the template and its compiled
	// demand references.
	Template workload.SessionTemplate
	// HoldMean is the mean exponential session holding time (seconds).
	HoldMean float64
	// Horizon and Warmup bound every shard's common measurement window.
	Horizon, Warmup float64
	// Organizer configures each session's negotiation organizer.
	Organizer core.OrganizerConfig
	// ChurnPerHour, when positive, churns helper nodes within each
	// shard at the given rate (leaves per hour per shard); victims
	// rejoin after an exponential downtime of ChurnDownMean seconds.
	ChurnPerHour, ChurnDownMean float64
	// Adapt, when set, runs the mid-session QoS adaptation engine
	// inside every shard; the city merge folds the per-shard adaptation
	// counters alongside the rest of session.Stats.
	Adapt *adapt.Config
	// Admission, when set, runs the admission-policy layer
	// (internal/admit) inside every shard; the city merge folds the
	// per-shard admission counters alongside the rest of session.Stats.
	Admission *admit.Config
	// Parallel is the worker-pool width shards fan out over (<= 1 runs
	// them sequentially). Results are identical at every width.
	Parallel int
	// Seed is the city's base seed; shard s uses shardSeed(Seed, s) —
	// a splitmix64 hash — for both its neighbourhood generation and
	// its session lifecycle streams.
	Seed int64
}

// ShardResult is one shard's outcome plus its grid identity.
type ShardResult struct {
	// Shard is the shard index (row-major over the grid).
	Shard int
	// Row, Col locate the shard on the city grid.
	Row, Col int
	// Rate is the shard's calibrated mean arrival rate (sessions/s).
	Rate float64
	// Stats is the shard's steady-state outcome over [Warmup, Horizon].
	Stats session.Stats
}

// Result is a completed city run: every shard's stats plus the merged
// city-wide view.
type Result struct {
	// Shards holds per-shard results in ascending shard order.
	Shards []ShardResult
	// City folds every shard via session.Stats.Merge in shard order:
	// counters and live averages sum, utilization is node-weighted,
	// QoS distance is admission-weighted.
	City session.Stats
}

// Run executes every shard of the configured city and merges their
// steady-state statistics. It validates the configuration, fans the
// shards out over min(Parallel, shards) workers, and returns the
// lowest-index shard error if any shard fails.
func Run(cfg Config) (*Result, error) {
	if err := cfg.City.Validate(); err != nil {
		return nil, err
	}
	if cfg.HoldMean <= 0 {
		return nil, fmt.Errorf("fabric: holding-time mean must be positive, got %g", cfg.HoldMean)
	}
	if cfg.ChurnPerHour > 0 && cfg.ChurnDownMean <= 0 {
		return nil, fmt.Errorf("fabric: churn needs a positive downtime mean, got %g", cfg.ChurnDownMean)
	}
	n := cfg.City.Shards()
	results := make([]*session.Stats, n)
	err := par.Do(n, cfg.Parallel, func(shard int) error {
		st, err := runShard(cfg, shard)
		if err != nil {
			return fmt.Errorf("fabric: shard %d: %w", shard, err)
		}
		results[shard] = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Result{Shards: make([]ShardResult, n)}
	for s := 0; s < n; s++ {
		row, col := cfg.City.Pos(s)
		out.Shards[s] = ShardResult{
			Shard: s, Row: row, Col: col,
			Rate:  cfg.City.ShardRate(s),
			Stats: *results[s],
		}
		out.City.Merge(results[s])
	}
	return out, nil
}

// shardSeed hashes (seed, shard) through the splitmix64 finalizer.
// A plain Seed + shard would collide with the sweep runner one level
// up, which gives replication r the consecutive seed cfg.Seed + r:
// replication 0's shard 1 and replication 1's shard 0 would then run
// the same substreams, making the "N seeds per row" of E20/E21
// near-duplicates instead of independent samples. The hash keeps the
// derivation a pure function of (seed, shard) — the determinism
// contract — while decorrelating consecutive seeds completely.
func shardSeed(seed int64, shard int) int64 {
	z := uint64(seed) + (uint64(shard)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// runShard builds one neighbourhood and drives its open-system
// lifecycle to the horizon. Everything random — the node placement and
// device mix, the arrival stream, holding times, churn victims — derives
// from shardSeed(Seed, shard), so a shard's stats are a pure function
// of (cfg, shard) regardless of which worker runs it.
func runShard(cfg Config, shard int) (*session.Stats, error) {
	seed := shardSeed(cfg.Seed, shard)
	sc, err := workload.Build(cfg.City.ScenarioConfig(seed))
	if err != nil {
		return nil, err
	}
	scfg := session.Config{
		Arrivals:   cfg.City.ArrivalProcess(shard),
		NewService: cfg.Template.Instantiate,
		HoldMean:   cfg.HoldMean,
		Horizon:    cfg.Horizon,
		Warmup:     cfg.Warmup,
		Organizer:  cfg.Organizer,
		Adapt:      cfg.Adapt,
		Admission:  cfg.Admission,
	}
	if cfg.ChurnPerHour > 0 {
		scfg.Churn = &session.ChurnConfig{
			Leave:    arrival.Poisson{Rate: cfg.ChurnPerHour / 3600},
			DownMean: cfg.ChurnDownMean,
		}
	}
	eng, err := session.New(sc.Cluster, scfg, seed)
	if err != nil {
		return nil, err
	}
	return eng.Run()
}
