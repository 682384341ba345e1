package xp

import (
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/resource"
	"repro/internal/session"
	"repro/internal/workload"
)

// The city experiments (E20-E21) scale the open system out: instead of
// one neighbourhood at a time, the fabric engine runs a grid of
// independent neighbourhood shards on a worker pool and folds their
// steady-state stats into city-wide tables. Shard s derives all of its
// randomness from seed + s, so the tables are bit-identical at any
// -parallel width — scripts/determinism.sh enforces that in CI.

// splitHotEdge separates a 3x3 city's centre ("hot") shard from the
// merged 8 outer ("edge") shards — the reporting convention E21 and
// E24 share.
func splitHotEdge(res *fabric.Result) (hot fabric.ShardResult, edge session.Stats) {
	const centre = 4 // (1,1) of the 3x3 grid
	for i := range res.Shards {
		if i != centre {
			st := res.Shards[i].Stats
			edge.Merge(&st)
		}
	}
	return res.Shards[centre], edge
}

// cityRun drives one city replication. The fabric's shard pool reuses
// the sweep's parallelism knob: the replication is deterministic either
// way, the width only sets how many shards run concurrently.
func cityRun(rep Rep, cfg Config, city workload.CityScenario, churnPerHour float64) (*fabric.Result, error) {
	horizon, warmup := openHorizon(cfg.Quick)
	fc := fabric.Config{
		City:      city,
		Template:  workload.SessionTemplate{Name: "city", Tasks: 3, Scale: 1.0},
		HoldMean:  40,
		Horizon:   horizon,
		Warmup:    warmup,
		Organizer: core.DefaultOrganizerConfig,
		Parallel:  cfg.Parallel,
		Seed:      rep.Seed,
	}
	if churnPerHour > 0 {
		fc.ChurnPerHour, fc.ChurnDownMean = churnPerHour, 30
	}
	return fabric.Run(fc)
}

// E20ShardScaling fixes the city-wide offered load and spreads it over
// more and more neighbourhood shards: the scale-out claim in simulated
// terms. One shard drowning in 16 erlangs blocks most sessions; eight
// shards carrying 2 erlangs each admit nearly everything — the city
// admits more sessions per simulated hour from the same demand, and
// because shards are independent the fabric turns extra cores directly
// into wall-clock speedup (BenchmarkCityFabric measures that half).
func E20ShardScaling(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E20 shard-count scaling at fixed total offered load",
		"shards", "nodes", "arrivals", "admission", "blocking", "admitted/h",
		"live-avg", "cpu-util", "events")
	shardCounts := []int{1, 2, 4, 8}
	if cfg.Quick {
		shardCounts = []int{1, 4}
	}
	const totalRate = 0.4 // sessions/s city-wide: 16 erlangs at 40 s holding
	horizon, warmup := openHorizon(cfg.Quick)
	reps := repeats(cfg)
	acc, err := sweep(cfg, reps, shardCounts, func(shards int, rep Rep) ([]float64, error) {
		city := workload.CityScenario{
			Rows: 1, Cols: shards, NodesPerShard: 16,
			TotalRate: totalRate, Profile: workload.CityUniform,
		}
		res, err := cityRun(rep, cfg, city, 0)
		if err != nil {
			return nil, err
		}
		st := &res.City
		return []float64{
			float64(st.Nodes), float64(st.Arrivals),
			st.AdmissionRatio(), st.BlockingRatio(),
			float64(st.Admitted) * 3600 / (horizon - warmup),
			st.LiveAvg, st.Util[resource.CPU], float64(st.SimEvents),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, shards := range shardCounts {
		s := acc.Point(i)
		t.AddRow(shards, s[0].Mean(), s[1].Mean(),
			metrics.Ratio(s[2].Mean(), 1), metrics.Ratio(s[3].Mean(), 1),
			s[4].Mean(), s[5].Mean(), s[6].Mean(), s[7].Mean())
	}
	t.Note("city offered load fixed at %.2f sessions/s (%.0f erlangs at 40s holding), split uniformly across shards of 16 nodes", totalRate, totalRate*40)
	t.Note("horizon %gs, warmup %gs; %d seeds per row; shards run on the fabric worker pool — tables are identical at any -parallel width", horizon, warmup, reps)
	return t, nil
}

// E21HotspotImbalance fixes the city-wide offered load on a 3x3 grid
// and skews it toward the centre neighbourhood: mean load alone does
// not determine city-wide quality — the hotspot saturates while the
// edge shards idle, so blocking rises with skew at exactly equal total
// demand. The per-shard stats the fabric keeps make the mechanism
// visible: centre blocking explodes, edge blocking stays near zero.
func E21HotspotImbalance(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E21 hotspot imbalance at fixed total offered load",
		"boost", "hot-rate/s", "admission", "blocking", "hot-blocking", "edge-blocking",
		"live-avg", "cpu-util")
	boosts := []float64{1, 2, 4, 8}
	if cfg.Quick {
		boosts = []float64{1, 8}
	}
	const totalRate = 0.99 // 0.11 sessions/s per shard when uniform
	reps := repeats(cfg)
	acc, err := sweep(cfg, reps, boosts, func(boost float64, rep Rep) ([]float64, error) {
		city := workload.CityScenario{
			Rows: 3, Cols: 3, NodesPerShard: 16,
			TotalRate: totalRate, Profile: workload.CityHotspot, HotspotBoost: boost,
		}
		res, err := cityRun(rep, cfg, city, 0)
		if err != nil {
			return nil, err
		}
		hot, edge := splitHotEdge(res)
		return []float64{
			hot.Rate,
			res.City.AdmissionRatio(), res.City.BlockingRatio(),
			hot.Stats.BlockingRatio(), edge.BlockingRatio(),
			res.City.LiveAvg, res.City.Util[resource.CPU],
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, boost := range boosts {
		s := acc.Point(i)
		t.AddRow(boost, s[0].Mean(),
			metrics.Ratio(s[1].Mean(), 1), metrics.Ratio(s[2].Mean(), 1),
			metrics.Ratio(s[3].Mean(), 1), metrics.Ratio(s[4].Mean(), 1),
			s[5].Mean(), s[6].Mean())
	}
	t.Note("3x3 grid of 16-node shards; city load fixed at %.2f sessions/s, hotspot weight 1+(boost-1)*2^-d, rates renormalized to the fixed total", totalRate)
	t.Note("hot = centre shard, edge = merged 8 outer shards; %d seeds per row", reps)
	return t, nil
}
