package repro

// One benchmark per experiment (E1-E19, the repo's "evaluation section";
// the paper publishes no tables or figures, see DESIGN.md and
// EXPERIMENTS.md) plus micro-benchmarks for the hot paths: distance
// evaluation, proposal formulation, winner selection, and a full
// end-to-end formation.
//
// Experiment benchmarks run the Quick configuration once per iteration;
// run cmd/qosbench for the full-size tables. BenchmarkSweepParallel
// measures how the xp sweep engine scales with worker-pool width.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/workload"
	"repro/internal/xp"
)

func benchExperiment(b *testing.B, run func(xp.Config) (*metrics.Table, error)) {
	b.Helper()
	cfg := xp.Config{Seed: 1, Repeats: 1, Quick: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE1AcceptanceVsNodes(b *testing.B)  { benchExperiment(b, xp.E1AcceptanceVsNodes) }
func BenchmarkE2UtilityVsLoad(b *testing.B)      { benchExperiment(b, xp.E2UtilityVsLoad) }
func BenchmarkE3MessageOverhead(b *testing.B)    { benchExperiment(b, xp.E3MessageOverhead) }
func BenchmarkE4CoalitionSize(b *testing.B)      { benchExperiment(b, xp.E4CoalitionSize) }
func BenchmarkE5HeuristicVsOptimal(b *testing.B) { benchExperiment(b, xp.E5HeuristicVsOptimal) }
func BenchmarkE6SelectionAblation(b *testing.B)  { benchExperiment(b, xp.E6SelectionAblation) }
func BenchmarkE7FailureReconfig(b *testing.B)    { benchExperiment(b, xp.E7FailureReconfig) }
func BenchmarkE8Heterogeneity(b *testing.B)      { benchExperiment(b, xp.E8Heterogeneity) }
func BenchmarkE9DistanceConsistency(b *testing.B) {
	benchExperiment(b, xp.E9DistanceConsistency)
}
func BenchmarkE10NetVsSim(b *testing.B)           { benchExperiment(b, xp.E10NetVsSim) }
func BenchmarkE11MobilityStress(b *testing.B)     { benchExperiment(b, xp.E11MobilityStress) }
func BenchmarkE12LossyRadio(b *testing.B)         { benchExperiment(b, xp.E12LossyRadio) }
func BenchmarkE13ConcurrentServices(b *testing.B) { benchExperiment(b, xp.E13ConcurrentServices) }
func BenchmarkE14EnergyDepletion(b *testing.B)    { benchExperiment(b, xp.E14EnergyDepletion) }
func BenchmarkE15QualityUpgrade(b *testing.B)     { benchExperiment(b, xp.E15QualityUpgrade) }
func BenchmarkE16OptimalScaling(b *testing.B)     { benchExperiment(b, xp.E16OptimalScaling) }
func BenchmarkE17OfferedLoad(b *testing.B)        { benchExperiment(b, xp.E17OfferedLoad) }
func BenchmarkE18ArrivalShapes(b *testing.B)      { benchExperiment(b, xp.E18ArrivalShapes) }
func BenchmarkE19CombinedChurn(b *testing.B)      { benchExperiment(b, xp.E19CombinedChurn) }
func BenchmarkE20ShardScaling(b *testing.B)       { benchExperiment(b, xp.E20ShardScaling) }
func BenchmarkE21HotspotImbalance(b *testing.B)   { benchExperiment(b, xp.E21HotspotImbalance) }
func BenchmarkE22AdaptChurn(b *testing.B)         { benchExperiment(b, xp.E22AdaptChurn) }
func BenchmarkE23UpgradeReclamation(b *testing.B) { benchExperiment(b, xp.E23UpgradeReclamation) }
func BenchmarkE24CityAdaptation(b *testing.B)     { benchExperiment(b, xp.E24CityAdaptation) }
func BenchmarkE25LossRetry(b *testing.B)          { benchExperiment(b, xp.E25LossRetry) }
func BenchmarkE26BurstLoss(b *testing.B)          { benchExperiment(b, xp.E26BurstLoss) }
func BenchmarkE27PartitionHeal(b *testing.B)      { benchExperiment(b, xp.E27PartitionHeal) }
func BenchmarkE28InteropTCP(b *testing.B)         { benchExperiment(b, xp.E28InteropTCP) }
func BenchmarkE29AdmissionPolicies(b *testing.B)  { benchExperiment(b, xp.E29AdmissionPolicies) }
func BenchmarkE30QueueVsYieldBurst(b *testing.B)  { benchExperiment(b, xp.E30QueueVsYieldBurst) }

// BenchmarkSweepParallel runs one full-size replication-heavy
// experiment at increasing worker-pool widths. Throughput should scale
// with cores while the emitted table stays bit-identical (asserted in
// internal/xp's determinism test).
func BenchmarkSweepParallel(b *testing.B) {
	widths := []int{1, 2, 4, runtime.NumCPU()}
	for _, w := range widths {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := xp.Config{Seed: 1, Repeats: 5, Parallel: w}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tbl, err := xp.E1AcceptanceVsNodes(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(tbl.Rows) == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// BenchmarkCityFabric measures the fabric's weak scaling: every shard
// carries the same fixed load (2 erlangs on 16 nodes), so an N-shard
// city simulates N times the work of a single neighbourhood. Because
// shards are independent deterministic sub-simulations fanned out over
// the worker pool, wall time should stay near-flat up to the core count
// while simulated sessions per wall-second — the sessions/s metric —
// grows near-linearly in the shard count.
func BenchmarkCityFabric(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := fabric.Config{
				City: workload.CityScenario{
					Rows: 1, Cols: shards, NodesPerShard: 16,
					TotalRate: 0.05 * float64(shards), Profile: workload.CityUniform,
				},
				Template:  workload.SessionTemplate{Name: "bench-city", Tasks: 3, Scale: 1.0},
				HoldMean:  40,
				Horizon:   300,
				Warmup:    60,
				Organizer: core.DefaultOrganizerConfig,
				Parallel:  runtime.NumCPU(),
				Seed:      1,
			}
			b.ReportAllocs()
			var sessions int
			for i := 0; i < b.N; i++ {
				res, err := fabric.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				sessions = res.City.Arrivals
			}
			b.ReportMetric(float64(sessions)*float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
		})
	}
}

// BenchmarkSessionsPerSecond is the repo's throughput headline: how
// many complete session lifecycles (arrival, negotiation, operation,
// departure) the pooled engine simulates per wall-clock second. The
// sweep is weak-scaling — workers=N drives N independent 16-node
// neighbourhoods, each under the same fixed load, across N pool
// workers — so sessions/s should grow near-linearly in N up to the core
// count while ns/op stays near-flat. workers=1 is the single-engine
// figure the pooling targets.
func BenchmarkSessionsPerSecond(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := fabric.Config{
				City: workload.CityScenario{
					Rows: 1, Cols: workers, NodesPerShard: 16,
					TotalRate: 0.1 * float64(workers), Profile: workload.CityUniform,
				},
				Template:  workload.SessionTemplate{Name: "bench-sps", Tasks: 2, Scale: 1.0},
				HoldMean:  30,
				Horizon:   600,
				Warmup:    60,
				Organizer: core.DefaultOrganizerConfig,
				Parallel:  workers,
				Seed:      1,
			}
			b.ReportAllocs()
			var sessions int
			for i := 0; i < b.N; i++ {
				res, err := fabric.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				sessions = res.City.Arrivals
			}
			if sessions == 0 {
				b.Fatal("no sessions simulated")
			}
			b.ReportMetric(float64(sessions)*float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
		})
	}
}

// --- micro-benchmarks ---

// BenchmarkDistanceEval measures one Section 6 multi-attribute
// evaluation (the organizer's inner loop).
func BenchmarkDistanceEval(b *testing.B) {
	spec := workload.VideoSpec()
	req := workload.SurveillanceRequest()
	eval, err := qos.NewEvaluator(spec, &req)
	if err != nil {
		b.Fatal(err)
	}
	level := qos.Level{
		{Dim: "video", Attr: "frame_rate"}:    qos.Int(7),
		{Dim: "video", Attr: "color_depth"}:   qos.Int(1),
		{Dim: "audio", Attr: "sampling_rate"}: qos.Int(8),
		{Dim: "audio", Attr: "sample_bits"}:   qos.Int(8),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Distance(level); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFormulate measures the Section 5 degradation heuristic under
// moderate scarcity — the provider's inner loop. Providers compile a
// CFP task once and reuse the compiled problem across rounds and
// concurrent negotiations, so the steady-state cost is cp.Formulate — a
// scan of the precomputed degradation path; BenchmarkFormulateOneShot
// prices the cold path.
func BenchmarkFormulate(b *testing.B) {
	spec := workload.VideoSpec()
	req := workload.StreamingRequest("b")
	dm := workload.VideoDemand(1)
	capacity := workload.PDA.Capacity
	avail := func(d resource.Vector) bool { return d.Fits(capacity) }
	cp, err := core.CompileProblem(spec, &req, dm, 4, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.Formulate(avail); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFormulateOneShot includes ladder construction, table
// compilation and the degradation-path walk in every iteration (a
// cache-miss CFP task).
func BenchmarkFormulateOneShot(b *testing.B) {
	spec := workload.VideoSpec()
	req := workload.StreamingRequest("b")
	dm := workload.VideoDemand(1)
	capacity := workload.PDA.Capacity
	avail := func(d resource.Vector) bool { return d.Fits(capacity) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp, err := core.CompileProblem(spec, &req, dm, 4, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cp.Formulate(avail); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFormulateExhaustive measures the optimal formulator that E5
// compares against.
func BenchmarkFormulateExhaustive(b *testing.B) {
	spec := workload.VideoSpec()
	req := workload.StreamingRequest("b")
	dm := workload.VideoDemand(1)
	capacity := workload.PDA.Capacity
	avail := func(d resource.Vector) bool { return d.Fits(capacity) }
	cp, err := core.CompileProblem(spec, &req, dm, 3, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.FormulateExhaustive(avail, 1<<21); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectWinners measures winner selection over 64 candidates x
// 8 tasks with the full three-criteria policy.
func BenchmarkSelectWinners(b *testing.B) {
	var tasks []string
	cands := make(map[string][]core.Candidate)
	level := qos.Level{{Dim: "d", Attr: "a"}: qos.Int(1)}
	for t := 0; t < 8; t++ {
		tid := string(rune('a' + t))
		tasks = append(tasks, tid)
		for n := 0; n < 64; n++ {
			cands[tid] = append(cands[tid], core.Candidate{
				Node: radio.NodeID(n), TaskID: tid, Level: level,
				Distance: float64(n%7) * 0.03, CommCost: float64(n%5) * 0.01, Copies: 2 + n%3,
			})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel := core.SelectWinners(tasks, cands, core.DefaultPolicy)
		if len(sel.Assigned) == 0 {
			b.Fatal("no assignment")
		}
	}
}

// BenchmarkFormation measures one complete negotiation (CFP through
// awards and acks) on a 16-node simulated neighbourhood.
func BenchmarkFormation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scfg := workload.DefaultScenario(int64(i))
		sc, err := workload.Build(scfg)
		if err != nil {
			b.Fatal(err)
		}
		svc := workload.StreamService("bench", 4, 1.0)
		done := false
		if _, err := sc.Cluster.Submit(0, 0, svc, core.DefaultOrganizerConfig, func(*core.Result) {
			done = true
		}); err != nil {
			b.Fatal(err)
		}
		sc.Cluster.Run(10)
		if !done {
			b.Fatal("formation incomplete")
		}
	}
}

// BenchmarkReservationChurn measures the resource substrate under
// reserve/release pressure.
func BenchmarkReservationChurn(b *testing.B) {
	set := resource.NewSet(workload.Laptop.Capacity)
	demand := resource.V(resource.KV{K: resource.CPU, A: 10}, resource.KV{K: resource.Memory, A: 4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := set.Reserve("bench", demand); err != nil {
			b.Fatal(err)
		}
		set.Release("bench")
	}
}
