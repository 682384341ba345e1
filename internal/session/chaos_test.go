package session

import (
	"reflect"
	"testing"

	"repro/internal/adapt"
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/proto"
	"repro/internal/radio"
	"repro/internal/workload"
)

// chaosCluster builds a deterministic population with the reliability
// layer on — the configuration every chaos run uses.
func chaosCluster(t *testing.T, seed int64, nodes int) *core.Cluster {
	t.Helper()
	scfg := workload.DefaultScenario(seed)
	scfg.Nodes = nodes
	scfg.Retry = proto.DefaultRetryConfig
	sc, err := workload.Build(scfg)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Cluster
}

// fullPlan is the kitchen-sink fault plan: i.i.d. and bursty loss,
// delay spikes, duplication, node freezes and a 2-way partition, with
// the organizer node protected from freezing.
func fullPlan() faults.Plan {
	return faults.Plan{
		Loss:      0.05,
		Burst:     &faults.BurstLoss{LossOn: 0.8, MeanOn: 3, MeanOff: 30},
		DelayProb: 0.05, DelayMean: 0.1,
		DupProb: 0.05, DupLag: 0.02,
		Freeze:    &faults.FreezePlan{Rate: 0.02, MeanDur: 20, Protected: []radio.NodeID{0}},
		Partition: &faults.PartitionPlan{K: 2, Every: 120, Len: 15},
	}
}

// chaosConfig assembles the hardened-session configuration over a
// fresh injector for the given plan.
func chaosConfig(t *testing.T, cl *core.Cluster, seed int64, horizon float64, plan faults.Plan) Config {
	t.Helper()
	inj, err := faults.New(seed, horizon, cl.Nodes(), plan)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := workload.SessionTemplate{Name: "chaos", Tasks: 2, Scale: 1.0}
	ocfg := core.DefaultOrganizerConfig
	ocfg.Monitor = false
	ocfg.Reconfigure = false
	return Config{
		Arrivals:       arrival.Poisson{Rate: 0.4},
		NewService:     tmpl.Instantiate,
		HoldMean:       25,
		Horizon:        horizon,
		Warmup:         50,
		Organizer:      ocfg,
		Adapt:          &adapt.Config{OnChurn: adapt.DegradeToFit},
		Faults:         inj,
		ReconcileEvery: 5,
	}
}

// TestChaosLeakGuard is the acceptance invariant of the fault fabric:
// under the full plan — bursty loss, duplicated and delayed handshakes,
// frozen-then-thawed providers, periodic partitions — the run completes
// without wedging, admission accounting stays exact, and after the
// drain every provider ledger is empty with reserved == 0 exactly.
func TestChaosLeakGuard(t *testing.T) {
	cl := chaosCluster(t, 7, 12)
	eng, err := New(cl, chaosConfig(t, cl, 7, 900, fullPlan()), 7)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Arrivals == 0 || st.Admitted == 0 {
		t.Fatalf("degenerate chaos run: %+v", st)
	}
	if st.Admitted+st.Blocked != st.Arrivals {
		t.Errorf("admission accounting broken: %d + %d != %d", st.Admitted, st.Blocked, st.Arrivals)
	}
	if st.Freezes() == 0 {
		t.Error("freeze plan never fired; plan not exercised")
	}
	assertAllReleased(t, cl)
}

// TestChaosFreezeStrandsThenReclaims pins the orphan path end to end:
// with freezes long against the holding time, sessions depart while a
// member is dark, the Dissolve is blackholed, and only the
// reconciliation sweep can reclaim the stranded reservation — so
// Reclaimed must move, and the ledgers must still end exactly empty.
func TestChaosFreezeStrandsThenReclaims(t *testing.T) {
	plan := faults.Plan{
		Freeze: &faults.FreezePlan{Rate: 0.05, MeanDur: 60, Protected: []radio.NodeID{0}},
	}
	cl := chaosCluster(t, 3, 10)
	cfg := chaosConfig(t, cl, 3, 600, plan)
	cfg.HoldMean = 15
	eng, err := New(cl, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Freezes() == 0 {
		t.Fatal("no freezes at rate 0.05 over 600s")
	}
	if st.Reclaimed() == 0 {
		t.Fatal("no reservation was ever stranded and reclaimed; the sweep was not exercised")
	}
	assertAllReleased(t, cl)
}

// TestChaosMonitorPath runs the organizer's own Monitor/Reconfigure
// repair (no adaptation engine) under freezes and partitions: the
// protocol path must also end pristine, with the sweep reclaiming
// whatever reconfiguration migrated off dark nodes.
func TestChaosMonitorPath(t *testing.T) {
	plan := faults.Plan{
		Loss:      0.05,
		Freeze:    &faults.FreezePlan{Rate: 0.03, MeanDur: 30, Protected: []radio.NodeID{0}},
		Partition: &faults.PartitionPlan{K: 2, Every: 100, Len: 12},
	}
	cl := chaosCluster(t, 11, 12)
	inj, err := faults.New(11, 600, cl.Nodes(), plan)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := workload.SessionTemplate{Name: "chaos-mon", Tasks: 2, Scale: 1.0}
	cfg := Config{
		Arrivals:       arrival.Poisson{Rate: 0.4},
		NewService:     tmpl.Instantiate,
		HoldMean:       25,
		Horizon:        600,
		Warmup:         50,
		Organizer:      core.DefaultOrganizerConfig, // Monitor + Reconfigure on
		Faults:         inj,
		ReconcileEvery: 5,
	}
	eng, err := New(cl, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted == 0 || st.Freezes() == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
	assertAllReleased(t, cl)
}

// TestChaosDeterminism: the whole faulted run is a pure function of its
// seeds — two identical constructions produce identical Stats.
func TestChaosDeterminism(t *testing.T) {
	run := func() *Stats {
		cl := chaosCluster(t, 7, 12)
		eng, err := New(cl, chaosConfig(t, cl, 7, 600, fullPlan()), 7)
		if err != nil {
			t.Fatal(err)
		}
		st, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("chaos runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestChaosFastSlowEquivalence: under a fault plan the pooled loop must
// reproduce the reference loop's recorded answer bit for bit, exactly as
// it does without one.
func TestChaosFastSlowEquivalence(t *testing.T) {
	cl := chaosCluster(t, 7, 12)
	eng, err := New(cl, chaosConfig(t, cl, 7, 600, fullPlan()), 7)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run()
	checkReference(t, "chaos seed=7 nodes=12 horizon=600 plan=full", statsAnswer(st, err))
}

// TestChaosQuorumLossAborts: a brutal plan (heavy bursts, frequent
// partitions) must degrade formations into clean blocks, never a
// wedged drain — Run returns, and Admitted + Blocked == Arrivals.
func TestChaosQuorumLossAborts(t *testing.T) {
	plan := faults.Plan{
		Loss:      0.3,
		Burst:     &faults.BurstLoss{LossOn: 0.95, MeanOn: 10, MeanOff: 10},
		Partition: &faults.PartitionPlan{K: 3, Every: 30, Len: 15},
	}
	cl := chaosCluster(t, 5, 10)
	cfg := chaosConfig(t, cl, 5, 400, plan)
	eng, err := New(cl, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted+st.Blocked != st.Arrivals {
		t.Errorf("admission accounting broken: %d + %d != %d", st.Admitted, st.Blocked, st.Arrivals)
	}
	if st.Blocked == 0 {
		t.Error("brutal plan blocked nothing; plan not exercised")
	}
	assertAllReleased(t, cl)
}
