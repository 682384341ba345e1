package session

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adapt"
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/resource"
	"repro/internal/workload"
)

// adaptCluster builds a churn-sensitive population: no access-point
// giant, so leave events hit serving coalition members.
func adaptCluster(t *testing.T, seed int64, nodes int) *core.Cluster {
	t.Helper()
	scfg := workload.DefaultScenario(seed)
	scfg.Nodes = nodes
	scfg.Mix = workload.ChurnMix
	sc, err := workload.Build(scfg)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Cluster
}

// adaptChurnConfig is the shared E22-style open-system configuration;
// the organizer monitor is off so the adaptation engine is the single
// owner of churn repair.
func adaptChurnConfig(policy adapt.ChurnPolicy) Config {
	ocfg := core.DefaultOrganizerConfig
	ocfg.Monitor = false
	ocfg.Reconfigure = false
	return Config{
		Arrivals:   arrival.Poisson{Rate: 0.1},
		NewService: workload.SessionTemplate{Name: "adapt", Tasks: 3, Scale: 1.0}.Instantiate,
		HoldMean:   40,
		Horizon:    600,
		Warmup:     60,
		Organizer:  ocfg,
		Churn: &ChurnConfig{
			Leave:    arrival.Poisson{Rate: 360.0 / 3600},
			DownMean: 30,
		},
		Adapt: &adapt.Config{OnChurn: policy},
	}
}

// ledgerEntriesAlive is ledgerEntriesFor restricted to nodes currently
// on the air: a down node's ledger is only required to be exact again
// after its reboot wipe.
func ledgerEntriesAlive(cl *core.Cluster, svcID string) []string {
	var out []string
	for _, id := range cl.Nodes() {
		if cl.Medium.Down(id) {
			continue
		}
		res := cl.Node(id).Res
		for k := resource.Kind(0); k < resource.NumKinds; k++ {
			for _, rid := range res.Holders(k) {
				s := string(rid)
				if strings.HasPrefix(s, svcID+"/") || strings.HasPrefix(s, "hold:"+svcID+"/") {
					out = append(out, fmt.Sprintf("node %d %s: %s", id, k, s))
				}
			}
		}
	}
	return out
}

// TestAdaptRejectsCompetingMonitor pins the ownership rule: adaptation
// and the organizer's heartbeat monitor must not both repair churn, so
// New rejects the combination outright.
func TestAdaptRejectsCompetingMonitor(t *testing.T) {
	cl := adaptCluster(t, 1, 8)
	cfg := adaptChurnConfig(adapt.KillAffected)
	cfg.Organizer = core.DefaultOrganizerConfig // Monitor + Reconfigure on
	if _, err := New(cl, cfg, 1); err == nil {
		t.Fatal("New accepted Adapt alongside an active organizer monitor")
	}
	cfg.Organizer.Monitor = false
	if _, err := New(cl, cfg, 1); err == nil {
		t.Fatal("New accepted Adapt alongside organizer reconfiguration")
	}
	cfg.Organizer.Reconfigure = false
	if _, err := New(cl, cfg, 1); err != nil {
		t.Fatalf("New rejected a valid adaptation config: %v", err)
	}
}

// TestAdaptSurvivalOrdering pins the E22 headline under one seed pair:
// with identical churn, degrade-mode repair keeps strictly more
// admitted sessions alive than the kill-only baseline, and the baseline
// actually kills sessions (otherwise the comparison is vacuous).
func TestAdaptSurvivalOrdering(t *testing.T) {
	run := func(policy adapt.ChurnPolicy) *Stats {
		t.Helper()
		eng, err := New(adaptCluster(t, 1, 16), adaptChurnConfig(policy), 1)
		if err != nil {
			t.Fatal(err)
		}
		st, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	kill := run(adapt.KillAffected)
	degrade := run(adapt.DegradeToFit)
	if kill.Adapt.Kills == 0 {
		t.Fatal("kill baseline killed nothing; churn never hit a coalition member")
	}
	if kill.NodeLeaves != degrade.NodeLeaves {
		t.Fatalf("churn streams diverged across policies: %d vs %d leaves", kill.NodeLeaves, degrade.NodeLeaves)
	}
	if degrade.SurvivalRatio() <= kill.SurvivalRatio() {
		t.Errorf("degrade survival %.3f not strictly above kill survival %.3f",
			degrade.SurvivalRatio(), kill.SurvivalRatio())
	}
	if degrade.Adapt.Repairs == 0 {
		t.Error("degrade mode repaired nothing")
	}
}

// TestAdaptLeakGuard extends the churn leak guard to the full
// adaptation surface: migrations adopt reservations on new nodes,
// pressure degrades resize them down, epoch scans resize them back up —
// and after every teardown no ledger entry referencing the session may
// survive anywhere; after the run (plus reboots) the system is
// pristine, proving degrade→upgrade round-trips and adoptions are
// ledger-exact.
func TestAdaptLeakGuard(t *testing.T) {
	cl := adaptCluster(t, 5, 16)
	cfg := adaptChurnConfig(adapt.DegradeToFit)
	cfg.Arrivals = arrival.Poisson{Rate: 0.25}
	cfg.Horizon = 1500
	cfg.Adapt.DegradeOnPressure = true
	cfg.Adapt.UtilHigh = 0.7
	cfg.Adapt.UpgradeOnSlack = true
	cfg.Adapt.UtilLow = 0.5
	cfg.Adapt.Epoch = 5
	var eng *Engine
	checked := 0
	cfg.AfterDeparture = func(now float64, svcID string) {
		checked++
		// Nodes off the air legitimately hold what they missed (a
		// dissolve in flight when the member churned is dropped by the
		// radio); their ledgers are wiped on reboot and re-checked by
		// the final pristine-state assertion. Every live node must be
		// exact immediately.
		if left := ledgerEntriesAlive(eng.Cluster(), svcID); len(left) != 0 {
			t.Fatalf("t=%.1fs: session %s left reservations on live nodes: %v", now, svcID, left)
		}
	}
	var err error
	eng, err = New(cl, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if checked < 100 {
		t.Fatalf("only %d sessions tore down; the guard needs a real population", checked)
	}
	if st.Adapt.Degrades == 0 || st.Adapt.Upgrades == 0 || st.Adapt.Repairs == 0 {
		t.Fatalf("adaptation surface not exercised: %+v", st.Adapt)
	}
	for _, id := range cl.Nodes() {
		if cl.Medium.Down(id) {
			cl.RebootNode(id)
		}
	}
	assertAllReleased(t, cl)
}

// TestAdaptRunDeterminism: two runs with identical seeds and adaptation
// enabled produce identical statistics, adaptation counters included —
// the engine draws no randomness of its own.
func TestAdaptRunDeterminism(t *testing.T) {
	run := func() *Stats {
		t.Helper()
		cfg := adaptChurnConfig(adapt.DegradeToFit)
		cfg.Adapt.DegradeOnPressure = true
		cfg.Adapt.UpgradeOnSlack = true
		eng, err := New(adaptCluster(t, 9, 16), cfg, 9)
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
		t.Fatalf("adaptive runs diverged:\na: %+v\nb: %+v", *a, *b)
	}
}

// TestStatsMergeFoldsAdapt extends the city-fold pin: adaptation
// counters sum through session.Stats.Merge.
func TestStatsMergeFoldsAdapt(t *testing.T) {
	a := Stats{Admitted: 4}
	a.Adapt = adapt.Stats{Kills: 1, Repairs: 2, Degrades: 3, DriftSum: 0.5, DriftN: 1}
	b := Stats{Admitted: 6}
	b.Adapt = adapt.Stats{Kills: 2, Repairs: 4, Degrades: 6, DriftSum: 1.0, DriftN: 3}
	m := a
	m.Merge(&b)
	if m.Adapt.Kills != 3 || m.Adapt.Repairs != 6 || m.Adapt.Degrades != 9 ||
		m.Adapt.DriftSum != 1.5 || m.Adapt.DriftN != 4 {
		t.Fatalf("adapt counters not folded: %+v", m.Adapt)
	}
	if got := m.SurvivalRatio(); got != float64(10-3)/10 {
		t.Fatalf("merged survival %g, want 0.7", got)
	}
}
