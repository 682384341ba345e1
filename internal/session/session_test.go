package session

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/task"
	"repro/internal/workload"
)

// buildCluster materializes a deterministic static population.
func buildCluster(t *testing.T, seed int64, nodes int) *core.Cluster {
	t.Helper()
	scfg := workload.DefaultScenario(seed)
	scfg.Nodes = nodes
	sc, err := workload.Build(scfg)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Cluster
}

// ledgerEntriesFor returns every reservation ID referencing the service
// across all ledgers of the cluster: firm reservations are "svc/task",
// provider holds are "hold:svc/round/task@node".
func ledgerEntriesFor(cl *core.Cluster, svcID string) []string {
	var out []string
	for _, id := range cl.Nodes() {
		res := cl.Node(id).Res
		for _, k := range resource.Kinds() {
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

// assertAllReleased asserts the system is back at its pristine state:
// every node's ledger empty and its available amount exactly equal to
// its capacity (Release snaps the running sum to zero when the ledger
// drains, so this equality is exact, not approximate).
func assertAllReleased(t *testing.T, cl *core.Cluster) {
	t.Helper()
	for _, id := range cl.Nodes() {
		res := cl.Node(id).Res
		capacity, available := res.Usage()
		for _, k := range resource.Kinds() {
			if holders := res.Holders(k); len(holders) != 0 {
				t.Errorf("node %d %s: ledger not empty after run: %v", id, k, holders)
			}
			if available[k] != capacity[k] {
				t.Errorf("node %d %s: available %g != capacity %g after every session departed",
					id, k, available[k], capacity[k])
			}
		}
	}
}

// TestLeakGuardOpenSystem is the reservation-ledger leak detector over
// an E17-style open system: after every session teardown (departure or
// admission failure) no kind on any node may still hold a ledger
// entry referencing the session, over more than 1000 simulated
// sessions; and once every session has departed, every kind's usage
// is exactly its pre-run value (zero). It runs once per engine path —
// the pooled slot table recycles session records, so the pooled subtest
// additionally proves that recycling never leaks a reservation.
func TestLeakGuardOpenSystem(t *testing.T) {
	for _, path := range []struct {
		name string
		slow bool
	}{{"pooled", false}, {"slowpath", true}} {
		t.Run(path.name, func(t *testing.T) {
			cl := buildCluster(t, 1, 12)
			tmpl := workload.SessionTemplate{Name: "leak", Tasks: 2, Scale: 1.0}
			checked := 0
			var eng *Engine
			cfg := Config{
				Arrivals:   arrival.Poisson{Rate: 0.5},
				NewService: tmpl.Instantiate,
				HoldMean:   20,
				Horizon:    2400,
				Warmup:     100,
				Organizer:  core.DefaultOrganizerConfig,
				SlowPath:   path.slow,
				AfterDeparture: func(now float64, svcID string) {
					checked++
					if left := ledgerEntriesFor(eng.Cluster(), svcID); len(left) != 0 {
						t.Fatalf("t=%.1fs: session %s left reservations behind: %v", now, svcID, left)
					}
				},
			}
			var err error
			eng, err = New(cl, cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			st, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if checked < 1000 {
				t.Fatalf("only %d sessions tore down; the leak guard needs >= 1000", checked)
			}
			if st.Arrivals == 0 || st.Admitted == 0 {
				t.Fatalf("degenerate run: %+v", st)
			}
			if st.Admitted+st.Blocked != st.Arrivals {
				t.Errorf("admission accounting broken: %d admitted + %d blocked != %d arrivals",
					st.Admitted, st.Blocked, st.Arrivals)
			}
			assertAllReleased(t, cl)
		})
	}
}

// TestLeakGuardUnderChurn is the E19-style variant: node churn means a
// member can miss a Dissolve while off the air, so exact release is
// only required once the node has rebooted. After the run (plus reboot
// of any node still down) the system must again be pristine.
func TestLeakGuardUnderChurn(t *testing.T) {
	cl := buildCluster(t, 3, 12)
	tmpl := workload.SessionTemplate{Name: "churn", Tasks: 2, Scale: 1.0}
	cfg := Config{
		Arrivals:   arrival.Poisson{Rate: 0.3},
		NewService: tmpl.Instantiate,
		HoldMean:   25,
		Horizon:    1200,
		Warmup:     100,
		Organizer:  core.DefaultOrganizerConfig,
		Churn: &ChurnConfig{
			Leave:    arrival.Poisson{Rate: 1.0 / 60},
			DownMean: 30,
		},
	}
	eng, err := New(cl, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.NodeLeaves == 0 {
		t.Fatal("churn never fired; the test exercises nothing")
	}
	// Nodes still off the air at the end hold whatever they missed;
	// reboot them the same way the churn stream would have.
	for _, id := range cl.Nodes() {
		if cl.Medium.Down(id) {
			cl.RebootNode(id)
		}
	}
	assertAllReleased(t, cl)
}

// fixedArrivals is a test Process emitting a predetermined schedule.
type fixedArrivals []float64

func (f fixedArrivals) Next(now float64, _ *rand.Rand) float64 {
	for _, t := range f {
		if t > now {
			return t
		}
	}
	return math.Inf(1)
}

// TestHorizonStraddlingFormation: a session arriving just before the
// horizon completes its formation during the drain run. It must tear
// down immediately (no reservation may outlive Run) and be excluded
// from the admission counters — the horizon censored its outcome.
func TestHorizonStraddlingFormation(t *testing.T) {
	cl := buildCluster(t, 1, 8)
	tmpl := workload.SessionTemplate{Name: "late", Tasks: 2, Scale: 1.0}
	eng, err := New(cl, Config{
		Arrivals:   fixedArrivals{50, 99.9},
		NewService: tmpl.Instantiate,
		HoldMean:   40,
		Horizon:    100,
		Warmup:     10,
		Organizer:  core.DefaultOrganizerConfig,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The t=50 session resolves normally; the t=99.9 one is censored.
	if st.Arrivals != 1 || st.Admitted+st.Blocked != st.Arrivals {
		t.Errorf("censored formation leaked into counters: %+v", st)
	}
	if left := ledgerEntriesFor(cl, "late-s1"); len(left) != 0 {
		t.Errorf("straddling session left reservations behind: %v", left)
	}
	assertAllReleased(t, cl)
}

// TestDissolveIdempotent pins the teardown contract the drain pass and
// late departure timers rely on: a second Dissolve (and a second
// RetireService) is a no-op, and reservations are released exactly
// once.
func TestDissolveIdempotent(t *testing.T) {
	cl := buildCluster(t, 1, 8)
	svc := workload.StreamService("twice", 2, 1.0)
	var res *core.Result
	org, err := cl.Submit(0, 0, svc, core.DefaultOrganizerConfig, func(r *core.Result) {
		if res == nil {
			res = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(10)
	if res == nil || !res.Complete() {
		t.Fatal("formation incomplete")
	}
	org.Dissolve("first")
	org.Dissolve("second")
	if org.State() != core.Dissolved {
		t.Fatalf("state %v after double dissolve", org.State())
	}
	cl.Run(15)
	org.Dissolve("third, after delivery")
	if left := ledgerEntriesFor(cl, "twice"); len(left) != 0 {
		t.Errorf("reservations survived dissolve: %v", left)
	}
	assertAllReleased(t, cl)
	if err := cl.RetireService(0, "twice"); err != nil {
		t.Errorf("retire: %v", err)
	}
	if err := cl.RetireService(0, "twice"); err != nil {
		t.Errorf("second retire must be a no-op, got %v", err)
	}
}

// TestRetireRefusesLiveOrganizer: retiring an operating coalition would
// detach an object whose timers still fire.
func TestRetireRefusesLiveOrganizer(t *testing.T) {
	cl := buildCluster(t, 1, 8)
	svc := workload.StreamService("live", 1, 1.0)
	if _, err := cl.Submit(0, 0, svc, core.DefaultOrganizerConfig, nil); err != nil {
		t.Fatal(err)
	}
	cl.Run(10)
	if err := cl.RetireService(0, "live"); err == nil {
		t.Fatal("retire accepted an operating organizer")
	}
}

// TestRunDeterminism: two engines over identically-seeded clusters must
// produce identical Stats, the property the E17-E19 golden tables pin
// end to end.
func TestRunDeterminism(t *testing.T) {
	run := func() *Stats {
		cl := buildCluster(t, 5, 10)
		tmpl := workload.SessionTemplate{Name: "det", Tasks: 2, Scale: 1.2}
		eng, err := New(cl, Config{
			Arrivals:   arrival.Inhomogeneous{Profile: arrival.Diurnal{Mean: 0.1, Amplitude: 0.8, Period: 200}},
			NewService: tmpl.Instantiate,
			HoldMean:   30,
			Horizon:    600,
			Warmup:     60,
			Organizers: []radio.NodeID{0, 1},
			Organizer:  core.DefaultOrganizerConfig,
			Churn:      &ChurnConfig{Leave: arrival.Poisson{Rate: 1.0 / 120}, DownMean: 20},
		}, 5)
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
		t.Errorf("same seed, different stats:\n a = %+v\n b = %+v", a, b)
	}
	if a.Arrivals == 0 {
		t.Fatal("degenerate run")
	}
}

// TestConfigValidation rejects the configurations that would silently
// do nothing or spin.
func TestConfigValidation(t *testing.T) {
	cl := buildCluster(t, 1, 4)
	tmpl := workload.SessionTemplate{Name: "v", Tasks: 1, Scale: 1}
	ok := Config{Arrivals: arrival.Poisson{Rate: 1}, NewService: tmpl.Instantiate, HoldMean: 10, Horizon: 100}
	bad := []func(c *Config){
		func(c *Config) { c.Arrivals = nil },
		func(c *Config) { c.NewService = nil },
		func(c *Config) { c.HoldMean = 0 },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.Warmup = 100 },
		func(c *Config) { c.Organizers = []radio.NodeID{99} },
		func(c *Config) { c.Churn = &ChurnConfig{} },
	}
	for i, mutate := range bad {
		c := ok
		mutate(&c)
		if _, err := New(cl, c, 1); err == nil {
			t.Errorf("config mutation %d accepted", i)
		}
	}
	if _, err := New(cl, ok, 1); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestSessionTemplateSharesDemandRefs pins the compiled-problem reuse
// contract: instances share demand references and requests, differ in
// service ID.
func TestSessionTemplateSharesDemandRefs(t *testing.T) {
	tmpl := workload.SessionTemplate{Name: "tpl", Tasks: 2, Scale: 1}
	a, b := tmpl.Instantiate(1), tmpl.Instantiate(2)
	if a.ID == b.ID {
		t.Fatalf("instances share service ID %q", a.ID)
	}
	for i := range a.Tasks {
		ra, rb := a.Tasks[i].Ref(a.ID), b.Tasks[i].Ref(b.ID)
		if ra != rb {
			t.Errorf("task %d demand refs differ: %q vs %q", i, ra, rb)
		}
		if !a.Tasks[i].Request.Equal(&b.Tasks[i].Request) {
			t.Errorf("task %d requests differ between instances", i)
		}
	}
	var plain task.Task
	plain.ID = "t"
	if got := plain.Ref("svc"); got != "svc/t" {
		t.Errorf("default ref = %q, want svc/t", got)
	}
}
