package session

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/adapt"
	"repro/internal/admit"
	"repro/internal/baseline"
	"repro/internal/resource"
	"repro/internal/trace"
)

// This file holds the admission-policy layer to the same bars as the
// rest of the engine: fast/slow-path equivalence (queue retry timers
// are a new pooled event type), run-to-run determinism of the queue
// orderings, the PR-3 reservation-leak guard, and the differential
// bound — no policy may ever extract more utility from a trace than
// the clairvoyant oracle's relaxation allows.

// admitConfig assembles the scenario's config with an admission policy
// installed. Yield requires the adaptation engine; when the scenario
// did not pick one, the minimal config is promoted exactly like the
// qosim -admit=yield quick-start.
func admitConfig(s scenario, pol admit.Policy, slow bool) Config {
	cfg := s.config(slow)
	cfg.Admission = &admit.Config{Policy: pol}
	if pol == admit.Yield && cfg.Adapt == nil {
		cfg.Organizer.Monitor = false
		cfg.Organizer.Reconfigure = false
		cfg.Adapt = &adapt.Config{OnChurn: adapt.KillAffected}
	}
	return cfg
}

// TestPolicyFastSlowEquivalence extends the SlowPath contract to every
// admission policy: over randomized scenarios (all arrival shapes,
// churn on/off, every adaptation policy), the pooled fast path and the
// reference loop must produce deeply equal Stats with Block, Queue and
// Yield installed. The risky new machinery is the pooled retry timer —
// a generation-guarded event that must fire (or be invalidated) exactly
// like the slow path's closures.
func TestPolicyFastSlowEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	policies := []admit.Policy{admit.Block, admit.Queue, admit.Yield}
	const cases = 12
	for i := 0; i < cases; i++ {
		pol := policies[i%len(policies)]
		s := scenario{
			Seed:    rng.Int63n(1 << 30),
			Nodes:   8 + rng.Intn(9),
			Shape:   rng.Intn(3),
			Rate:    0.05 + 0.25*rng.Float64(),
			Hold:    15 + 35*rng.Float64(),
			Horizon: 400,
			Churn:   rng.Intn(2) == 1,
			Adapt:   rng.Intn(4),
		}
		run := func(slow bool) (*Stats, error) {
			cl := buildCluster(t, s.Seed, s.Nodes)
			eng, err := New(cl, admitConfig(s, pol, slow), s.Seed)
			if err != nil {
				return nil, err
			}
			return eng.Run()
		}
		fast, errF := run(false)
		slow, errS := run(true)
		if (errF == nil) != (errS == nil) {
			t.Fatalf("%v policy=%s: one path errored: fast=%v slow=%v", s, pol, errF, errS)
		}
		if errF != nil {
			continue // both refused identically: equivalent
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("policy=%s: fast and slow paths diverge.\n scenario: %v\n fast: %+v\n slow: %+v",
				pol, s, fast, slow)
		}
	}
}

// admitJSONL drives one queue-heavy run with the flight recorder on and
// returns (stats, serialized trace). The scenario overloads a small
// population so queue entries, expiries and retry admissions all occur.
func admitJSONL(t *testing.T, pol admit.Policy, slow bool) (*Stats, string) {
	t.Helper()
	s := scenario{Seed: 5, Nodes: 8, Shape: 2, Rate: 0.3, Hold: 30, Horizon: 400}
	cl := buildCluster(t, s.Seed, s.Nodes)
	cfg := admitConfig(s, pol, slow)
	j := trace.NewJournal()
	cfg.Trace = trace.NewRecorder(j.Scope("admit/0000"))
	eng, err := New(cl, cfg, s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return st, buf.String()
}

// TestQueueDeterminism pins the queue orderings: same seed, same
// policy — byte-identical flight-recorder traces (the queue /
// queue.expire / queue.admit points carry the admit and expire order)
// and deeply equal Stats, on both engine paths. Together with the
// E29/E30 rows in scripts/determinism.sh this is the admission layer's
// determinism contract at every parallelism.
func TestQueueDeterminism(t *testing.T) {
	for _, pol := range []admit.Policy{admit.Queue, admit.Yield} {
		st1, tr1 := admitJSONL(t, pol, false)
		st2, tr2 := admitJSONL(t, pol, false)
		if !reflect.DeepEqual(st1, st2) {
			t.Fatalf("%s: same-seed stats diverged:\n%+v\nvs\n%+v", pol, st1, st2)
		}
		if tr1 != tr2 {
			t.Fatalf("%s: same-seed traces differ", pol)
		}
		if tr1 == "" {
			t.Fatalf("%s: traced run recorded nothing", pol)
		}
		_, trSlow := admitJSONL(t, pol, true)
		if tr1 != trSlow {
			t.Fatalf("%s: fast and slow path traces differ", pol)
		}
	}
	// The overload scenario must actually exercise the queue machinery,
	// or this test pins nothing.
	st, trc := admitJSONL(t, admit.Queue, false)
	if st.Admit.Queued == 0 || st.Admit.Retries == 0 {
		t.Fatalf("degenerate queue scenario: %+v", st.Admit)
	}
	if !bytes.Contains([]byte(trc), []byte(`"queue"`)) {
		t.Error("trace carries no queue points")
	}
}

// FuzzAdmitPolicy drives randomized open-system runs through an
// arbitrary admission policy and holds every one to two invariants:
//
//   - the PR-3 leak bar: no reservation survives a session's teardown,
//     and after the drain every ledger is back at capacity — queue
//     retries and yield rollbacks must not park or strand anything;
//   - the differential bound: the achieved admission-time utility never
//     exceeds the clairvoyant oracle's relaxation over the run's own
//     recorded arrival trace.
//
// Churn and faults stay off: the bound's accounting assumes clean,
// constant capacity (see baseline.Clairvoyant.Bound).
func FuzzAdmitPolicy(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(128), uint8(0))
	f.Add(int64(7), uint8(0), uint8(255), uint8(1))
	f.Add(int64(42), uint8(7), uint8(200), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nodesB, rateB, polB uint8) {
		pol := []admit.Policy{admit.Block, admit.Queue, admit.Yield}[int(polB)%3]
		s := scenario{
			Seed:    seed & 0xffff,
			Nodes:   8 + int(nodesB%8),
			Shape:   0,
			Rate:    0.05 + float64(rateB)/255*0.25,
			Hold:    20,
			Horizon: 300,
		}
		cl := buildCluster(t, s.Seed, s.Nodes)
		tr := baseline.Trace{Horizon: s.Horizon, Window: 60}
		for _, id := range cl.Nodes() {
			tr.Nodes = append(tr.Nodes, baseline.NodeView{
				ID: id, Res: resource.NewSet(cl.Node(id).Res.Capacity()),
			})
		}
		cfg := admitConfig(s, pol, false)
		var eng *Engine
		cfg.AfterDeparture = func(now float64, svcID string) {
			if left := ledgerEntriesFor(eng.Cluster(), svcID); len(left) != 0 {
				t.Fatalf("%v policy=%s: t=%.1fs: session %s left reservations behind: %v",
					s, pol, now, svcID, left)
			}
		}
		var err error
		eng, err = New(cl, cfg, s.Seed)
		if err != nil {
			t.Fatalf("%v policy=%s: %v", s, pol, err)
		}
		st, err := eng.Run()
		if err != nil {
			t.Fatalf("%v policy=%s: %v", s, pol, err)
		}
		assertAllReleased(t, cl)
		for _, a := range eng.ArrivalTrace() {
			tr.Sessions = append(tr.Sessions, baseline.TraceSession{
				Arrive: a.T, Hold: a.Hold, Service: a.Svc,
			})
		}
		bound, err := baseline.Clairvoyant{}.Bound(&tr)
		if err != nil {
			t.Fatalf("%v policy=%s: bound: %v", s, pol, err)
		}
		if st.Admit.UtilitySum > bound*(1+1e-9)+1e-9 {
			t.Fatalf("%v policy=%s: achieved utility %g beats the clairvoyant bound %g",
				s, pol, st.Admit.UtilitySum, bound)
		}
	})
}
