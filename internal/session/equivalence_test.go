package session

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/adapt"
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// This file is the equivalence harness for the pooled session engine.
// The engine once kept a pre-pooling copy of its session loop as an
// oracle; what that loop returned on each fixed scenario here is kept in
// testdata/reference.txt (see reference_test.go), and the pooled loop
// must reproduce every answer bit for bit. The property test samples
// the scenario space, the fuzz targets attack the slot table and the
// open-system lifecycle directly, and the mutation test pins that
// recycling never aliases into already-folded statistics.

// scenario is one random point of the equivalence property test's
// input space: arrival shape x churn x adaptation policy, plus the
// load/population knobs.
type scenario struct {
	Seed    int64
	Nodes   int
	Shape   int // 0 Poisson, 1 diurnal, 2 burst
	Rate    float64
	Hold    float64
	Horizon float64
	Churn   bool
	Adapt   int // 0 none, 1 kill, 2 migrate, 3 degrade+upgrade
}

func (s scenario) String() string {
	shapes := []string{"poisson", "diurnal", "burst"}
	policies := []string{"none", "kill", "migrate", "degrade+upgrade"}
	return fmt.Sprintf("seed=%d nodes=%d shape=%s rate=%.3f hold=%.1f horizon=%g churn=%v adapt=%s",
		s.Seed, s.Nodes, shapes[s.Shape], s.Rate, s.Hold, s.Horizon, s.Churn, policies[s.Adapt])
}

// config assembles the scenario's session Config.
func (s scenario) config() Config {
	var proc arrival.Process
	switch s.Shape {
	case 1:
		proc = arrival.Inhomogeneous{Profile: arrival.Diurnal{Mean: s.Rate, Amplitude: 0.7, Period: s.Horizon / 2}}
	case 2:
		proc = arrival.Inhomogeneous{Profile: arrival.Burst{
			Base: s.Rate / 2, Burst: s.Rate * 4, Period: s.Horizon / 3, BurstLen: s.Horizon / 30,
		}}
	default:
		proc = arrival.Poisson{Rate: s.Rate}
	}
	cfg := Config{
		Arrivals:   proc,
		NewService: workload.SessionTemplate{Name: "eq", Tasks: 2, Scale: 1.0}.Instantiate,
		HoldMean:   s.Hold,
		Horizon:    s.Horizon,
		Warmup:     s.Horizon / 10,
		Organizer:  core.DefaultOrganizerConfig,
	}
	if s.Churn {
		cfg.Churn = &ChurnConfig{Leave: arrival.Poisson{Rate: 1.0 / 45}, DownMean: 25}
	}
	if s.Adapt > 0 {
		cfg.Organizer.Monitor = false
		cfg.Organizer.Reconfigure = false
		policy := []adapt.ChurnPolicy{adapt.KillAffected, adapt.KillAffected, adapt.MigrateExact, adapt.DegradeToFit}[s.Adapt]
		cfg.Adapt = &adapt.Config{OnChurn: policy}
		if s.Adapt == 3 {
			cfg.Adapt.DegradeOnPressure = true
			cfg.Adapt.UtilHigh = 0.85
			cfg.Adapt.UpgradeOnSlack = true
			cfg.Adapt.UtilLow = 0.6
			cfg.Adapt.Epoch = 10
		}
	}
	return cfg
}

// run drives the scenario over a freshly built cluster.
func (s scenario) run(t *testing.T) (*Stats, error) {
	t.Helper()
	cl := buildCluster(t, s.Seed, s.Nodes)
	eng, err := New(cl, s.config(), s.Seed)
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// TestFastSlowEquivalence is the property test behind the pooled
// loop: over seeded random scenarios spanning every arrival shape,
// churn on/off and every adaptation policy, the Stats match the
// reference loop's recorded answers bit for bit. Every failure names
// its scenario, so a red run is reproducible from the log alone.
func TestFastSlowEquivalence(t *testing.T) {
	const cases = 12
	rng := rand.New(rand.NewSource(20260807))
	for i := 0; i < cases; i++ {
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
		st, err := s.run(t)
		checkReference(t, "equivalence "+s.String(), statsAnswer(st, err))
		if st != nil && st.Arrivals == 0 && s.Rate > 0.1 {
			t.Errorf("%v: degenerate scenario, no arrivals", s)
		}
	}
}

// FuzzSlotTable attacks the pooled session table directly with
// arbitrary acquire/retire interleavings. Invariants, checked after
// every operation:
//
//   - a slot index is never handed out while a live occupant holds it
//     (no ID reuse while live);
//   - retiring bumps the generation, so pooled timer records scheduled
//     against the old occupancy can never touch the new one;
//   - the table partitions exactly into live slots and the free-list —
//     no slot is leaked and none is double-freed.
func FuzzSlotTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 3, 1, 1})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 5, 3, 1, 0, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		e := &Engine{}
		live := make(map[int]*liveSession)
		lastGen := make(map[int]uint64) // slot -> generation at last retire
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 { // admit
				ls := e.acquireSlot()
				if _, clash := live[ls.slot]; clash {
					t.Fatalf("slot %d handed out while its occupant is live", ls.slot)
				}
				if ls.id != "" || ls.org != nil || ls.departed || ls.formed {
					t.Fatalf("slot %d not reset on acquire: %+v", ls.slot, ls)
				}
				// The generation survives the reset on purpose: retire
				// bumped it, which is what invalidates stale timer records,
				// and the new occupant inherits the bumped value. Reuse at a
				// LOWER generation would re-arm those stale records.
				if g, seen := lastGen[ls.slot]; seen && ls.gen < g {
					t.Fatalf("slot %d reused at generation %d < retired generation %d", ls.slot, ls.gen, g)
				}
				ls.id = fmt.Sprintf("s%d-g%d", ls.slot, ls.gen)
				live[ls.slot] = ls
			} else { // retire the op-th live slot (deterministic pick)
				idx := int(op) % len(e.slots)
				ls, ok := live[idx]
				if !ok {
					continue
				}
				gen := ls.gen
				e.retireSlot(ls)
				if ls.gen != gen+1 {
					t.Fatalf("retire did not bump generation: %d -> %d", gen, ls.gen)
				}
				lastGen[idx] = ls.gen
				delete(live, idx)
			}
			// Partition invariant.
			if len(live)+len(e.freeSlots) != len(e.slots) {
				t.Fatalf("table does not partition: %d live + %d free != %d slots",
					len(live), len(e.freeSlots), len(e.slots))
			}
			seen := make(map[int]bool, len(e.freeSlots))
			for _, s := range e.freeSlots {
				if seen[s] {
					t.Fatalf("slot %d double-freed", s)
				}
				seen[s] = true
				if _, isLive := live[s]; isLive {
					t.Fatalf("slot %d simultaneously live and free", s)
				}
			}
		}
	})
}

// FuzzOpenSystemLifecycle drives whole randomized open-system runs and
// holds them to the leak-guard bar: after every teardown no ledger
// entry may reference the departed session, and after the drain every
// ledger must be back at capacity. On the seed inputs the Stats must
// also match the reference loop's recorded answers. The fuzz input
// picks the population, load, churn and adaptation policy, so admit /
// dissolve / reboot / retire interleavings the hand-written tests never
// reach are explored mechanically.
func FuzzOpenSystemLifecycle(f *testing.F) {
	type input struct {
		seed                          int64
		nodesB, rateB, churnB, adaptB uint8
	}
	seeds := []input{{1, 4, 128, 0, 0}, {7, 0, 255, 1, 1}, {42, 7, 64, 3, 3}}
	for _, in := range seeds {
		f.Add(in.seed, in.nodesB, in.rateB, in.churnB, in.adaptB)
	}
	f.Fuzz(func(t *testing.T, seed int64, nodesB, rateB, churnB, adaptB uint8) {
		// Only the seed inputs have recorded reference answers.
		recorded := slices.Contains(seeds, input{seed, nodesB, rateB, churnB, adaptB})
		s := scenario{
			Seed:    seed & 0xffff,
			Nodes:   8 + int(nodesB%8),
			Shape:   0,
			Rate:    0.05 + float64(rateB)/255*0.25,
			Hold:    20,
			Horizon: 300,
			Churn:   churnB%2 == 1,
			Adapt:   int(adaptB) % 4,
		}
		cl := buildCluster(t, s.Seed, s.Nodes)
		cfg := s.config()
		var eng *Engine
		cfg.AfterDeparture = func(now float64, svcID string) {
			if left := ledgerEntriesFor(eng.Cluster(), svcID); len(left) != 0 {
				t.Fatalf("%v: t=%.1fs: session %s left reservations behind: %v", s, now, svcID, left)
			}
		}
		var err error
		eng, err = New(cl, cfg, s.Seed)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		st, err := eng.Run()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		// Reboot any node churn left off the air, then the system must be
		// pristine: the pooled teardown path released everything.
		for _, id := range cl.Nodes() {
			if cl.Medium.Down(id) {
				cl.RebootNode(id)
			}
		}
		assertAllReleased(t, cl)
		if recorded {
			checkReference(t, "lifecycle "+s.String(), statsAnswer(st, nil))
		}
	})
}

// TestRecycledMutationDoesNotPerturbStats pins the anti-aliasing
// contract of the pooled engine: Stats must be a pure value — after Run
// returns, scribbling over every pooled object the engine retains
// (session slots, timer records, churn scratch) must not change the
// returned statistics. A regression here means some Stats field started
// aliasing pooled memory (a retained slice, a shared map) and recycling
// would silently corrupt already-folded results.
func TestRecycledMutationDoesNotPerturbStats(t *testing.T) {
	s := scenario{Seed: 11, Nodes: 12, Shape: 0, Rate: 0.2, Hold: 20, Horizon: 400, Churn: true, Adapt: 3}
	cl := buildCluster(t, s.Seed, s.Nodes)
	eng, err := New(cl, s.config(), s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Arrivals == 0 || st.NodeLeaves == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
	before := *st // value copy: legitimate only if Stats is reference-free

	// Scribble over everything the engine pools.
	for _, ls := range eng.slots {
		ls.id, ls.node, ls.counted, ls.departed = "garbage", 99, true, false
		ls.gen += 1000
		ls.org = nil
	}
	for _, ev := range eng.departPool {
		ev.ls, ev.gen = nil, 1<<60
	}
	for _, ev := range eng.hookPool {
		ev.id = "garbage"
	}
	for _, ev := range eng.rebootPool {
		ev.victim = 99
	}
	for i := range eng.candBuf {
		eng.candBuf[i] = 99
	}

	if !reflect.DeepEqual(*st, before) {
		t.Fatalf("mutating recycled pooled objects perturbed Stats:\n before: %+v\n after:  %+v", before, *st)
	}
}

// TestStatsIsReferenceFree guards the premise of the mutation test and
// of fabric's shard merge: session.Stats (including the embedded
// adapt.Stats) must contain no pointers, slices or maps, so a value
// copy is a deep copy and folded shard statistics can never alias a
// pooled object. Adding a reference-typed field to Stats requires
// rethinking Merge and the recycling story — this test makes that a
// conscious decision instead of an accident.
//
// One conscious exemption exists: Stats.Counters (obs.Snapshot) is a
// map. It is safe against both hazards this test exists for because
// (a) the engine writes it exactly once, at the very end of Run, from
// a fresh Registry.Snapshot() — no pooled engine memory is ever
// reachable from it — and (b) Merge never mutates it in place:
// Snapshot.Merge returns a new map (TestStatsMergeDoesNotAliasCounters
// pins that), so value copies of merged Stats cannot see later merges.
func TestStatsIsReferenceFree(t *testing.T) {
	snapshotType := reflect.TypeOf(obs.Snapshot(nil))
	var check func(path string, ty reflect.Type)
	check = func(path string, ty reflect.Type) {
		if path == "Stats.Counters" && ty == snapshotType {
			return // the documented exemption above
		}
		switch ty.Kind() {
		case reflect.Ptr, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s has reference kind %v; Stats must stay a pure value", path, ty.Kind())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			check(path+"[]", ty.Elem())
		}
	}
	check("Stats", reflect.TypeOf(Stats{}))
}
