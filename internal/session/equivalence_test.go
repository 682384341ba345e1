package session

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/adapt"
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// This file is the equivalence harness for the pooled session engine:
// the slow path (Config.SlowPath, the pre-pooling reference loop) and
// the pooled fast path must produce byte-identical Stats over any
// scenario. The property test samples the scenario space at random, the
// fuzz targets attack the slot table and the open-system lifecycle
// directly, and the mutation test pins that recycling never aliases
// into already-folded statistics.

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

// config assembles the session Config for one path. Both paths get the
// identical configuration except the SlowPath switch itself.
func (s scenario) config(slow bool) Config {
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
		SlowPath:   slow,
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

// run drives one path of the scenario over a freshly built cluster.
func (s scenario) run(t *testing.T, slow bool) (*Stats, error) {
	t.Helper()
	cl := buildCluster(t, s.Seed, s.Nodes)
	eng, err := New(cl, s.config(slow), s.Seed)
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// mismatch reports whether the two paths of the scenario disagree.
func (s scenario) mismatch(t *testing.T) (fast, slow *Stats, bad bool) {
	t.Helper()
	fast, errF := s.run(t, false)
	slow, errS := s.run(t, true)
	if (errF == nil) != (errS == nil) {
		t.Fatalf("%v: one path errored: fast=%v slow=%v", s, errF, errS)
	}
	if errF != nil {
		return nil, nil, false // both refused identically: equivalent
	}
	return fast, slow, !reflect.DeepEqual(fast, slow)
}

// shrink greedily simplifies a failing scenario one dimension at a time
// (drop adaptation, drop churn, flatten the arrival shape, halve the
// horizon) and returns the smallest variant that still fails, so the
// failure report points at the narrowest reproducer.
func (s scenario) shrink(t *testing.T) scenario {
	t.Helper()
	cur := s
	for changed := true; changed; {
		changed = false
		var cands []scenario
		if cur.Adapt != 0 {
			c := cur
			c.Adapt = 0
			cands = append(cands, c)
		}
		if cur.Churn {
			c := cur
			c.Churn = false
			cands = append(cands, c)
		}
		if cur.Shape != 0 {
			c := cur
			c.Shape = 0
			cands = append(cands, c)
		}
		if cur.Horizon > 100 {
			c := cur
			c.Horizon = cur.Horizon / 2
			cands = append(cands, c)
		}
		for _, c := range cands {
			if _, _, bad := c.mismatch(t); bad {
				cur, changed = c, true
				break
			}
		}
	}
	return cur
}

// TestFastSlowEquivalence is the property test behind the SlowPath
// contract: over randomized scenarios spanning every arrival shape,
// churn on/off and every adaptation policy, the pooled fast path and
// the reference loop produce deeply equal Stats. Failures are shrunk to
// the smallest still-failing scenario before reporting, and every
// scenario prints its parameters, so a red run is reproducible from the
// log alone.
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
		fast, _, bad := s.mismatch(t)
		if bad {
			min := s.shrink(t)
			mf, ms, _ := min.mismatch(t)
			t.Fatalf("fast and slow paths diverge.\n original: %v\n shrunk:   %v\n fast: %+v\n slow: %+v", s, min, mf, ms)
		}
		if fast != nil && fast.Arrivals == 0 && s.Rate > 0.1 {
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

// FuzzOpenSystemLifecycle drives whole randomized open-system runs on
// the pooled path and holds them to the PR-3 leak-guard bar: after
// every teardown no ledger entry may reference the departed session,
// after the drain every ledger must be back at capacity, and the Stats
// must match the reference loop bit for bit. The fuzz input picks the
// population, load, churn and adaptation policy, so admit / dissolve /
// reboot / retire interleavings the hand-written tests never reach are
// explored mechanically.
func FuzzOpenSystemLifecycle(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(128), uint8(0), uint8(0))
	f.Add(int64(7), uint8(0), uint8(255), uint8(1), uint8(1))
	f.Add(int64(42), uint8(7), uint8(64), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nodesB, rateB, churnB, adaptB uint8) {
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
		cfg := s.config(false)
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
		fast, err := eng.Run()
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
		// The reference loop over the identical scenario must agree
		// exactly. It carries the same leak-check hook: hook firings are
		// engine events, so the two paths must schedule the same set for
		// SimEvents to match.
		clS := buildCluster(t, s.Seed, s.Nodes)
		cfgS := s.config(true)
		var engS *Engine
		cfgS.AfterDeparture = func(now float64, svcID string) {
			if left := ledgerEntriesFor(engS.Cluster(), svcID); len(left) != 0 {
				t.Fatalf("%v: t=%.1fs: slow path leaked %s: %v", s, now, svcID, left)
			}
		}
		engS, err = New(clS, cfgS, s.Seed)
		if err != nil {
			t.Fatalf("%v: slow path: %v", s, err)
		}
		slow, err := engS.Run()
		if err != nil {
			t.Fatalf("%v: slow path: %v", s, err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("%v: pooled path diverged from reference:\n fast: %+v\n slow: %+v", s, fast, slow)
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
	eng, err := New(cl, s.config(false), s.Seed)
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
