package faults

import (
	"math"
	"testing"

	"repro/internal/radio"
)

func nodeList(n int) []radio.NodeID {
	ids := make([]radio.NodeID, n)
	for i := range ids {
		ids[i] = radio.NodeID(i)
	}
	return ids
}

// TestReplayIdentical drives two injectors with equal (seed, plan)
// through the same delivery sequence and requires identical fates and
// counters: the pure-function-of-(Seed, plan) contract behind golden
// pinning.
func TestReplayIdentical(t *testing.T) {
	plan := Plan{
		Loss:      0.1,
		Burst:     &BurstLoss{LossOn: 0.9, MeanOn: 2, MeanOff: 6},
		DelayProb: 0.05, DelayMean: 0.2,
		DupProb: 0.05, DupLag: 0.01,
		Freeze:    &FreezePlan{Rate: 0.05, MeanDur: 5, Protected: []radio.NodeID{0}},
		Partition: &PartitionPlan{K: 2, Every: 40, Len: 10},
	}
	nodes := nodeList(8)
	a, err := New(7, 100, nodes, plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(7, 100, nodes, plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		now := float64(i) * 0.02
		from := radio.NodeID(i % 8)
		to := radio.NodeID((i + 3) % 8)
		fa := a.DeliverFate(now, from, to, 64)
		fb := b.DeliverFate(now, from, to, 64)
		if fa != fb {
			t.Fatalf("delivery %d: fates diverge: %+v vs %+v", i, fa, fb)
		}
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverge: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Stats.Drops == 0 || a.Stats.Dups == 0 || a.Stats.Delayed == 0 {
		t.Fatalf("plan was not exercised: %+v", a.Stats)
	}
}

// TestZeroPlanInert: the zero plan never touches a delivery.
func TestZeroPlanInert(t *testing.T) {
	inj, err := New(1, 100, nodeList(4), Plan{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if fate := inj.DeliverFate(float64(i)*0.05, 0, 1, 64); fate != (radio.Fate{}) {
			t.Fatalf("zero plan produced a fate: %+v", fate)
		}
	}
	if inj.Stats != (Stats{}) {
		t.Fatalf("zero plan counted something: %+v", inj.Stats)
	}
}

// TestIIDLossRate checks the i.i.d. drop probability empirically.
func TestIIDLossRate(t *testing.T) {
	inj, err := New(3, 1e6, nodeList(2), Plan{Loss: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	for i := 0; i < n; i++ {
		inj.DeliverFate(float64(i), 0, 1, 64)
	}
	got := float64(inj.Stats.Drops) / n
	if math.Abs(got-0.2) > 0.02 {
		t.Fatalf("i.i.d. loss rate %.3f, want ~0.2", got)
	}
}

// TestBurstEqualMean calibrates a pure burst plan (base loss zero, ON
// loss 0.9) against its analytic mean loss fraction
// LossOn * MeanOn/(MeanOn+MeanOff) and checks the OFF phases drop
// nothing while ON phases drop at LossOn.
func TestBurstEqualMean(t *testing.T) {
	plan := Plan{Burst: &BurstLoss{LossOn: 0.9, MeanOn: 2, MeanOff: 16}}
	inj, err := New(5, 1e5, nodeList(2), plan)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	const dt = 0.5
	for i := 0; i < n; i++ {
		inj.DeliverFate(float64(i)*dt, 0, 1, 64)
	}
	want := 0.9 * 2 / (2 + 16.0)
	got := float64(inj.Stats.Drops) / n
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("burst mean loss %.3f, want ~%.3f", got, want)
	}
}

// TestFreezeScheduleConsistent: Frozen agrees with the FreezeEvents
// stream, protected nodes never freeze, and frozen endpoints drop.
func TestFreezeScheduleConsistent(t *testing.T) {
	plan := Plan{Freeze: &FreezePlan{Rate: 0.2, MeanDur: 4, Protected: []radio.NodeID{0}}}
	nodes := nodeList(6)
	inj, err := New(11, 200, nodes, plan)
	if err != nil {
		t.Fatal(err)
	}
	evs := inj.FreezeEvents()
	if len(evs) == 0 {
		t.Fatal("no freeze events at rate 0.2 over 200s")
	}
	last := -1.0
	for _, ev := range evs {
		if ev.T < last {
			t.Fatalf("events out of order: %v", evs)
		}
		last = ev.T
		if ev.Node == 0 {
			t.Fatal("protected node frozen")
		}
		if ev.T > 200 {
			t.Fatalf("event past horizon: %+v", ev)
		}
	}
	// Replay the event stream as a state machine and check Frozen
	// matches between transitions (query strictly after each event;
	// queries must be time-monotone). A second injector drives the
	// delivery check at the same instants.
	chk, err := New(11, 200, nodes, plan)
	if err != nil {
		t.Fatal(err)
	}
	state := make(map[radio.NodeID]bool)
	for i, ev := range evs {
		state[ev.Node] = ev.Frozen
		// Probe just after this event but before the next.
		probe := ev.T + 1e-9
		if i+1 < len(evs) && evs[i+1].T <= probe {
			continue
		}
		for id, frozen := range state {
			if got := inj.Frozen(id, probe); got != frozen {
				t.Fatalf("t=%g node %d: Frozen=%v, events say %v", probe, id, got, frozen)
			}
			fate := chk.DeliverFate(probe, id, 0, 64)
			if fate.Drop != frozen {
				t.Fatalf("t=%g node %d: delivery drop=%v, frozen=%v", probe, id, fate.Drop, frozen)
			}
		}
	}
}

// TestPartitionWindows: drops happen only inside windows, only across
// groups, symmetrically, and heal at the horizon.
func TestPartitionWindows(t *testing.T) {
	plan := Plan{Partition: &PartitionPlan{K: 2, Every: 50, Len: 10}}
	nodes := nodeList(8)
	inj, err := New(13, 300, nodes, plan)
	if err != nil {
		t.Fatal(err)
	}
	if inj.DeliverFate(20, 1, 2, 64).Drop {
		t.Fatal("drop before the first window")
	}
	// Inside window 0 ([50, 60)): some pair must be split, drops must be
	// symmetric, and same-node never drops.
	split := false
	for a := 0; a < 8 && !split; a++ {
		for b := a + 1; b < 8; b++ {
			fa := inj.DeliverFate(55, radio.NodeID(a), radio.NodeID(b), 64)
			fb := inj.DeliverFate(55, radio.NodeID(b), radio.NodeID(a), 64)
			if fa.Drop != fb.Drop {
				t.Fatalf("asymmetric partition between %d and %d", a, b)
			}
			if fa.Drop {
				split = true
				break
			}
		}
	}
	if !split {
		t.Fatal("no pair split inside the window")
	}
	if inj.DeliverFate(65, 1, 2, 64).Drop {
		t.Fatal("drop after the window closed")
	}
	if inj.DeliverFate(300, 1, 2, 64) != (radio.Fate{}) {
		t.Fatal("plan did not heal at the horizon")
	}
}

// TestValidate rejects out-of-domain plans.
func TestValidate(t *testing.T) {
	bad := []Plan{
		{Loss: 1.0},
		{Loss: -0.1},
		{Burst: &BurstLoss{LossOn: 0, MeanOn: 1, MeanOff: 1}},
		{Burst: &BurstLoss{LossOn: 0.5, MeanOn: 0, MeanOff: 1}},
		{DelayProb: 0.5},
		{DupProb: 0.5, DupLag: -1},
		{Freeze: &FreezePlan{Rate: 0, MeanDur: 1}},
		{Partition: &PartitionPlan{K: 1, Every: 10, Len: 5}},
		{Partition: &PartitionPlan{K: 2, Every: 10, Len: 10}},
	}
	for i, plan := range bad {
		if _, err := New(1, 100, nodeList(4), plan); err == nil {
			t.Errorf("plan %d accepted: %+v", i, plan)
		}
	}
	if _, err := New(1, 100, []radio.NodeID{0}, Plan{Freeze: &FreezePlan{Rate: 1, MeanDur: 1, Protected: []radio.NodeID{0}}}); err == nil {
		t.Error("all-protected freeze plan accepted")
	}
	if _, err := New(1, 0, nodeList(2), Plan{}); err == nil {
		t.Error("zero horizon accepted")
	}
}
