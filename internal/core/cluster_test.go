package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/workload"
)

// buildCluster makes a fully connected heterogeneous neighbourhood with
// node 0 a phone and the rest alternating PDAs and laptops.
func buildCluster(t *testing.T, n int) *core.Cluster {
	t.Helper()
	cl := core.NewCluster(42, radio.Config{ProcDelay: 0.001}, core.DefaultProviderConfig)
	for i := 0; i < n; i++ {
		p := workload.Phone
		switch {
		case i == 0:
		case i%2 == 0:
			p = workload.Laptop
		default:
			p = workload.PDA
		}
		spec := workload.NodeSpecFor(radio.NodeID(i), p, core.GridPlacement(i, n, 10))
		if _, err := cl.AddNode(spec); err != nil {
			t.Fatalf("AddNode(%d): %v", i, err)
		}
	}
	return cl
}

func TestFormationEndToEnd(t *testing.T) {
	cl := buildCluster(t, 6)
	svc := workload.StreamService("stream", 3, 1.0)
	var res *core.Result
	org, err := cl.Submit(0, 0, svc, core.DefaultOrganizerConfig, func(r *core.Result) {
		if res == nil {
			res = r
		}
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	cl.Run(5)
	if res == nil {
		t.Fatal("formation never completed")
	}
	if !res.Complete() {
		t.Fatalf("unserved tasks: %v", res.Unserved)
	}
	if len(res.Assigned) != 3 {
		t.Fatalf("assigned %d tasks, want 3", len(res.Assigned))
	}
	if org.State() != core.Operating {
		t.Fatalf("state = %v, want operating", org.State())
	}
	// Every assigned node must actually hold the reservation and be
	// running the task after TaskData arrives.
	for tid, a := range res.Assigned {
		n := cl.Node(a.Node)
		found := false
		for _, rt := range n.Provider.RunningTasks("stream") {
			if rt == tid {
				found = true
			}
		}
		if !found {
			t.Errorf("task %s not running on node %d", tid, a.Node)
		}
	}
	// Dissolution releases all reservations everywhere.
	org.Dissolve("test done")
	cl.Run(10)
	for _, id := range cl.Nodes() {
		n := cl.Node(id)
		avail := n.Res.Available()
		cap := n.Res.Capacity()
		if avail != cap {
			t.Errorf("node %d still holds reservations after dissolve: avail %v cap %v", id, avail, cap)
		}
	}
}

func TestFormationPrefersCloserToPreferences(t *testing.T) {
	// A laptop can serve the preferred level; a phone can only serve a
	// degraded one. The organizer must pick the laptop (lowest distance).
	cl := buildCluster(t, 4) // node 0 phone, 1 pda, 2 laptop, 3 pda
	svc := workload.StreamService("s", 1, 1.0)
	var res *core.Result
	if _, err := cl.Submit(0, 0, svc, core.DefaultOrganizerConfig, func(r *core.Result) {
		if res == nil {
			res = r
		}
	}); err != nil {
		t.Fatal(err)
	}
	cl.Run(5)
	if res == nil || !res.Complete() {
		t.Fatalf("formation failed: %+v", res)
	}
	a := res.Assigned["t0"]
	if a.Distance != 0 {
		t.Errorf("expected a zero-distance (preferred level) assignment, got %v on node %d", a.Distance, a.Node)
	}
}

func TestReconfigurationAfterFailure(t *testing.T) {
	cl := buildCluster(t, 6)
	svc := workload.StreamService("stream", 2, 1.0)
	var results []*core.Result
	org, err := cl.Submit(0, 0, svc, core.DefaultOrganizerConfig, func(r *core.Result) {
		results = append(results, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(3)
	if len(results) == 0 || !results[0].Complete() {
		t.Fatalf("initial formation failed")
	}
	// Kill one of the winning nodes (not the organizer).
	var victim radio.NodeID = -1
	for _, a := range results[0].Assigned {
		if a.Node != 0 {
			victim = a.Node
			break
		}
	}
	if victim == -1 {
		t.Skip("all tasks ran locally; nothing to fail")
	}
	cl.Eng.At(3, func() { cl.FailNode(victim) })
	cl.Run(20)
	if org.Failures == 0 {
		t.Fatal("monitor never detected the failure")
	}
	if org.Reconfigurations == 0 {
		t.Fatal("organizer never reconfigured")
	}
	// After reconfiguration, no task may remain on the failed node.
	for tid, a := range org.Snapshot() {
		if a.Node == victim {
			t.Errorf("task %s still assigned to failed node %d", tid, victim)
		}
	}
}

// TestAssignedDistanceSumMatchesSnapshot pins the allocation-free
// accessor the session engine's sampling tick reads against the
// Snapshot it replaced: the assigned-task count equals the snapshot's
// size and the distance sum equals the snapshot's distances added in
// task declaration order, to the last bit — after formation, after a
// member loss and the reconfiguration around it, and after dissolution.
func TestAssignedDistanceSumMatchesSnapshot(t *testing.T) {
	// Six nodes and a heavy stream: some tasks must run degraded, so the
	// sum adds several nonzero distances.
	cl := buildCluster(t, 6)
	svc := workload.StreamService("stream", 4, 3.0)
	var first *core.Result
	org, err := cl.Submit(0, 0, svc, core.DefaultOrganizerConfig, func(r *core.Result) {
		if first == nil {
			first = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) float64 {
		t.Helper()
		snap := org.Snapshot()
		var want float64
		for _, tk := range org.Service().Tasks {
			if a, ok := snap[tk.ID]; ok {
				want += a.Distance
			}
		}
		n, sum := org.AssignedDistanceSum()
		if n != len(snap) || math.Float64bits(sum) != math.Float64bits(want) {
			t.Fatalf("%s: AssignedDistanceSum = (%d, %v), Snapshot gives (%d, %v)", stage, n, sum, len(snap), want)
		}
		return sum
	}
	cl.Run(3)
	if first == nil || !first.Complete() {
		t.Fatalf("initial formation failed: %+v", first)
	}
	if check("formed") == 0 {
		t.Fatal("every task runs at its preferred level; the sum pins nothing")
	}
	var victim radio.NodeID = -1
	for _, a := range first.Assigned {
		if a.Node != 0 {
			victim = a.Node
			break
		}
	}
	if victim == -1 {
		t.Fatal("every task ran on the organizer; no member to lose")
	}
	cl.Eng.At(3, func() { cl.FailNode(victim) })
	cl.Run(20)
	if org.Reconfigurations == 0 {
		t.Fatal("organizer never reconfigured")
	}
	check("reconfigured")
	org.Dissolve("test done")
	cl.Run(25)
	check("dissolved")
}

func TestBatteryDepletionFailsNode(t *testing.T) {
	cl := core.NewCluster(21, radio.Config{ProcDelay: 0.001}, core.DefaultProviderConfig)
	// Node 0: organizer, no battery. Node 1: helper with a battery that
	// dies after ~10 s. Node 2: mains-powered laptop.
	spec0 := workload.NodeSpecFor(0, workload.Phone, core.GridPlacement(0, 3, 10))
	spec1 := workload.NodeSpecFor(1, workload.Laptop, core.GridPlacement(1, 3, 10))
	spec1.BatteryDrain = 400 // laptop carries 4000 energy units => dead at ~10 s
	spec2 := workload.NodeSpecFor(2, workload.Laptop, core.GridPlacement(2, 3, 10))
	for _, s := range []core.NodeSpec{spec0, spec1, spec2} {
		if _, err := cl.AddNode(s); err != nil {
			t.Fatal(err)
		}
	}
	svc := workload.StreamService("bat", 1, 1.0)
	var first *core.Result
	org, err := cl.Submit(0, 0, svc, core.DefaultOrganizerConfig, func(r *core.Result) {
		if first == nil {
			first = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(60)
	if first == nil || !first.Complete() {
		t.Fatalf("formation failed: %+v", first)
	}
	if !cl.Medium.Down(1) {
		t.Fatal("battery node never died")
	}
	if cl.Medium.Down(2) || cl.Medium.Down(0) {
		t.Fatal("mains nodes must not die")
	}
	// Wherever the task started, it must not be on the dead node now.
	for tid, a := range org.Snapshot() {
		if a.Node == 1 {
			t.Errorf("task %s still on battery-dead node", tid)
		}
	}
	if len(org.Snapshot()) != 1 {
		t.Errorf("service lost after battery death: %v", org.Snapshot())
	}
}

func TestTryImproveMigratesToBetterNode(t *testing.T) {
	// Only a phone neighbourhood at first: the service forms at a
	// degraded level. A laptop then arrives; TryImprove must migrate the
	// task to it at a strictly lower distance and release the old
	// reservation.
	cl := core.NewCluster(31, radio.Config{ProcDelay: 0.001}, core.DefaultProviderConfig)
	for i := 0; i < 3; i++ {
		if _, err := cl.AddNode(workload.NodeSpecFor(radio.NodeID(i), workload.Phone, core.GridPlacement(i, 4, 10))); err != nil {
			t.Fatal(err)
		}
	}
	svc := workload.StreamService("up", 1, 0.6) // heavy for a phone: degraded but feasible
	var first *core.Result
	org, err := cl.Submit(0, 0, svc, core.DefaultOrganizerConfig, func(r *core.Result) {
		if first == nil {
			first = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(3)
	if first == nil || !first.Complete() {
		t.Fatalf("initial formation failed: %+v", first)
	}
	before := first.Assigned["t0"]
	if before.Distance == 0 {
		t.Fatalf("phones served the preferred level; the upgrade has nothing to show (distance %v)", before.Distance)
	}
	// The laptop walks into range.
	cl.Eng.At(4, func() {
		if _, err := cl.AddNode(workload.NodeSpecFor(3, workload.Laptop, core.GridPlacement(3, 4, 10))); err != nil {
			t.Error(err)
		}
	})
	cl.Eng.At(5, org.TryImprove)
	cl.Run(10)
	after, ok := org.Assignment("t0")
	if !ok {
		t.Fatal("task lost during upgrade")
	}
	if after.Node != 3 {
		t.Fatalf("task stayed on node %d (distance %v); expected migration to the laptop", after.Node, after.Distance)
	}
	if after.Distance >= before.Distance {
		t.Fatalf("upgrade did not improve distance: %v -> %v", before.Distance, after.Distance)
	}
	if org.Upgrades != 1 {
		t.Errorf("Upgrades = %d, want 1", org.Upgrades)
	}
	// The old node's reservation must be gone.
	old := cl.Node(before.Node)
	if old.Res.Available() != old.Res.Capacity() {
		t.Errorf("old node still holds %v", old.Res.Capacity().Sub(old.Res.Available()))
	}
	// The coalition keeps operating and a second TryImprove with no
	// better offers changes nothing.
	cl.Eng.At(11, org.TryImprove)
	cl.Run(15)
	final, _ := org.Assignment("t0")
	if final.Node != 3 || org.Upgrades != 1 {
		t.Errorf("idempotent upgrade violated: %+v upgrades=%d", final, org.Upgrades)
	}
}

func TestUnservableServiceReportsUnserved(t *testing.T) {
	cl := buildCluster(t, 3)
	// Demand scaled far past any node's capacity.
	svc := workload.StreamService("huge", 2, 1000)
	var res *core.Result
	if _, err := cl.Submit(0, 0, svc, core.DefaultOrganizerConfig, func(r *core.Result) {
		if res == nil {
			res = r
		}
	}); err != nil {
		t.Fatal(err)
	}
	cl.Run(10)
	if res == nil {
		t.Fatal("no result")
	}
	if res.Complete() || len(res.Unserved) != 2 {
		t.Fatalf("expected 2 unserved tasks, got %+v", res)
	}
	if res.Rounds != core.DefaultOrganizerConfig.MaxRounds {
		t.Errorf("rounds = %d, want %d (exhausted renegotiation)", res.Rounds, core.DefaultOrganizerConfig.MaxRounds)
	}
}
