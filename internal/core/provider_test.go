package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/workload"
)

// holdCluster builds a cluster whose providers place tentative holds.
func holdCluster(t *testing.T, holdTimeout float64) *core.Cluster {
	t.Helper()
	pcfg := core.DefaultProviderConfig
	pcfg.Hold = true
	pcfg.HoldTimeout = holdTimeout
	cl := core.NewCluster(11, radio.Config{ProcDelay: 0.001}, pcfg)
	for i, p := range []workload.Profile{workload.Phone, workload.Laptop, workload.Laptop} {
		if _, err := cl.AddNode(workload.NodeSpecFor(radio.NodeID(i), p, core.GridPlacement(i, 3, 10))); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

func TestHoldsConvertToFirmReservations(t *testing.T) {
	cl := holdCluster(t, 2.0)
	svc := workload.StreamService("h1", 2, 1.0)
	var res *core.Result
	if _, err := cl.Submit(0, 0, svc, core.DefaultOrganizerConfig, func(r *core.Result) {
		if res == nil {
			res = r
		}
	}); err != nil {
		t.Fatal(err)
	}
	cl.Run(10)
	if res == nil || !res.Complete() {
		t.Fatalf("formation failed: %+v", res)
	}
	// After hold expiry (2 s) plus settle, only firm reservations may
	// remain: winning nodes hold exactly their tasks' demand, losers
	// hold nothing.
	for _, id := range cl.Nodes() {
		n := cl.Node(id)
		held := n.Res.Capacity().Sub(n.Res.Available())
		isWinner := false
		for _, a := range res.Assigned {
			if a.Node == id {
				isWinner = true
			}
		}
		if !isWinner && !held.IsZero() {
			t.Errorf("losing node %d still holds %v after hold expiry", id, held)
		}
		if isWinner && held.IsZero() {
			t.Errorf("winning node %d holds nothing", id)
		}
	}
}

func TestHoldsExpireWithoutAward(t *testing.T) {
	cl := holdCluster(t, 0.5)
	// An organizer that only collects proposals and never awards:
	// providers place holds on CFP; awards never arrive because the
	// service is submitted from a node that fails right after the CFP
	// goes out.
	svc := workload.StreamService("h2", 2, 1.0)
	if _, err := cl.Submit(0, 0, svc, core.DefaultOrganizerConfig, nil); err != nil {
		t.Fatal(err)
	}
	// Kill the organizer just after the CFP broadcast but before
	// awards (ProposalWait is 0.25 s).
	cl.Eng.At(0.1, func() { cl.FailNode(0) })
	cl.Run(10)
	for _, id := range cl.Nodes()[1:] {
		n := cl.Node(id)
		held := n.Res.Capacity().Sub(n.Res.Available())
		if !held.IsZero() {
			t.Errorf("node %d leaked a hold: %v", id, held)
		}
	}
}

func TestConcurrentServicesBothComplete(t *testing.T) {
	cl := core.NewCluster(13, radio.Config{ProcDelay: 0.001}, core.DefaultProviderConfig)
	profiles := []workload.Profile{
		workload.Phone, workload.Phone, workload.Laptop, workload.Laptop,
		workload.PDA, workload.PDA, workload.AccessPoint, workload.Laptop,
	}
	for i, p := range profiles {
		if _, err := cl.AddNode(workload.NodeSpecFor(radio.NodeID(i), p, core.GridPlacement(i, len(profiles), 10))); err != nil {
			t.Fatal(err)
		}
	}
	var resA, resB *core.Result
	svcA := workload.StreamService("svcA", 3, 1.0)
	svcB := workload.StreamService("svcB", 3, 1.0)
	if _, err := cl.Submit(0, 0, svcA, core.DefaultOrganizerConfig, func(r *core.Result) {
		if resA == nil {
			resA = r
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(0, 1, svcB, core.DefaultOrganizerConfig, func(r *core.Result) {
		if resB == nil {
			resB = r
		}
	}); err != nil {
		t.Fatal(err)
	}
	cl.Run(20)
	if resA == nil || resB == nil {
		t.Fatal("one of the concurrent formations never completed")
	}
	if !resA.Complete() || !resB.Complete() {
		t.Fatalf("unserved tasks: A=%v B=%v", resA.Unserved, resB.Unserved)
	}
	// No node may be over-committed.
	for _, id := range cl.Nodes() {
		n := cl.Node(id)
		if !n.Res.Available().Nonnegative() {
			t.Errorf("node %d over-committed: %v", id, n.Res.Available())
		}
	}
}

func TestSameServiceIDOnDifferentOrganizers(t *testing.T) {
	// Two users may coincidentally pick the same service ID on
	// different nodes; the cluster keys organizers per node so both
	// negotiations proceed (providers share the catalog entry).
	cl := holdCluster(t, 2.0)
	svc1 := workload.StreamService("dup", 1, 0.5)
	svc2 := workload.StreamService("dup", 1, 0.5)
	var r1, r2 *core.Result
	if _, err := cl.Submit(0, 0, svc1, core.DefaultOrganizerConfig, func(r *core.Result) { r1 = r }); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(0, 1, svc2, core.DefaultOrganizerConfig, func(r *core.Result) { r2 = r }); err != nil {
		t.Fatal(err)
	}
	cl.Run(20)
	if r1 == nil || r2 == nil {
		t.Fatal("a negotiation stalled")
	}
}

func TestProviderStatsAccumulate(t *testing.T) {
	cl := holdCluster(t, 2.0)
	svc := workload.StreamService("h3", 2, 1.0)
	if _, err := cl.Submit(0, 0, svc, core.DefaultOrganizerConfig, nil); err != nil {
		t.Fatal(err)
	}
	cl.Run(5)
	var cfps, proposals int
	for _, id := range cl.Nodes() {
		p := cl.Node(id).Provider
		cfps += p.CFPs
		proposals += p.Proposals
	}
	if cfps == 0 || proposals == 0 {
		t.Errorf("stats not collected: cfps=%d proposals=%d", cfps, proposals)
	}
}

func TestTraceTimelineCoversProtocol(t *testing.T) {
	ring := trace.NewRing(256)
	pcfg := core.DefaultProviderConfig
	pcfg.Trace = ring
	cl := core.NewCluster(17, radio.Config{ProcDelay: 0.001}, pcfg)
	for i, p := range []workload.Profile{workload.Phone, workload.Laptop, workload.Laptop} {
		if _, err := cl.AddNode(workload.NodeSpecFor(radio.NodeID(i), p, core.GridPlacement(i, 3, 10))); err != nil {
			t.Fatal(err)
		}
	}
	ocfg := core.DefaultOrganizerConfig
	ocfg.Trace = ring
	svc := workload.StreamService("tr", 2, 1.0)
	var res *core.Result
	org, err := cl.Submit(0, 0, svc, ocfg, func(r *core.Result) {
		if res == nil {
			res = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(3)
	org.Dissolve("trace test")
	cl.Run(4)
	if res == nil || !res.Complete() {
		t.Fatalf("formation failed: %+v", res)
	}
	seen := map[string]bool{}
	for _, e := range ring.Events() {
		seen[e.Kind] = true
	}
	for _, kind := range []string{"cfp", "propose", "select", "reserve", "formed", "dissolve"} {
		if !seen[kind] {
			t.Errorf("no %q events in the timeline:\n%s", kind, ring.String())
		}
	}
	// Events must be clock-ordered per the single-threaded simulator.
	ev := ring.Events()
	for i := 1; i < len(ev); i++ {
		if ev[i].T < ev[i-1].T {
			t.Fatalf("timeline out of order at %d: %v after %v", i, ev[i].T, ev[i-1].T)
		}
	}
}

func TestReleaseServiceIdempotent(t *testing.T) {
	cl := holdCluster(t, 2.0)
	svc := workload.StreamService("h4", 1, 0.5)
	var res *core.Result
	if _, err := cl.Submit(0, 0, svc, core.DefaultOrganizerConfig, func(r *core.Result) { res = r }); err != nil {
		t.Fatal(err)
	}
	cl.Run(5)
	if res == nil || !res.Complete() {
		t.Fatal("formation failed")
	}
	winner := cl.Node(res.Assigned["t0"].Node)
	winner.Provider.ReleaseService("h4")
	winner.Provider.ReleaseService("h4") // second release is a no-op
	if winner.Res.Available() != winner.Res.Capacity() {
		t.Error("ReleaseService did not free the reservation")
	}
}
