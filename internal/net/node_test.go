package net

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/workload"
)

// startNode boots a loopback node with the given link and capacity and
// closes it with the test.
func startNode(t *testing.T, id radio.NodeID, link radio.Link, capacity resource.Vector) *Node {
	t.Helper()
	n := NewNode(NodeConfig{
		Endpoint: Config{
			Self:       id,
			ListenAddr: "127.0.0.1:0",
			Link:       link,
			Capacity:   capacity,
			TimeScale:  0.01,
		},
		Provider: core.DefaultProviderConfig,
		Retry:    proto.DefaultRetryConfig,
	})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// TestOutOfRangeNodeNeverAssigned: a dialled neighbour outside radio
// range takes no part in a formation, even one the organizer cannot
// serve itself. TestEndpointBroadcastRangeFilter checks the endpoint's
// filter; this checks that no path of the protocol goes around it.
func TestOutOfRangeNodeNeverAssigned(t *testing.T) {
	org := startNode(t, 0, radio.Link{RangeM: 60, Bitrate: 2e6}, workload.Phone.Capacity)
	far := startNode(t, 1, radio.Link{Pos: radio.Pos{X: 10000}, RangeM: 100, Bitrate: 11e6}, workload.Laptop.Capacity)
	if err := org.Endpoint.Dial(1, far.Endpoint.Addr()); err != nil {
		t.Fatal(err)
	}
	_, formed, err := negotiate(org, workload.StreamService("far", 2, 2.0)) // too heavy for the phone
	if err != nil {
		t.Fatal(err)
	}
	res := await(t, formed)
	for tid, a := range res.Assigned {
		if a.Node == 1 {
			t.Errorf("task %s assigned to the out-of-range node", tid)
		}
	}
	if !idle(far) {
		t.Errorf("out-of-range node holds %v of %v", far.Res.Available(), far.Res.Capacity())
	}
}

// TestTwoNodeNegotiation runs a real coalition formation over TCP
// loopback: node 0 organizes a one-task streaming service, node 1 is a
// remote provider, and after dissolution both ledgers return to full
// capacity.
func TestTwoNodeNegotiation(t *testing.T) {
	mk := func(id radio.NodeID, x float64, p workload.Profile) *Node {
		return startNode(t, id, radio.Link{Pos: radio.Pos{X: x}, RangeM: p.RangeM, Bitrate: p.Bitrate}, p.Capacity)
	}
	org := mk(0, 0, workload.Phone)
	prov := mk(1, 10, workload.Laptop)

	if err := org.Endpoint.Dial(1, prov.Endpoint.Addr()); err != nil {
		t.Fatal(err)
	}

	formed := make(chan *core.Result, 4)
	ocfg := core.DefaultOrganizerConfig
	ocfg.Monitor = false
	o, err := org.Submit(workload.StreamService("net-svc", 1, 1.0), ocfg, func(r *core.Result) {
		formed <- r
	})
	if err != nil {
		t.Fatal(err)
	}

	var res *core.Result
	select {
	case res = <-formed:
	case <-time.After(10 * time.Second):
		t.Fatal("formation did not complete")
	}
	if !res.Complete() {
		t.Fatalf("incomplete formation: %+v", res)
	}
	// The catalog push must have landed on the remote provider.
	if _, ok := prov.Catalog().Spec("multimedia"); !ok {
		t.Error("spec did not reach the remote catalog")
	}

	o.Dissolve("test done")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if prov.Res.Available() == prov.Res.Capacity() &&
			org.Res.Available() == org.Res.Capacity() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("ledgers not restored: org %v/%v, prov %v/%v",
		org.Res.Available(), org.Res.Capacity(), prov.Res.Available(), prov.Res.Capacity())
}
