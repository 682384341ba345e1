package live

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/radio"
	"repro/internal/workload"
)

// buildRuntime spawns a 6-node heterogeneous neighbourhood on a fast
// time scale.
func buildRuntime(t *testing.T) *Runtime {
	t.Helper()
	rt := NewRuntime(Config{TimeScale: 0.01, Provider: core.DefaultProviderConfig})
	t.Cleanup(rt.Shutdown)
	profiles := []workload.Profile{
		workload.Phone, workload.PDA, workload.Laptop,
		workload.PDA, workload.Laptop, workload.Phone,
	}
	for i, p := range profiles {
		pos := core.GridPlacement(i, len(profiles), 10)
		if _, err := rt.AddNode(radio.NodeID(i), radio.Pos(pos), p.RangeM, p.Bitrate, p.Capacity); err != nil {
			t.Fatalf("AddNode(%d): %v", i, err)
		}
	}
	return rt
}

// waitResult polls for a formation result with a wall-clock deadline.
func waitResult(t *testing.T, ch <-chan *core.Result, wallTimeout time.Duration) *core.Result {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(wallTimeout):
		t.Fatal("live formation timed out")
		return nil
	}
}

func TestLiveFormationEndToEnd(t *testing.T) {
	rt := buildRuntime(t)
	svc := workload.StreamService("live1", 3, 1.0)
	ch := make(chan *core.Result, 4)
	org, err := rt.Node(0).Submit(svc, core.DefaultOrganizerConfig, func(r *core.Result) {
		select {
		case ch <- r:
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, ch, 10*time.Second)
	if !res.Complete() {
		t.Fatalf("unserved: %v", res.Unserved)
	}
	if len(res.Assigned) != 3 {
		t.Fatalf("assigned %d", len(res.Assigned))
	}
	// Reservations must exist on the winning nodes.
	for tid, a := range res.Assigned {
		n := rt.Node(a.Node)
		avail := n.Res.Available()
		cap := n.Res.Capacity()
		if avail == cap {
			t.Errorf("task %s: node %d holds no reservation", tid, a.Node)
		}
	}
	// Dissolution releases everything (poll briefly: dissolve is async).
	org.Dissolve("done")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		clean := true
		for i := 0; i < 6; i++ {
			n := rt.Node(radio.NodeID(i))
			if n.Res.Available() != n.Res.Capacity() {
				clean = false
			}
		}
		if clean {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("reservations not released after dissolve")
}

func TestLiveMessagesFlow(t *testing.T) {
	rt := buildRuntime(t)
	svc := workload.StreamService("live2", 2, 1.0)
	ch := make(chan *core.Result, 1)
	if _, err := rt.Node(0).Submit(svc, core.DefaultOrganizerConfig, func(r *core.Result) {
		select {
		case ch <- r:
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}
	waitResult(t, ch, 10*time.Second)
	if rt.Sent.Load() == 0 || rt.Delivered.Load() == 0 {
		t.Errorf("no traffic counted: sent=%d delivered=%d", rt.Sent.Load(), rt.Delivered.Load())
	}
}

func TestLiveDuplicateNodeRejected(t *testing.T) {
	rt := NewRuntime(Config{})
	defer rt.Shutdown()
	if _, err := rt.AddNode(1, radio.Pos{}, 10, 1e6, workload.Phone.Capacity); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddNode(1, radio.Pos{}, 10, 1e6, workload.Phone.Capacity); err == nil {
		t.Error("duplicate node accepted")
	}
	if rt.Node(1) == nil || rt.Node(9) != nil {
		t.Error("Node lookup broken")
	}
}

func TestLiveOutOfRangeNodesExcluded(t *testing.T) {
	rt := NewRuntime(Config{TimeScale: 0.01, Provider: core.DefaultProviderConfig})
	defer rt.Shutdown()
	// Organizer phone at origin; one laptop far out of range.
	if _, err := rt.AddNode(0, radio.Pos{}, 60, 2e6, workload.Phone.Capacity); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddNode(1, radio.Pos{X: 10000}, 100, 11e6, workload.Laptop.Capacity); err != nil {
		t.Fatal(err)
	}
	svc := workload.StreamService("far", 2, 2.0) // too heavy for the phone
	ch := make(chan *core.Result, 1)
	if _, err := rt.Node(0).Submit(svc, core.DefaultOrganizerConfig, func(r *core.Result) {
		select {
		case ch <- r:
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, ch, 20*time.Second)
	for tid, a := range res.Assigned {
		if a.Node == 1 {
			t.Errorf("task %s assigned to unreachable node", tid)
		}
	}
}

// TestLiveInboxOverflowCounted pins the saturation accounting: once a
// node's inbox is full, further deliveries land in the Overflows counter
// (and Dropped), distinct from range/membership drops.
func TestLiveInboxOverflowCounted(t *testing.T) {
	rt := NewRuntime(Config{InboxDepth: 1, Provider: core.DefaultProviderConfig})
	if _, err := rt.AddNode(1, radio.Pos{}, 10, 1e6, workload.Phone.Capacity); err != nil {
		t.Fatal(err)
	}
	// Stop the agent goroutine so nothing drains the inbox, then stuff it
	// with zero-latency self-sends: one fits the buffer, the rest overflow.
	rt.Shutdown()
	for i := 0; i < 4; i++ {
		rt.send(1, 1, &proto.Heartbeat{ServiceID: "x"})
	}
	if got := rt.Delivered.Load(); got != 1 {
		t.Errorf("Delivered = %d, want 1 (inbox depth)", got)
	}
	if got := rt.Overflows.Load(); got != 3 {
		t.Errorf("Overflows = %d, want 3", got)
	}
	if d, o := rt.Dropped.Load(), rt.Overflows.Load(); d != o {
		t.Errorf("overflow drops must count in both: Dropped=%d Overflows=%d", d, o)
	}
	// An out-of-membership drop moves Dropped but not Overflows.
	rt.send(1, 99, &proto.Heartbeat{ServiceID: "x"})
	if d, o := rt.Dropped.Load(), rt.Overflows.Load(); d != o+1 {
		t.Errorf("membership drop miscounted: Dropped=%d Overflows=%d", d, o)
	}
}

// TestLiveRetryFormsAndDeduplicates runs a formation with the
// reliability layer on: the goroutine runtime must form and dissolve
// cleanly, with the receivers' dedup windows absorbing every blind
// retransmission the lossless channels deliver twice.
func TestLiveRetryFormsAndDeduplicates(t *testing.T) {
	rt := NewRuntime(Config{TimeScale: 0.01, Provider: core.DefaultProviderConfig, Retry: proto.DefaultRetryConfig})
	profiles := []workload.Profile{
		workload.Phone, workload.PDA, workload.Laptop,
		workload.PDA, workload.Laptop, workload.Phone,
	}
	for i, p := range profiles {
		pos := core.GridPlacement(i, len(profiles), 10)
		if _, err := rt.AddNode(radio.NodeID(i), radio.Pos(pos), p.RangeM, p.Bitrate, p.Capacity); err != nil {
			t.Fatalf("AddNode(%d): %v", i, err)
		}
	}
	svc := workload.StreamService("retry1", 3, 1.0)
	ch := make(chan *core.Result, 4)
	org, err := rt.Node(0).Submit(svc, core.DefaultOrganizerConfig, func(r *core.Result) {
		select {
		case ch <- r:
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, ch, 10*time.Second)
	if !res.Complete() {
		t.Fatalf("unserved under retry: %v", res.Unserved)
	}
	org.Dissolve("done")
	deadline := time.Now().Add(5 * time.Second)
	clean := false
	for time.Now().Before(deadline) && !clean {
		clean = true
		for i := range profiles {
			n := rt.Node(radio.NodeID(i))
			if n.Res.Available() != n.Res.Capacity() {
				clean = false
			}
		}
		if !clean {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !clean {
		t.Error("reservations not released after dissolve under retry")
	}
	// Let the retransmission tail land, then quiesce before reading the
	// loop-owned dedup counters.
	rt.VirtualSleep(3)
	rt.Shutdown()
	var retx, dups uint64
	for i := range profiles {
		n := rt.Node(radio.NodeID(i))
		retx += n.Retransmissions()
		dups += n.Duplicates()
	}
	if retx == 0 {
		t.Error("reliability layer issued no retransmissions")
	}
	if dups == 0 {
		t.Error("no duplicate was suppressed despite lossless retransmission")
	}
}

func TestVirtualSleepScaling(t *testing.T) {
	rt := NewRuntime(Config{TimeScale: 0.001})
	defer rt.Shutdown()
	start := time.Now()
	rt.VirtualSleep(1.0) // 1 virtual second = 1 ms wall
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("VirtualSleep(1.0) took %v at scale 0.001", elapsed)
	}
}
