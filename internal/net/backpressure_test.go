package net

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/radio"
	"repro/internal/workload"
)

// This file tests the inbox's overflow policy: a full inbox makes its
// producers wait — a read loop on its connection, a self-send in a queue
// of its own — and drops nothing.

// TestFullInboxStallsTheConnection: with an inbox of 2 and a consumer
// that is not reading, a thousand sequenced frames wait in the socket
// and arrive complete and in order once it resumes.
func TestFullInboxStallsTheConnection(t *testing.T) {
	const frames = 1000
	acfg, bcfg := testConfig(1, 0), testConfig(2, 10)
	bcfg.InboxDepth = 2
	a, b := NewEndpoint(acfg), NewEndpoint(bcfg)
	if err := b.Listen(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	if err := a.Dial(2, b.Addr()); err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() {
		for seq := uint64(1); seq <= frames; seq++ {
			if err := a.Send(2, &proto.Sequenced{Seq: seq, Inner: &proto.Dissolve{ServiceID: "s"}}); err != nil {
				sent <- fmt.Errorf("frame %d: %w", seq, err)
				return
			}
		}
		sent <- nil
	}()
	waitFor(t, "the read loop to wait at the full inbox", func() bool { return b.Overflows.Load() > 0 })
	for seq := uint64(1); seq <= frames; seq++ {
		if _, got := proto.Unwrap(recv(t, b).Msg); got != seq {
			t.Fatalf("delivery %d carries sequence %d", seq, got)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	// The read loop counts a frame once the inbox has it.
	waitFor(t, "the delivery counter to catch up", func() bool { return b.Delivered.Load() == frames })
}

// TestSelfSendNeverBlocksOnAFullInbox: the node loop is the inbox's only
// reader, so a send to self from it must return with the inbox full, and
// what it sent must still arrive, in order.
func TestSelfSendNeverBlocksOnAFullInbox(t *testing.T) {
	const sends = 50
	cfg := testConfig(7, 0)
	cfg.ListenAddr, cfg.InboxDepth = "", 2
	e := NewEndpoint(cfg)
	defer e.Close()
	returned := make(chan error, 1)
	go func() {
		for seq := uint64(1); seq <= sends; seq++ {
			if err := e.Send(7, &proto.Sequenced{Seq: seq, Inner: &proto.Dissolve{ServiceID: "s"}}); err != nil {
				returned <- err
				return
			}
		}
		returned <- nil
	}()
	select {
	case err := <-returned: // before anything is read
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a self-send blocked on the full inbox")
	}
	for seq := uint64(1); seq <= sends; seq++ {
		if _, got := proto.Unwrap(recv(t, e).Msg); got != seq {
			t.Fatalf("delivery %d carries sequence %d", seq, got)
		}
	}
}

// TestNodeLoopSelfSendsThroughAFullInbox runs the real handlers: a lone
// node answers its own CFPs, awards and acks from its loop, sixteen
// formations at once through an inbox of one. Every formation completes
// and the ledger drains; a loop that blocked on its own inbox would hang.
func TestNodeLoopSelfSendsThroughAFullInbox(t *testing.T) {
	const flights = 16
	cfg := NodeConfig{
		Endpoint: InteropEndpointConfig(2, 3, "", 0.05), // a laptop
		Provider: core.DefaultProviderConfig,
		Retry:    proto.DefaultRetryConfig,
	}
	cfg.Endpoint.InboxDepth = 1
	n := NewNode(cfg)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	tmpl := workload.SessionTemplate{Name: "self", Tasks: 3, Scale: 0.02}
	var wg sync.WaitGroup
	for seq := 0; seq < flights; seq++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r, err := formOnce(n, tmpl, seq); err != nil {
				t.Error(err)
			} else if !r.Complete() {
				t.Errorf("formation %d: unserved %v", seq, r.Unserved)
			}
		}()
	}
	wg.Wait()
	if n.Endpoint.Overflows.Load() == 0 {
		t.Error("the inbox never filled: the test did not exercise the self-send queue")
	}
	waitFor(t, "the ledger to drain", func() bool { return idle(n) })
}

// TestCloseReleasesAStalledReadLoop: Close must return although a read
// loop is waiting at a full inbox nobody will ever drain.
func TestCloseReleasesAStalledReadLoop(t *testing.T) {
	acfg, bcfg := testConfig(1, 0), testConfig(2, 10)
	bcfg.InboxDepth = 1
	a, b := NewEndpoint(acfg), NewEndpoint(bcfg)
	if err := b.Listen(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Dial(2, b.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := a.Send(2, &proto.Dissolve{ServiceID: "s"}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the read loop to wait at the full inbox", func() bool { return b.Overflows.Load() > 0 })
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return while a read loop was stalled")
	}
}

// TestFleetLedgersDrainUnderLoad: the six-node loopback fleet of the
// benchmark at 8, 32 and 128 formations in flight. Whatever the
// formations themselves come to, every ledger is exactly empty within
// 5 s of the last Dissolve: no Dissolve or TaskRelease was lost. At 128
// the organizer's inbox fills — where a dropping inbox leaked.
func TestFleetLedgersDrainUnderLoad(t *testing.T) {
	const total, scale = 6, 0.05
	tmpl := workload.SessionTemplate{Name: "load", Tasks: 3, Scale: 0.02}
	for _, flights := range []int{8, 32, 128} {
		t.Run(fmt.Sprint(flights, " in flight"), func(t *testing.T) {
			nodes := []*Node{startInteropNode(t, 0, total, "", scale)}
			for id := 1; id < total; id++ {
				d := startInteropNode(t, id, total, "127.0.0.1:0", scale)
				if err := nodes[0].Endpoint.Dial(radio.NodeID(id), d.Endpoint.Addr()); err != nil {
					t.Fatal(err)
				}
				nodes = append(nodes, d)
			}
			var wg sync.WaitGroup
			for f := 0; f < flights; f++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 4; i++ {
						if _, err := formOnce(nodes[0], tmpl, f*4+i); err != nil {
							t.Error(err)
						}
					}
				}()
			}
			wg.Wait()
			waitFor(t, "every ledger to drain", func() bool {
				for _, n := range nodes {
					if !idle(n) {
						return false
					}
				}
				return true
			})
			for i, n := range nodes {
				if errs := n.Endpoint.SendErrors.Load(); errs != 0 {
					t.Errorf("node %d: %d send errors on a healthy fleet", i, errs)
				}
			}
		})
	}
}
