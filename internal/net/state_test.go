package net

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	gonet "net"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/radio"
	"repro/internal/task"
	"repro/internal/workload"
)

// This file tests the state the TCP runtime keeps between formations:
// what a connection has carried (catalog push, decoder tables), what an
// endpoint has in flight (dials), and what a long-lived node retains.

// startInteropNode boots node id of a total-node interop grid on
// loopback (listen "" for a dial-only node) and closes it with the test.
func startInteropNode(t testing.TB, id, total int, listen string, timeScale float64) *Node {
	t.Helper()
	n := NewNode(NodeConfig{
		Endpoint: InteropEndpointConfig(radio.NodeID(id), total, listen, timeScale),
		Provider: core.DefaultProviderConfig,
		Retry:    proto.DefaultRetryConfig,
	})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// countPushes counts the catalog pushes a node applies from now on. Call
// it before the node has peers: read loops start under the same lock.
func countPushes(n *Node) *atomic.Int64 {
	var pushes atomic.Int64
	n.Endpoint.mu.Lock()
	defer n.Endpoint.mu.Unlock()
	apply := n.Endpoint.onCatalog
	n.Endpoint.onCatalog = func(cu *proto.CatalogUpdate) {
		pushes.Add(1)
		apply(cu)
	}
	return &pushes
}

// negotiate submits svc from org; the results of its formation attempts
// arrive on the returned channel.
func negotiate(org *Node, svc *task.Service) (*core.Organizer, <-chan *core.Result, error) {
	formed := make(chan *core.Result, 8) // a reformation or two must not block the timer goroutine
	o, err := org.Submit(svc, core.DefaultOrganizerConfig, func(r *core.Result) {
		select {
		case formed <- r:
		default:
		}
	})
	return o, formed, err
}

// form runs one formation from org to its first result and dissolves it.
func form(t testing.TB, org *Node, svcTemplate workload.SessionTemplate, seq int) *core.Result {
	t.Helper()
	r, err := formOnce(org, svcTemplate, seq)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// formOnce is form for goroutines other than the test's: it returns the
// failure instead of ending the test.
func formOnce(org *Node, svcTemplate workload.SessionTemplate, seq int) (*core.Result, error) {
	o, formed, err := negotiate(org, svcTemplate.Instantiate(seq))
	if err != nil {
		return nil, err
	}
	defer o.Dissolve("test: formed")
	select {
	case r := <-formed:
		return r, nil
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("formation %d did not complete", seq)
	}
}

// holdsCatalog reports whether a node's catalog has every entry of the
// template's services.
func holdsCatalog(n *Node, tmpl workload.SessionTemplate) bool {
	svc := tmpl.Instantiate(0)
	if _, ok := n.Catalog().Spec(svc.Spec.Name); !ok {
		return false
	}
	for _, tk := range svc.Tasks {
		if _, ok := n.Catalog().Demand(tk.Ref(svc.ID)); !ok {
			return false
		}
	}
	return true
}

// TestCatalogPushFollowsTheConnection: a peer is pushed a service's
// catalog entries once per connection, not once per Submit — and because
// the record lives with the connection, a daemon restarted on the same
// address with an empty catalog is pushed them again, as is a peer first
// dialled after earlier submits.
func TestCatalogPushFollowsTheConnection(t *testing.T) {
	const total, scale = 3, 0.01
	tmpl := workload.SessionTemplate{Name: "seed", Tasks: 2, Scale: 0.02}
	org := startInteropNode(t, 0, total, "", scale)
	d1 := startInteropNode(t, 1, total, "127.0.0.1:0", scale)
	addr := d1.Endpoint.Addr()
	pushes1 := countPushes(d1)
	if err := org.Endpoint.Dial(1, addr); err != nil {
		t.Fatal(err)
	}

	for seq := 0; seq < 3; seq++ {
		if r := form(t, org, tmpl, seq); !r.Complete() {
			t.Fatalf("formation %d incomplete: unserved %v", seq, r.Unserved)
		}
	}
	if got := pushes1.Load(); got != 1 {
		t.Errorf("three submits over one connection pushed the catalog %d times, want 1", got)
	}
	if !holdsCatalog(d1, tmpl) {
		t.Error("the push did not fill the daemon's catalog")
	}

	// Restart: same identity, same address, nothing in the catalog.
	d1.Close()
	waitFor(t, "the organizer to see the daemon go", func() bool { return len(org.Endpoint.Peers()) == 0 })
	d1b := startInteropNode(t, 1, total, addr, scale)
	pushes1b := countPushes(d1b)
	if r := form(t, org, tmpl, 3); !r.Complete() {
		t.Fatalf("formation after the restart incomplete: unserved %v", r.Unserved)
	}
	if got := pushes1b.Load(); got != 1 {
		t.Errorf("restarted daemon was pushed the catalog %d times, want 1", got)
	}
	if !holdsCatalog(d1b, tmpl) {
		t.Error("restarted daemon was not re-seeded")
	}

	// A latecomer gets everything, the peer already seeded gets nothing.
	d2 := startInteropNode(t, 2, total, "127.0.0.1:0", scale)
	pushes2 := countPushes(d2)
	if err := org.Endpoint.Dial(2, d2.Endpoint.Addr()); err != nil {
		t.Fatal(err)
	}
	form(t, org, tmpl, 4)
	if !holdsCatalog(d2, tmpl) {
		t.Error("a peer dialled after earlier submits did not get the full catalog")
	}
	if a, b := pushes1b.Load(), pushes2.Load(); a != 1 || b != 1 {
		t.Errorf("pushes after the latecomer's first formation: %d to the seeded peer, %d to the latecomer, want 1 and 1", a, b)
	}

	// A re-seeded daemon is a working one: it answered the CFPs. The
	// counters are the node loop's; read them once it has stopped.
	d1b.Close()
	d2.Close()
	if d1b.Provider.Proposals == 0 {
		t.Error("the restarted daemon never proposed")
	}
	if d2.Provider.Proposals == 0 {
		t.Error("the latecomer never proposed")
	}
}

// TestConcurrentConnectSharesOneDial: senders racing at a peer whose
// connection was just dropped must end up on one socket, none of them
// reporting a send error while a live connection exists.
func TestConcurrentConnectSharesOneDial(t *testing.T) {
	const senders = 16
	a := NewEndpoint(testConfig(1, 0))
	b := NewEndpoint(testConfig(2, 10))
	if err := a.Listen(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	if err := b.Dial(1, a.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a to admit b", func() bool { return len(a.Peers()) == 1 })

	for round := 0; round < 5; round++ {
		b.mu.Lock()
		p := b.peers[1]
		b.mu.Unlock()
		b.dropPeer(p, "test: cut")
		waitFor(t, "a to see the cut", func() bool { return len(a.Peers()) == 0 })

		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < senders; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := b.Send(1, &proto.Heartbeat{ServiceID: "s"}); err != nil {
					t.Errorf("send: %v", err)
				}
			}()
		}
		close(start)
		wg.Wait()
		for i := 0; i < senders; i++ {
			recv(t, a)
		}
		if n := b.SendErrors.Load(); n != 0 {
			t.Fatalf("round %d: %d send errors with a live connection", round, n)
		}
		if na, nb := len(a.Peers()), len(b.Peers()); na != 1 || nb != 1 {
			t.Fatalf("round %d: %d sockets at the listener, %d at the dialler, want one each", round, na, nb)
		}
	}
}

// TestLongLivedNodeStaysBounded is ROADMAP 4(c) for the TCP runtime:
// over 1000 formations a node's heap, organizer table, replay ring and
// goroutines follow what is in flight, not what has been — and on a
// link that lost nothing, nothing was sent twice.
func TestLongLivedNodeStaysBounded(t *testing.T) {
	const formations, scale = 1000, 0.004
	const heapSlack = 2 << 20 // a node that keeps its organizers grows ≈ 4 MiB over the measured stretch
	tmpl := workload.SessionTemplate{Name: "bounded", Tasks: 2, Scale: 0.02}
	goroutines := runtime.NumGoroutine()

	org := startInteropNode(t, 0, 2, "", scale)
	d := startInteropNode(t, 1, 2, "127.0.0.1:0", scale)
	if err := org.Endpoint.Dial(1, d.Endpoint.Addr()); err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var at200 uint64
	for seq := 0; seq < formations; seq++ {
		if seq == 200 {
			at200 = heap()
		}
		form(t, org, tmpl, seq)
	}
	if at1000 := heap(); at1000 > at200+heapSlack {
		t.Errorf("heap after GC grew from %d B at formation 200 to %d B at formation %d", at200, at1000, formations)
	}
	waitFor(t, "both ledgers to drain", func() bool {
		return org.Res.Available() == org.Res.Capacity() && d.Res.Available() == d.Res.Capacity()
	})
	for _, n := range []*Node{org, d} {
		if held := n.ReplayHeld(); held > proto.DedupWindow {
			t.Errorf("node %d keeps %d frames for replay, more than a dedup window", n.Endpoint.Self(), held)
		}
		if retx := n.Retransmissions(); retx != 0 {
			t.Errorf("node %d retransmitted %d frames over a connection that never went down", n.Endpoint.Self(), retx)
		}
	}

	org.Close()
	d.Close()
	// With the loop stopped the test may deliver: a service the host
	// still routes is one its table still holds.
	held := 0
	for seq := 0; seq < formations; seq++ {
		if org.Deliver(1, &proto.Heartbeat{ServiceID: tmpl.Instantiate(seq).ID}) {
			held++
		}
	}
	if held > 32 {
		t.Errorf("organizer table still routes %d of %d dissolved services", held, formations)
	}
	waitFor(t, "goroutines to end", func() bool { return runtime.NumGoroutine() <= goroutines })
}

// tap forwards one TCP connection to target and records both directions.
type tap struct {
	ln       gonet.Listener
	up, down bytes.Buffer // dialler to target, target to dialler
	done     sync.WaitGroup
}

func startTap(t testing.TB, target string) *tap {
	t.Helper()
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tp := &tap{ln: ln}
	tp.done.Add(1)
	go func() {
		defer tp.done.Done()
		in, err := ln.Accept()
		if err != nil {
			return
		}
		out, err := gonet.Dial("tcp", target)
		if err != nil {
			in.Close()
			return
		}
		tp.done.Add(1)
		go func() {
			defer tp.done.Done()
			io.Copy(io.MultiWriter(out, &tp.up), in)
			out.Close()
		}()
		io.Copy(io.MultiWriter(in, &tp.down), out)
		in.Close()
	}()
	return tp
}

// streams returns the recorded byte streams once both ends have closed.
func (tp *tap) streams() (up, down []byte) {
	tp.ln.Close()
	tp.done.Wait()
	return tp.up.Bytes(), tp.down.Bytes()
}

var recordTo = flag.String("record-formation", "", "write the tapped formation's frames to this file (internal/proto/testdata/loopback-formation.frames)")

// TestDecoderMatchesCodecOnALoopbackFormation taps the connection
// between an organizer and a daemon through two formations and replays
// both recorded streams, each twice in sequence, through one Decoder:
// every message must equal the stateless Codec's.
func TestDecoderMatchesCodecOnALoopbackFormation(t *testing.T) {
	const scale = 0.01
	tmpl := workload.SessionTemplate{Name: "tapped", Tasks: 3, Scale: 0.02}
	org := startInteropNode(t, 0, 3, "", scale)
	d1 := startInteropNode(t, 1, 3, "127.0.0.1:0", scale)
	d2 := startInteropNode(t, 2, 3, "127.0.0.1:0", scale)
	tp := startTap(t, d1.Endpoint.Addr())
	if err := org.Endpoint.Dial(1, tp.ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if err := org.Endpoint.Dial(2, d2.Endpoint.Addr()); err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 2; seq++ {
		form(t, org, tmpl, seq)
	}
	waitFor(t, "the daemons' ledgers to drain", func() bool {
		return d1.Res.Available() == d1.Res.Capacity() && d2.Res.Available() == d2.Res.Capacity()
	})
	org.Close()
	d1.Close()
	up, down := tp.streams()

	var codec proto.Codec
	kinds := map[string]int{}
	for name, stream := range map[string][]byte{"organizer to daemon": up, "daemon to organizer": down} {
		dec := codec.NewDecoder()
		for pass := 0; pass < 2; pass++ {
			ref, got := bytes.NewReader(stream), bytes.NewReader(stream)
			for i := 0; ; i++ {
				want, err := codec.ReadMsg(ref)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%s, frame %d: %v", name, i, err)
				}
				m, err := dec.ReadMsg(got)
				if err != nil {
					t.Fatalf("%s, pass %d, frame %d: decoder: %v", name, pass, i, err)
				}
				if !reflect.DeepEqual(m, want) {
					t.Fatalf("%s, pass %d, frame %d:\n got %#v\nwant %#v", name, pass, i, m, want)
				}
				inner, _ := proto.Unwrap(want)
				kinds[inner.Kind()]++
			}
		}
	}
	for _, k := range []string{"hello", "catalog", "cfp", "proposal", "dissolve"} {
		if kinds[k] == 0 {
			t.Errorf("the tapped streams carry no %s frame: %v", k, kinds)
		}
	}
	if *recordTo != "" {
		if err := os.WriteFile(*recordTo, append(append([]byte(nil), up...), down...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkLoopbackFormation is one formation through the whole TCP
// path — Submit, catalog check, CFP broadcast, proposals, awards, acks,
// first result, Dissolve — on a three-node loopback fleet. Time per op
// is mostly the two mandated windows (2 × 0.25 virtual s × the time
// scale); allocs per op is the figure to watch, and frames/op and
// retx/op say how much of it is traffic.
func BenchmarkLoopbackFormation(b *testing.B) {
	const scale = 0.004
	tmpl := workload.SessionTemplate{Name: "bench", Tasks: 3, Scale: 0.02}
	org := startInteropNode(b, 0, 3, "", scale)
	nodes := []*Node{org}
	for id := 1; id <= 2; id++ {
		d := startInteropNode(b, id, 3, "127.0.0.1:0", scale)
		if err := org.Endpoint.Dial(radio.NodeID(id), d.Endpoint.Addr()); err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, d)
	}
	seq := 0
	for ; seq < 20; seq++ { // connection buffers, compiled problems, catalogs
		form(b, org, tmpl, seq)
	}
	traffic := func() (frames, retx uint64) {
		for _, n := range nodes {
			frames += n.Endpoint.Sent.Load()
			retx += n.Retransmissions()
		}
		return frames, retx
	}
	frames0, retx0 := traffic()
	b.ReportAllocs()
	b.ResetTimer()
	rounds := 0
	for i := 0; i < b.N; i++ {
		rounds += form(b, org, tmpl, seq+i).Rounds
	}
	b.StopTimer()
	// The last Dissolve may still be on its way: under one frame per op.
	frames, retx := traffic()
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op") // above 1: a window was missed on a busy box
	b.ReportMetric(float64(frames-frames0)/float64(b.N), "frames/op")
	b.ReportMetric(float64(retx-retx0)/float64(b.N), "retx/op") // above 0: a connection went down
}
