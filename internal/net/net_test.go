package net

import (
	"math"
	gonet "net"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/radio"
	"repro/internal/resource"
)

// testConfig builds a loopback endpoint at position (x, 0) with a
// 100 m range and fast timeouts suitable for CI.
func testConfig(id radio.NodeID, x float64) Config {
	return Config{
		Self:         id,
		ListenAddr:   "127.0.0.1:0",
		Link:         radio.Link{Pos: radio.Pos{X: x}, RangeM: 100, Bitrate: 11e6},
		Capacity:     resource.Vector{100, 100, 100, 100, 100},
		TimeScale:    0.01,
		DialTimeout:  time.Second,
		WriteTimeout: time.Second,
	}
}

// waitFor polls cond until it holds or the test deadline budget runs out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// recv reads one delivery with a timeout.
func recv(t *testing.T, e *Endpoint) Delivery {
	t.Helper()
	select {
	case d := <-e.Inbox():
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
		return Delivery{}
	}
}

func TestEndpointLoopbackRoundTrip(t *testing.T) {
	a := NewEndpoint(testConfig(1, 0))
	b := NewEndpoint(testConfig(2, 10))
	if err := a.Listen(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := b.Listen(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := b.Dial(1, a.Addr()); err != nil {
		t.Fatal(err)
	}
	// Dial returns once b has a's Hello; a admits b from its accept
	// goroutine, so poll for the reverse entry.
	waitFor(t, "a to admit b", func() bool { return len(a.Peers()) == 1 })

	if err := b.Send(1, &proto.Heartbeat{ServiceID: "s", TaskIDs: []string{"t"}}); err != nil {
		t.Fatal(err)
	}
	d := recv(t, a)
	if d.From != 2 {
		t.Fatalf("delivery from %d, want 2", d.From)
	}
	hb, ok := d.Msg.(*proto.Heartbeat)
	if !ok || hb.ServiceID != "s" || len(hb.TaskIDs) != 1 {
		t.Fatalf("delivered %#v", d.Msg)
	}
	// And the reverse direction over the same socket.
	if err := a.Send(2, &proto.Dissolve{ServiceID: "s", Reason: "done"}); err != nil {
		t.Fatal(err)
	}
	if d := recv(t, b); d.From != 1 || d.Msg.Kind() != "dissolve" {
		t.Fatalf("reverse delivery = %+v", d)
	}

	// The handshake populated both directories: costs are finite and
	// capacities known.
	if c := b.CommCost(1, 1024); c <= 0 || c > 1 {
		t.Errorf("CommCost b->a = %v", c)
	}
	if c := a.CommCost(2, 1024); c <= 0 || c > 1 {
		t.Errorf("CommCost a->b = %v", c)
	}
	a.mu.Lock()
	cap, ok := a.caps[2]
	a.mu.Unlock()
	if !ok || cap != b.cfg.Capacity {
		t.Errorf("peer capacity = %v, %v", cap, ok)
	}
	if a.Sent.Load() != 1 || a.Delivered.Load() != 1 || a.SendErrors.Load() != 0 {
		t.Errorf("a counters: sent=%d delivered=%d errors=%d",
			a.Sent.Load(), a.Delivered.Load(), a.SendErrors.Load())
	}
}

// TestTimersScaleVirtualSeconds: the endpoint's timers run the protocol's
// virtual seconds at TimeScale wall seconds each — one virtual second is
// a millisecond at 0.001, and a timer never fires early on the virtual
// clock.
func TestTimersScaleVirtualSeconds(t *testing.T) {
	cfg := testConfig(1, 0)
	cfg.TimeScale = 0.001
	tm := NewEndpoint(cfg).Timers()
	start := tm.Now()
	fired := make(chan float64, 1)
	tm.After(1, func() { fired <- tm.Now() })
	select {
	case now := <-fired:
		if now-start < 1 {
			t.Errorf("timer fired after %.3f virtual s, want >= 1", now-start)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a 1 ms timer did not fire within 5 s")
	}
}

func TestEndpointSelfSend(t *testing.T) {
	cfg := testConfig(7, 0)
	cfg.ListenAddr = "" // dial-only endpoints can still self-deliver
	e := NewEndpoint(cfg)
	defer e.Close()
	if err := e.Send(7, &proto.Heartbeat{ServiceID: "x"}); err != nil {
		t.Fatal(err)
	}
	if d := recv(t, e); d.From != 7 || d.Msg.Kind() != "heartbeat" {
		t.Fatalf("self delivery = %+v", d)
	}
	if e.CommCost(7, 1<<20) != 0 {
		t.Error("self cost must be zero")
	}
}

// TestEndpointDialFailure: a send to a peer whose address refuses
// connections surfaces the error and counts it.
func TestEndpointDialFailure(t *testing.T) {
	// Grab a loopback port and close it again: dials now get refused.
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	cfg := testConfig(1, 0)
	cfg.ListenAddr = ""
	e := NewEndpoint(cfg)
	defer e.Close()
	if err := e.Dial(2, dead); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	// The address stays registered; Send retries the dial and reports.
	if err := e.Send(2, &proto.Heartbeat{ServiceID: "s"}); err == nil {
		t.Fatal("send to unreachable peer succeeded")
	}
	if e.SendErrors.Load() == 0 {
		t.Error("send error not counted")
	}
	if e.Sent.Load() != 0 {
		t.Error("failed send counted as sent")
	}
}

// TestEndpointHandshakeDeadline: a peer that accepts the connection but
// never answers the Hello must not hang Dial past its deadline.
func TestEndpointHandshakeDeadline(t *testing.T) {
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // accept and stay silent
		}
	}()

	cfg := testConfig(1, 0)
	cfg.ListenAddr = ""
	cfg.DialTimeout = 200 * time.Millisecond
	e := NewEndpoint(cfg)
	defer e.Close()
	begin := time.Now()
	err = e.Dial(2, ln.Addr().String())
	if err == nil {
		t.Fatal("handshake against silent peer succeeded")
	}
	if elapsed := time.Since(begin); elapsed > 2*time.Second {
		t.Fatalf("dial blocked %v despite 200ms deadline", elapsed)
	}
}

// TestEndpointPeerLossSurfacesSendError: after a peer goes away its
// graceful Bye empties the pool, and the next send fails loudly.
func TestEndpointPeerLoss(t *testing.T) {
	a := NewEndpoint(testConfig(1, 0))
	b := NewEndpoint(testConfig(2, 10))
	if err := a.Listen(); err != nil {
		t.Fatal(err)
	}
	if err := b.Listen(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Dial(1, a.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "connection", func() bool { return len(b.Peers()) == 1 })

	a.Close() // sends Bye, closes listener and socket
	waitFor(t, "bye to drop the peer", func() bool { return len(b.Peers()) == 0 })

	if err := b.Send(1, &proto.Heartbeat{ServiceID: "s"}); err == nil {
		t.Fatal("send to closed peer succeeded")
	}
	if b.SendErrors.Load() == 0 {
		t.Error("send error not counted")
	}
}

// TestEndpointMidStreamCut: a peer that dies mid-frame (or spews
// garbage) is dropped without panicking the read loop.
func TestEndpointMidStreamCut(t *testing.T) {
	a := NewEndpoint(testConfig(1, 0))
	if err := a.Listen(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	var codec proto.Codec
	raw, err := gonet.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	hello, err := codec.Encode(&proto.Hello{Node: 99, RangeM: 100, Bitrate: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(hello); err != nil {
		t.Fatal(err)
	}
	if _, err := codec.ReadMsg(raw); err != nil { // a's answering Hello
		t.Fatal(err)
	}
	waitFor(t, "admission", func() bool { return len(a.Peers()) == 1 })

	// A full frame followed by a truncated one, then a hard close.
	frame, err := codec.Encode(&proto.Heartbeat{ServiceID: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(frame[:len(frame)-2]); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	if d := recv(t, a); d.From != 99 || d.Msg.Kind() != "heartbeat" {
		t.Fatalf("delivery = %+v", d)
	}
	waitFor(t, "peer drop after cut", func() bool { return len(a.Peers()) == 0 })

	// A second client that opens with garbage instead of a Hello is
	// rejected without admission.
	raw2, err := gonet.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw2.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	raw2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw2.Read(buf); err == nil {
		t.Fatal("garbage handshake was answered")
	}
	raw2.Close()
	if n := len(a.Peers()); n != 0 {
		t.Fatalf("garbage client admitted: %d peers", n)
	}
}

// TestEndpointBroadcastRangeFilter: broadcast follows the radio range
// model — a connected but out-of-range peer is silently skipped, and
// its communication cost is infinite.
func TestEndpointBroadcastRangeFilter(t *testing.T) {
	a := NewEndpoint(testConfig(1, 0))
	near := NewEndpoint(testConfig(2, 50))
	farCfg := testConfig(3, 5000) // far outside the 100 m range
	far := NewEndpoint(farCfg)
	for _, e := range []*Endpoint{a, near, far} {
		if err := e.Listen(); err != nil {
			t.Fatal(err)
		}
		defer e.Close()
	}
	if err := a.Dial(2, near.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.Dial(3, far.Addr()); err != nil {
		t.Fatal(err)
	}

	if err := a.Broadcast(&proto.Dissolve{ServiceID: "s", Reason: "r"}); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	if d := recv(t, near); d.Msg.Kind() != "dissolve" {
		t.Fatalf("near delivery = %+v", d)
	}
	select {
	case d := <-far.Inbox():
		t.Fatalf("out-of-range peer received %+v", d)
	case <-time.After(100 * time.Millisecond):
	}
	if c := a.CommCost(3, 1024); !math.IsInf(c, 1) {
		t.Errorf("cost to out-of-range peer = %v, want +Inf", c)
	}
}

func TestEndpointCloseIdempotent(t *testing.T) {
	e := NewEndpoint(testConfig(1, 0))
	if err := e.Listen(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Send(2, &proto.Heartbeat{ServiceID: "s"}); err == nil {
		t.Error("send after close succeeded")
	}
}
