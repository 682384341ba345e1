package net

import (
	"bytes"
	"io"
	gonet "net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file tests what the reliability layer guarantees over real
// sockets: a frame is written once, and sent again exactly when its
// connection died around it. The links are cut by a proxy, frame by
// frame, so each case loses the frame it names and no other.

// verdict is what a cutter does with one frame.
type verdict int

const (
	pass      verdict = iota
	cutBefore         // sever the link; the frame was written by the sender and is never read
	cutMid            // forward half the frame's bytes, then sever
)

// cutter is a TCP proxy in front of one daemon. It reads the dialler's
// frames one at a time and asks decide about each (unwrapped of its
// Sequenced envelope); the daemon's replies pass untouched. It keeps
// accepting, so a re-dial after a cut goes through.
type cutter struct {
	ln     gonet.Listener
	target string
	decide func(proto.Msg) verdict

	mu    sync.Mutex
	conns []gonet.Conn
	wg    sync.WaitGroup
}

func startCutter(t *testing.T, target string, decide func(proto.Msg) verdict) *cutter {
	t.Helper()
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := &cutter{ln: ln, target: target, decide: decide}
	c.wg.Add(1)
	go c.accept()
	t.Cleanup(c.stop)
	return c
}

func (c *cutter) addr() string { return c.ln.Addr().String() }

func (c *cutter) stop() {
	c.ln.Close()
	c.mu.Lock()
	for _, conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
}

func (c *cutter) accept() {
	defer c.wg.Done()
	for {
		in, err := c.ln.Accept()
		if err != nil {
			return
		}
		out, err := gonet.Dial("tcp", c.target)
		if err != nil {
			in.Close() // the daemon is gone: the dialler's handshake fails
			continue
		}
		c.mu.Lock()
		c.conns = append(c.conns, in, out)
		c.mu.Unlock()
		c.wg.Add(2)
		go func() {
			defer c.wg.Done()
			io.Copy(in, out)
			in.Close()
		}()
		go func() {
			defer c.wg.Done()
			c.forward(in, out)
			in.Close()
			out.Close()
		}()
	}
}

// forward relays the dialler's frames until decide cuts the link or
// either side closes it.
func (c *cutter) forward(in, out gonet.Conn) {
	var codec proto.Codec
	var frame bytes.Buffer
	for {
		frame.Reset()
		m, err := codec.ReadMsg(io.TeeReader(in, &frame)) // reads one frame exactly
		if err != nil {
			return
		}
		inner, _ := proto.Unwrap(m)
		switch c.decide(inner) {
		case cutBefore:
			return
		case cutMid:
			out.Write(frame.Bytes()[:frame.Len()/2])
			return
		}
		if _, err := out.Write(frame.Bytes()); err != nil {
			return
		}
	}
}

// once returns a decide function that gives v for the first frame match
// accepts and passes everything else.
func once(v verdict, match func(proto.Msg) bool) func(proto.Msg) verdict {
	var done atomic.Bool
	return func(m proto.Msg) verdict {
		if match(m) && done.CompareAndSwap(false, true) {
			return v
		}
		return pass
	}
}

func isDissolve(m proto.Msg) bool { _, ok := m.(*proto.Dissolve); return ok }
func isAward(m proto.Msg) bool    { _, ok := m.(*proto.Award); return ok }

// kindCounter counts the provider trace events of one kind: how often a
// handler ran.
type kindCounter struct {
	kind string
	n    atomic.Int64
}

func (k *kindCounter) Emit(e trace.Event) {
	if e.Kind == k.kind {
		k.n.Add(1)
	}
}

// cutScale stretches the retry horizon (0.225 virtual s) to 45 ms of
// wall clock, so a loaded box still notices a cut inside it.
const cutScale = 0.2

// startCutNode boots one node of a cut test. The organizer (node 0) has
// no capacity: it never proposes, so the daemons win every task and
// every Award and Dissolve that matters crosses a socket.
func startCutNode(t *testing.T, id, total int, listen string, retry proto.RetryConfig, tr trace.Tracer) *Node {
	t.Helper()
	cfg := NodeConfig{
		Endpoint: InteropEndpointConfig(radio.NodeID(id), total, listen, cutScale),
		Provider: core.DefaultProviderConfig,
		Retry:    retry,
	}
	cfg.Endpoint.DialTimeout = time.Second
	cfg.Provider.Trace = tr
	if id == 0 {
		cfg.Endpoint.Capacity = resource.Vector{}
	}
	n := NewNode(cfg)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// submit starts one formation and returns its organizer and the channel
// its results arrive on.
func submit(t *testing.T, org *Node, name string, tasks int) (*core.Organizer, <-chan *core.Result) {
	t.Helper()
	o, formed, err := negotiate(org, workload.StreamService(name, tasks, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	return o, formed
}

func await(t *testing.T, formed <-chan *core.Result) *core.Result {
	t.Helper()
	select {
	case r := <-formed:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("formation did not complete")
		return nil
	}
}

func idle(n *Node) bool { return n.Res.Available() == n.Res.Capacity() }

// cutDissolve forms a coalition on a daemon behind a cutter, then loses
// the organizer's Dissolve to a cut: written, never read. It returns the
// two nodes and the daemon's count of dissolve handler runs.
func cutDissolve(t *testing.T, retry proto.RetryConfig) (org, d *Node, dissolves *kindCounter) {
	t.Helper()
	dissolves = &kindCounter{kind: "dissolve"}
	org = startCutNode(t, 0, 2, "", retry, nil)
	d = startCutNode(t, 1, 2, "127.0.0.1:0", retry, dissolves)
	c := startCutter(t, d.Endpoint.Addr(), once(cutBefore, isDissolve))
	if err := org.Endpoint.Dial(1, c.addr()); err != nil {
		t.Fatal(err)
	}
	o, formed := submit(t, org, "cut-dissolve", 2)
	if r := await(t, formed); !r.Complete() {
		t.Fatalf("incomplete formation: unserved %v", r.Unserved)
	}
	if idle(d) {
		t.Fatal("the daemon holds no reservation: the test would pass without the Dissolve")
	}
	o.Dissolve("test: formed")
	return org, d, dissolves
}

// TestCutDissolveIsReplayed: the connection dies with the Dissolve in
// it. The organizer hears the peer go down, re-dials and sends the frame
// again; the daemon's ledger ends exactly empty, and however many copies
// arrive, its handler runs once.
func TestCutDissolveIsReplayed(t *testing.T) {
	org, d, dissolves := cutDissolve(t, proto.DefaultRetryConfig)
	waitFor(t, "the daemon's ledger to drain after the re-dial", func() bool { return idle(d) })
	// Both retries of the schedule run; the window drops the second.
	waitFor(t, "the second copy to be suppressed", func() bool { return d.Duplicates() > 0 })
	if n := dissolves.n.Load(); n != 1 {
		t.Errorf("the dissolve handler ran %d times, want 1", n)
	}
	if retx := org.Retransmissions(); retx == 0 {
		t.Error("the ledger drained without a retransmission: the cut lost nothing")
	}
}

// TestCutDissolveLeaksWithoutRetries is the control: with the layer off
// the same cut leaves the reservation in place, so the test above tests
// the layer and not the luck of timing.
func TestCutDissolveLeaksWithoutRetries(t *testing.T) {
	_, d, dissolves := cutDissolve(t, proto.RetryConfig{})
	time.Sleep(300 * time.Millisecond) // six times the span a retry schedule would have had
	if idle(d) || dissolves.n.Load() != 0 {
		t.Errorf("with retries off the lost Dissolve still arrived (handler runs: %d)", dissolves.n.Load())
	}
}

// TestCutAwardMidFrame: the link dies half-way through an Award. The
// daemon discards the torso, the organizer replays the frame over a new
// connection, and the formation completes in the same round or the
// next; nothing is left reserved after the Dissolve.
func TestCutAwardMidFrame(t *testing.T) {
	org := startCutNode(t, 0, 2, "", proto.DefaultRetryConfig, nil)
	d := startCutNode(t, 1, 2, "127.0.0.1:0", proto.DefaultRetryConfig, nil)
	c := startCutter(t, d.Endpoint.Addr(), once(cutMid, isAward))
	if err := org.Endpoint.Dial(1, c.addr()); err != nil {
		t.Fatal(err)
	}
	o, formed := submit(t, org, "cut-award", 2)
	r := await(t, formed)
	if !r.Complete() || r.Rounds > 2 {
		t.Fatalf("formation after the cut: %d round(s), unserved %v", r.Rounds, r.Unserved)
	}
	if org.Retransmissions() == 0 {
		t.Error("no retransmission: the cut lost nothing")
	}
	o.Dissolve("test: formed")
	waitFor(t, "both ledgers to drain", func() bool { return idle(org) && idle(d) })
}

// TestDaemonGoneForGood: the daemon that is sent the first Award is
// closed as the Award is cut and never comes back. Its frames are
// retried Retries times each and then let go; the formation completes
// on the other daemon by renegotiation, and the retransmission counter
// comes to rest.
func TestDaemonGoneForGood(t *testing.T) {
	const total = 3
	org := startCutNode(t, 0, total, "", proto.DefaultRetryConfig, nil)
	daemons := make([]*Node, total)
	var killed atomic.Int32
	for id := 1; id < total; id++ {
		d := startCutNode(t, id, total, "127.0.0.1:0", proto.DefaultRetryConfig, nil)
		daemons[id] = d
		firstAward := once(cutBefore, func(m proto.Msg) bool { return isAward(m) && killed.CompareAndSwap(0, int32(id)) })
		c := startCutter(t, d.Endpoint.Addr(), func(m proto.Msg) verdict {
			v := firstAward(m)
			if v == cutBefore {
				d.Close()
			}
			return v
		})
		if err := org.Endpoint.Dial(radio.NodeID(id), c.addr()); err != nil {
			t.Fatal(err)
		}
	}
	o, formed := submit(t, org, "gone", 2)
	r := await(t, formed)
	if !r.Complete() {
		t.Fatalf("formation incomplete after %d round(s): unserved %v", r.Rounds, r.Unserved)
	}
	dead := radio.NodeID(killed.Load())
	if dead == 0 {
		t.Fatal("no Award crossed a cutter: nothing was killed")
	}
	for tid, a := range r.Assigned {
		if a.Node == dead {
			t.Errorf("task %s assigned to the dead daemon %d", tid, dead)
		}
	}
	o.Dissolve("test: formed")
	survivor := daemons[3-int(dead)]
	waitFor(t, "the survivor's ledger to drain", func() bool { return idle(survivor) })

	// Every frame's schedule ends within its span; two spans later the
	// counter has stopped for good.
	span := time.Duration(2 * 0.225 * cutScale * float64(time.Second))
	time.Sleep(span)
	retx := org.Retransmissions()
	time.Sleep(span)
	if again := org.Retransmissions(); again != retx {
		t.Errorf("retransmissions still moving at rest: %d then %d", retx, again)
	}
	if retx == 0 {
		t.Error("a dead daemon's frames were never retried")
	}
}
