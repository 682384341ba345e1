package proto

import (
	"errors"
	"testing"

	"repro/internal/radio"
)

// connectedTransport is fakeTransport with the Connected capability: it
// hands the test the peer-down function Reliable registered, and fails
// sends on request.
type connectedTransport struct {
	fakeTransport
	down func(radio.NodeID)
	fail error
}

func (c *connectedTransport) NotifyPeerDown(fn func(radio.NodeID)) { c.down = fn }

func (c *connectedTransport) Send(to radio.NodeID, m Msg) error {
	c.fakeTransport.Send(to, m)
	return c.fail
}

func (c *connectedTransport) Broadcast(m Msg) error {
	c.fakeTransport.Broadcast(m)
	return c.fail
}

func connected() (*connectedTransport, *fakeTimers, *Reliable) {
	tr, tm := &connectedTransport{fakeTransport: fakeTransport{self: 1}}, &fakeTimers{}
	return tr, tm, NewReliable(tr, tm, DefaultRetryConfig)
}

// On a connected transport a frame is written once: sequenced, no timer.
func TestConnectedWritesOnce(t *testing.T) {
	tr, tm, r := connected()
	if tr.down == nil {
		t.Fatal("Reliable did not ask a Connected transport for peer-down reports")
	}
	r.Send(2, &Award{ServiceID: "s"})
	r.Broadcast(&CFP{ServiceID: "s"})
	if len(tm.queued) != 0 {
		t.Fatalf("%d timers armed on a connection that lost nothing", len(tm.queued))
	}
	for i, s := range tr.sends {
		if _, seq := Unwrap(s.msg); seq != uint64(i+1) {
			t.Fatalf("send %d carries sequence %d", i, seq)
		}
	}
	if r.Held() != 2 {
		t.Fatalf("Held = %d, want 2", r.Held())
	}
	tm.fire()
	if len(tr.sends) != 2 || r.Retransmissions() != 0 {
		t.Fatalf("%d sends, %d retransmissions", len(tr.sends), r.Retransmissions())
	}
}

// A best-effort transport pays for no ring, and a disabled layer asks
// for no reports.
func TestNoRingWithoutTheCapability(t *testing.T) {
	if r := NewReliable(&fakeTransport{self: 1}, &fakeTimers{}, DefaultRetryConfig); r.sent != nil {
		t.Error("replay ring allocated on a best-effort transport")
	}
	tr := &connectedTransport{fakeTransport: fakeTransport{self: 1}}
	if r := NewReliable(tr, &fakeTimers{}, RetryConfig{}); r.sent != nil || tr.down != nil {
		t.Error("a disabled layer set up replay")
	}
}

// A send the transport reports as failed runs the schedule, as ever.
func TestConnectedRetriesAFailedSend(t *testing.T) {
	tr, tm, r := connected()
	tr.fail = errors.New("dial refused")
	if err := r.Send(2, &Award{ServiceID: "s"}); err == nil {
		t.Fatal("the transport's error was swallowed")
	}
	if len(tm.queued) != 2 {
		t.Fatalf("%d retries armed for a failed send, want 2", len(tm.queued))
	}
	// The connection's death is then reported too: the frame is already
	// being retried and is not scheduled again.
	tr.down(2)
	if len(tm.queued) != 2 {
		t.Fatalf("%d timers after the peer-down report, want 2: the schedule ran twice", len(tm.queued))
	}
	tm.fire() // the retries fail as well, and are not retried in turn
	if len(tr.sends) != 3 || r.Retransmissions() != 2 || len(tm.queued) != 0 {
		t.Fatalf("%d sends, %d retransmissions, %d timers left", len(tr.sends), r.Retransmissions(), len(tm.queued))
	}
}

// A peer-down report replays what went to that peer — alone or in a
// broadcast — inside the horizon, and nothing else.
func TestPeerDownReplaysItsFramesInsideTheHorizon(t *testing.T) {
	tr, tm, r := connected()
	r.Send(2, &Award{ServiceID: "old"}) // seq 1
	tm.now = 0.3                        // past the 0.225 s horizon of seq 1
	r.Send(2, &Award{ServiceID: "s"})   // seq 2
	r.Send(3, &Award{ServiceID: "s"})   // seq 3: another peer
	r.Broadcast(&Dissolve{ServiceID: "s"})
	r.Send(2, &Heartbeat{ServiceID: "s"}) // never sequenced
	tm.now = 0.4
	before := len(tr.sends)
	tr.down(2)
	if len(tm.queued) != 4 {
		t.Fatalf("%d timers, want 2 retries each for the award and the broadcast", len(tm.queued))
	}
	tm.fire()
	replayed := map[uint64]int{}
	for _, s := range tr.sends[before:] {
		_, seq := Unwrap(s.msg)
		replayed[seq]++
		if (seq == 4) != s.bcast {
			t.Errorf("sequence %d replayed with broadcast=%v", seq, s.bcast)
		}
	}
	if len(replayed) != 2 || replayed[2] != 2 || replayed[4] != 2 {
		t.Fatalf("replayed %v, want sequences 2 and 4 twice each", replayed)
	}
	// A second report finds everything claimed.
	tr.down(2)
	if len(tm.queued) != 0 {
		t.Fatalf("%d timers after a repeated report", len(tm.queued))
	}
}

// The ring holds the last horizon's frames and never more than a dedup
// window of them.
func TestReplayRingIsBounded(t *testing.T) {
	_, tm, r := connected()
	for i := 0; i < 3*DedupWindow; i++ {
		r.Send(2, &Award{ServiceID: "s"})
		if held := r.Held(); held > DedupWindow {
			t.Fatalf("ring holds %d frames after %d sends", held, i+1)
		}
	}
	if r.Held() != DedupWindow {
		t.Fatalf("Held = %d after a burst, want %d", r.Held(), DedupWindow)
	}
	tm.now = 1
	r.Send(2, &Award{ServiceID: "s"})
	if r.Held() != 1 {
		t.Fatalf("Held = %d after the burst aged out, want 1", r.Held())
	}
}
