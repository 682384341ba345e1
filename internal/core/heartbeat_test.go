package core

import (
	"reflect"
	"testing"

	"repro/internal/proto"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/sim"
)

// TestHeartbeatTaskIDsSorted runs a provider on the recording transport —
// the stand-in for the TCP runtime, where a sent message outlives
// the tick — and pins the heartbeat's task list: sorted, so the encoded
// frame does not vary with map iteration order; rebuilt when the running
// set changes and only then; and never rewritten under a message already
// handed to the transport.
func TestHeartbeatTaskIDsSorted(t *testing.T) {
	tr := &recTransport{self: 1}
	eng := sim.New(1)
	cfg := DefaultProviderConfig
	p := NewProvider(1, resource.NewSet(resource.V(resource.KV{K: resource.CPU, A: 100})),
		NewCatalog(), tr, simTimers{eng}, cfg)
	tasks := []string{"t7", "t3", "t9", "t1", "t5", "t8", "t2", "t6"}
	for _, tid := range tasks {
		if err := p.AdoptReservation(0, "svc", tid, resource.V(resource.KV{K: resource.CPU, A: 1})); err != nil {
			t.Fatal(err)
		}
	}
	beats := func() (out []*proto.Heartbeat) {
		for _, s := range tr.sent {
			if hb, ok := s.m.(*proto.Heartbeat); ok && s.to == radio.NodeID(0) {
				out = append(out, hb)
			}
		}
		return out
	}
	eng.Run(2.2 * cfg.HeartbeatEvery)
	got := beats()
	if len(got) != 2 {
		t.Fatalf("%d heartbeats after two periods, want 2", len(got))
	}
	all := []string{"t1", "t2", "t3", "t5", "t6", "t7", "t8", "t9"}
	for i, hb := range got {
		if hb.ServiceID != "svc" || !reflect.DeepEqual(hb.TaskIDs, all) {
			t.Errorf("heartbeat %d = %s %v, want svc %v", i, hb.ServiceID, hb.TaskIDs, all)
		}
	}
	if got[0] == got[1] {
		t.Error("a goroutine-backed transport was handed the same message twice")
	}

	p.DropTask("svc", "t5")
	p.DropTask("svc", "t1")
	eng.Run(3.2 * cfg.HeartbeatEvery)
	got = beats()
	if len(got) != 3 {
		t.Fatalf("%d heartbeats after three periods, want 3", len(got))
	}
	if want := []string{"t2", "t3", "t6", "t7", "t8", "t9"}; !reflect.DeepEqual(got[2].TaskIDs, want) {
		t.Errorf("heartbeat after two drops = %v, want %v", got[2].TaskIDs, want)
	}
	if !reflect.DeepEqual(got[1].TaskIDs, all) {
		t.Errorf("rebuilding the list rewrote a sent message: %v", got[1].TaskIDs)
	}

	p.ReleaseService("svc")
	eng.Run(5 * cfg.HeartbeatEvery)
	if n := len(beats()); n != 3 {
		t.Errorf("%d heartbeats, want none after the service was released", n-3)
	}
}

// TestHeartbeatReformedServiceRunsOneLoop releases a service and adopts
// it again under the same ID within one heartbeat period (net's
// Host.Organize and adapt's AdoptReservation both allow it). The old
// state's loop must stop at its next tick, so the new state's loop is
// the only one sending: one heartbeat per period, not two.
func TestHeartbeatReformedServiceRunsOneLoop(t *testing.T) {
	tr := &recTransport{self: 1}
	eng := sim.New(1)
	cfg := DefaultProviderConfig
	p := NewProvider(1, resource.NewSet(resource.V(resource.KV{K: resource.CPU, A: 100})),
		NewCatalog(), tr, simTimers{eng}, cfg)
	demand := resource.V(resource.KV{K: resource.CPU, A: 1})
	if err := p.AdoptReservation(0, "svc", "t0", demand); err != nil {
		t.Fatal(err)
	}
	eng.Run(1.2 * cfg.HeartbeatEvery)
	p.ReleaseService("svc")
	if err := p.AdoptReservation(0, "svc", "t0", demand); err != nil {
		t.Fatal(err)
	}
	before := len(tr.sent)
	eng.Run(eng.Now() + 20.5*cfg.HeartbeatEvery)
	beats := 0
	for _, s := range tr.sent[before:] {
		if _, ok := s.m.(*proto.Heartbeat); ok {
			beats++
		}
	}
	if beats != 20 {
		t.Errorf("%d heartbeats in 20 periods after the service was formed again, want 20", beats)
	}
}
