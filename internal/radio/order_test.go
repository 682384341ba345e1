package radio_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/radio"
	"repro/internal/sim"
)

// fateLog records, in call order, every delivery the medium asks the
// fault injector about and what it ruled.
type fateLog struct {
	inner radio.Interceptor
	log   []string
}

func (f *fateLog) DeliverFate(now float64, from, to radio.NodeID, size int) radio.Fate {
	fate := f.inner.DeliverFate(now, from, to, size)
	verdict := "ok"
	switch {
	case fate.Drop:
		verdict = "drop"
	case fate.Dup:
		verdict = "dup"
	case fate.Delay > 0:
		verdict = "late"
	}
	f.log = append(f.log, fmt.Sprintf("%d>%d:%s", from, to, verdict))
	return fate
}

// TestBroadcastFateOrderPinned pins the order in which a broadcast
// consults the two random sources on its path. Receivers are visited in
// ascending ID whatever the attach order; each one first costs a LossProb
// draw from the engine rng and, if it survives, a ruling from the seeded
// fault plan. Visiting them in any other order hands the same draws to
// different receivers, so the recorded fates below — taken before the
// medium kept its nodes sorted — would move.
func TestBroadcastFateOrderPinned(t *testing.T) {
	eng := sim.New(42)
	m := radio.NewMedium(eng, radio.Config{ProcDelay: 0.001, LossProb: 0.25})
	ids := []radio.NodeID{7, 3, 9, 1, 5, 8, 2}
	var arrived []string
	for i, id := range ids {
		h := func(from radio.NodeID, msg any) { arrived = append(arrived, fmt.Sprintf("%v@%d", msg, id)) }
		if err := m.Attach(id, radio.Static{X: float64(i)}, 50, 1e6, h); err != nil {
			t.Fatal(err)
		}
	}
	inj, err := faults.New(42, 100, m.NodeIDs(), faults.Plan{Loss: 0.3, DelayProb: 0.4, DelayMean: 0.01, DupProb: 0.2, DupLag: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	rec := &fateLog{inner: inj}
	m.SetInterceptor(rec)
	m.SendBroadcast(5, "a", 64)
	m.Send(9, 1, "u", 64)
	m.SendBroadcast(2, "b", 64)
	m.SendBroadcast(8, "c", 64)
	eng.Run(0)

	const wantFates = "5>1:ok 5>3:ok 5>9:dup 9>1:ok 2>1:late 2>3:drop 2>5:drop 2>7:dup 2>9:late 8>2:late 8>3:ok 8>5:ok 8>7:ok 8>9:late"
	if got := strings.Join(rec.log, " "); got != wantFates {
		t.Errorf("fates consulted:\n got %s\nwant %s", got, wantFates)
	}
	const wantArrived = "a@1 a@3 u@1 c@3 c@5 c@7 b@7 c@2 b@1 b@7 a@9 b@9 a@9 c@9"
	if got := strings.Join(arrived, " "); got != wantArrived {
		t.Errorf("arrivals:\n got %s\nwant %s", got, wantArrived)
	}
	want := radio.Stats{Unicasts: 1, Broadcasts: 3, Deliveries: 14, Drops: 5, Bytes: 256, FaultDrops: 2, FaultDups: 2}
	if m.Stats != want {
		t.Errorf("stats = %+v, want %+v", m.Stats, want)
	}
}

// TestAttachAfterTrafficKeepsOrder attaches out of order around live
// traffic: the ID lists, the neighbor scan and the broadcast walk must all
// see one ascending population, and a list handed out before an Attach
// stays as it was.
func TestAttachAfterTrafficKeepsOrder(t *testing.T) {
	eng := sim.New(1)
	m := radio.NewMedium(eng, radio.Config{})
	var arrived []radio.NodeID
	attach := func(ids ...radio.NodeID) {
		for _, id := range ids {
			h := func(radio.NodeID, any) { arrived = append(arrived, id) }
			if err := m.Attach(id, radio.Static{}, 10, 1e6, h); err != nil {
				t.Fatal(err)
			}
		}
	}
	attach(5, 2)
	before := m.IDs()
	m.SendBroadcast(5, "x", 8)
	eng.Run(0)
	attach(3, 9, 1)
	if want := []radio.NodeID{2, 5}; !reflect.DeepEqual(before, want) {
		t.Errorf("IDs() handed out before Attach changed to %v", before)
	}
	want := []radio.NodeID{1, 2, 3, 5, 9}
	if got := m.IDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("IDs() = %v, want %v", got, want)
	}
	if got := m.NodeIDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("NodeIDs() = %v, want %v", got, want)
	}
	if got, want := m.Neighbors(3), []radio.NodeID{1, 2, 5, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("Neighbors(3) = %v, want %v", got, want)
	}
	arrived = nil
	m.SendBroadcast(3, "y", 8)
	eng.Run(0)
	if want := []radio.NodeID{1, 2, 5, 9}; !reflect.DeepEqual(arrived, want) {
		t.Errorf("broadcast reached %v, want %v", arrived, want)
	}
}
