package radio

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func newTestMedium(t *testing.T, cfg Config) (*sim.Engine, *Medium) {
	t.Helper()
	eng := sim.New(1)
	return eng, NewMedium(eng, cfg)
}

type capture struct {
	from []NodeID
	msgs []any
}

func (c *capture) handler() Handler {
	return func(from NodeID, msg any) {
		c.from = append(c.from, from)
		c.msgs = append(c.msgs, msg)
	}
}

func TestPosDist(t *testing.T) {
	if d := (Pos{0, 0}).Dist(Pos{3, 4}); d != 5 {
		t.Errorf("dist = %v", d)
	}
	if d := (Pos{1, 1}).Dist(Pos{1, 1}); d != 0 {
		t.Errorf("self dist = %v", d)
	}
}

func TestAttachValidation(t *testing.T) {
	_, m := newTestMedium(t, Config{})
	if err := m.Attach(1, Static{}, 100, 1e6, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(1, Static{}, 100, 1e6, nil); err == nil {
		t.Error("duplicate attach accepted")
	}
	if err := m.Attach(2, nil, 100, 1e6, nil); err == nil {
		t.Error("nil mobility accepted")
	}
	if err := m.Attach(3, Static{}, 0, 1e6, nil); err == nil {
		t.Error("zero range accepted")
	}
	if err := m.Attach(4, Static{}, 10, 0, nil); err == nil {
		t.Error("zero bitrate accepted")
	}
}

func TestInRangeSymmetricMinRange(t *testing.T) {
	_, m := newTestMedium(t, Config{})
	// a has range 100, b only 30; they sit 50 apart -> NOT in range
	// (symmetric links use the smaller radio).
	if err := m.Attach(1, Static{X: 0}, 100, 1e6, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(2, Static{X: 50}, 30, 1e6, nil); err != nil {
		t.Fatal(err)
	}
	if m.InRange(1, 2) || m.InRange(2, 1) {
		t.Error("links must use min(range_a, range_b)")
	}
	if err := m.Attach(3, Static{X: 20}, 30, 1e6, nil); err != nil {
		t.Fatal(err)
	}
	if !m.InRange(1, 3) || !m.InRange(3, 1) {
		t.Error("nodes 20 m apart with 30 m radios must connect")
	}
	if m.InRange(1, 99) {
		t.Error("unknown node in range")
	}
}

func TestNeighborsSorted(t *testing.T) {
	_, m := newTestMedium(t, Config{})
	for i := 5; i >= 1; i-- {
		if err := m.Attach(NodeID(i), Static{X: float64(i)}, 100, 1e6, nil); err != nil {
			t.Fatal(err)
		}
	}
	nb := m.Neighbors(3)
	want := []NodeID{1, 2, 4, 5}
	if len(nb) != len(want) {
		t.Fatalf("neighbors = %v", nb)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Errorf("neighbors[%d] = %v, want %v (ascending)", i, nb[i], want[i])
		}
	}
}

func TestSendDeliversWithLatency(t *testing.T) {
	eng, m := newTestMedium(t, Config{ProcDelay: 0.01})
	var rx capture
	if err := m.Attach(1, Static{X: 0}, 100, 1e6, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(2, Static{X: 10}, 100, 1e6, rx.handler()); err != nil {
		t.Fatal(err)
	}
	m.Send(1, 2, "hello", 1000) // tx = 8000 bits / 1e6 = 8 ms, + 10 ms proc
	if len(rx.msgs) != 0 {
		t.Fatal("delivery must not be synchronous")
	}
	eng.Run(0)
	if len(rx.msgs) != 1 || rx.msgs[0] != "hello" || rx.from[0] != 1 {
		t.Fatalf("rx = %+v", rx)
	}
	wantLat := 0.018
	if math.Abs(eng.Now()-wantLat) > 1e-9 {
		t.Errorf("delivery at %v, want %v", eng.Now(), wantLat)
	}
	if m.Stats.Unicasts != 1 || m.Stats.Deliveries != 1 || m.Stats.Bytes != 1000 {
		t.Errorf("stats = %+v", m.Stats)
	}
}

func TestBroadcastReachesOnlyNeighbors(t *testing.T) {
	eng, m := newTestMedium(t, Config{})
	var near, far capture
	if err := m.Attach(1, Static{X: 0}, 50, 1e6, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(2, Static{X: 10}, 50, 1e6, near.handler()); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(3, Static{X: 500}, 50, 1e6, far.handler()); err != nil {
		t.Fatal(err)
	}
	m.SendBroadcast(1, "cfp", 100)
	eng.Run(0)
	if len(near.msgs) != 1 {
		t.Error("in-range neighbour missed broadcast")
	}
	if len(far.msgs) != 0 {
		t.Error("out-of-range node heard broadcast")
	}
	if m.Stats.Broadcasts != 1 {
		t.Errorf("broadcast count = %d", m.Stats.Broadcasts)
	}
}

func TestDownNodesNeitherSendNorReceive(t *testing.T) {
	eng, m := newTestMedium(t, Config{})
	var rx capture
	if err := m.Attach(1, Static{X: 0}, 100, 1e6, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(2, Static{X: 10}, 100, 1e6, rx.handler()); err != nil {
		t.Fatal(err)
	}
	m.SetDown(2, true)
	if !m.Down(2) || m.Down(1) {
		t.Error("Down flag broken")
	}
	m.Send(1, 2, "x", 10)
	eng.Run(0)
	if len(rx.msgs) != 0 {
		t.Error("down node received")
	}
	m.SetDown(2, false)
	m.SetDown(1, true)
	m.Send(1, 2, "y", 10)
	eng.Run(0)
	if len(rx.msgs) != 0 {
		t.Error("down sender transmitted")
	}
	if m.Stats.Unreachable == 0 {
		t.Error("unreachable not counted")
	}
	// Recovery restores connectivity.
	m.SetDown(1, false)
	m.Send(1, 2, "z", 10)
	eng.Run(0)
	if len(rx.msgs) != 1 {
		t.Error("recovered node cannot send")
	}
}

func TestFailureDuringFlightDropsDelivery(t *testing.T) {
	eng, m := newTestMedium(t, Config{ProcDelay: 1.0})
	var rx capture
	if err := m.Attach(1, Static{X: 0}, 100, 1e6, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(2, Static{X: 10}, 100, 1e6, rx.handler()); err != nil {
		t.Fatal(err)
	}
	m.Send(1, 2, "x", 10)
	eng.At(0.5, func() { m.SetDown(2, true) }) // fails while message in flight
	eng.Run(0)
	if len(rx.msgs) != 0 {
		t.Error("message delivered to node that failed mid-flight")
	}
	if m.Stats.Unreachable != 1 || m.Stats.Deliveries != 0 {
		t.Errorf("stats = %+v, want the in-flight message counted unreachable", m.Stats)
	}
}

func TestLossProbability(t *testing.T) {
	eng, m := newTestMedium(t, Config{LossProb: 0.5})
	var rx capture
	if err := m.Attach(1, Static{X: 0}, 100, 1e9, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(2, Static{X: 1}, 100, 1e9, rx.handler()); err != nil {
		t.Fatal(err)
	}
	const total = 2000
	for i := 0; i < total; i++ {
		m.Send(1, 2, i, 10)
	}
	eng.Run(0)
	got := len(rx.msgs)
	if got < total/3 || got > 2*total/3 {
		t.Errorf("deliveries = %d of %d with 50%% loss", got, total)
	}
	if m.Stats.Drops+m.Stats.Deliveries != total {
		t.Errorf("drops %d + deliveries %d != %d", m.Stats.Drops, m.Stats.Deliveries, total)
	}
}

func TestTxTime(t *testing.T) {
	_, m := newTestMedium(t, Config{})
	if err := m.Attach(1, Static{X: 0}, 100, 2e6, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(2, Static{X: 10}, 100, 10e6, nil); err != nil {
		t.Fatal(err)
	}
	// Bottleneck is the slower radio: 2e6 b/s.
	want := float64(1000*8) / 2e6
	if got := m.TxTime(1, 2, 1000); math.Abs(got-want) > 1e-12 {
		t.Errorf("TxTime = %v, want %v", got, want)
	}
	if m.TxTime(1, 1, 1000) != 0 {
		t.Error("self tx must be free")
	}
	if !math.IsInf(m.TxTime(1, 99, 10), 1) {
		t.Error("unknown destination must be +Inf")
	}
	m.SetDown(2, true)
	if !math.IsInf(m.TxTime(1, 2, 10), 1) {
		t.Error("down destination must be +Inf")
	}
}

func TestWaypointMobility(t *testing.T) {
	w, err := NewWaypoint(10, 1, Pos{0, 0}, Pos{100, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p := w.Pos(0); p != (Pos{0, 0}) {
		t.Errorf("t=0 pos = %v", p)
	}
	if p := w.Pos(0.5); p != (Pos{0, 0}) {
		t.Errorf("pause ignored: %v", p)
	}
	// After 1 s pause + 5 s travel = half way.
	p := w.Pos(6)
	if math.Abs(p.X-50) > 1e-9 {
		t.Errorf("mid-travel pos = %v, want x=50", p)
	}
	// Past the trace end, parked at the final waypoint.
	if p := w.Pos(1000); p != (Pos{100, 0}) {
		t.Errorf("final pos = %v", p)
	}
	if _, err := NewWaypoint(0, 1, Pos{}); err == nil {
		t.Error("zero speed accepted")
	}
	if _, err := NewWaypoint(1, 1); err == nil {
		t.Error("empty trace accepted")
	}
	single, err := NewWaypoint(1, 0, Pos{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if single.Pos(99) != (Pos{5, 5}) {
		t.Error("single waypoint must be static")
	}
}

func TestMobilityBreaksLinks(t *testing.T) {
	eng, m := newTestMedium(t, Config{})
	w, err := NewWaypoint(10, 0, Pos{0, 0}, Pos{1000, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(1, Static{X: 0}, 50, 1e6, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(2, w, 50, 1e6, nil); err != nil {
		t.Fatal(err)
	}
	if !m.InRange(1, 2) {
		t.Fatal("initially in range")
	}
	eng.At(10, func() { // node 2 has walked 100 m
		if m.InRange(1, 2) {
			t.Error("link survived beyond radio range")
		}
	})
	eng.Run(0)
}

func TestSetHandlerAndNodeIDs(t *testing.T) {
	eng, m := newTestMedium(t, Config{})
	var rx capture
	if err := m.Attach(2, Static{}, 10, 1e6, rx.handler()); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(1, Static{}, 10, 1e6, nil); err != nil {
		t.Fatal(err)
	}
	ids := m.NodeIDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("NodeIDs = %v", ids)
	}
	m.Send(1, 2, "x", 1)
	eng.Run(0)
	if len(rx.msgs) != 1 {
		t.Error("handler missed message")
	}
	if _, ok := m.PosOf(1); !ok {
		t.Error("PosOf known node failed")
	}
	if _, ok := m.PosOf(9); ok {
		t.Error("PosOf unknown node succeeded")
	}
}

// scriptedInterceptor replays a fixed fate sequence, one per delivery.
type scriptedInterceptor struct {
	fates []Fate
	i     int
}

func (s *scriptedInterceptor) DeliverFate(now float64, from, to NodeID, size int) Fate {
	if s.i >= len(s.fates) {
		return Fate{}
	}
	f := s.fates[s.i]
	s.i++
	return f
}

func TestInterceptorFates(t *testing.T) {
	eng, m := newTestMedium(t, Config{})
	if err := m.Attach(1, Static{}, 50, 1e6, nil); err != nil {
		t.Fatal(err)
	}
	var rx capture
	var arrivals []float64
	if err := m.Attach(2, Static{X: 10}, 50, 1e6, func(from NodeID, msg any) {
		rx.handler()(from, msg)
		arrivals = append(arrivals, eng.Now())
	}); err != nil {
		t.Fatal(err)
	}
	m.SetInterceptor(&scriptedInterceptor{fates: []Fate{
		{Drop: true},
		{Dup: true, DupDelay: 0.5},
		{Delay: 2},
		{},
	}})
	for i := 0; i < 4; i++ {
		m.Send(1, 2, i, 8)
	}
	eng.Run(0)
	// msg 0 dropped; msg 1 duplicated; msg 2 delayed 2s; msg 3 normal.
	if len(rx.msgs) != 4 {
		t.Fatalf("delivered %d messages, want 4 (dup of 1, delayed 2, normal 3): %v", len(rx.msgs), rx.msgs)
	}
	if m.Stats.FaultDrops != 1 || m.Stats.FaultDups != 1 {
		t.Fatalf("fault stats = %+v", m.Stats)
	}
	for _, msg := range rx.msgs {
		if msg.(int) == 0 {
			t.Fatal("dropped message delivered")
		}
	}
	// The delayed message must land 2s after the base latency; the dup
	// 0.5s after its original.
	last := arrivals[len(arrivals)-1]
	if last < 2 {
		t.Fatalf("delay spike not applied: final arrival at %g", last)
	}
}

func TestNilInterceptorIdentical(t *testing.T) {
	run := func(install bool) Stats {
		eng, m := newTestMedium(t, Config{LossProb: 0.3})
		if err := m.Attach(1, Static{}, 50, 1e6, nil); err != nil {
			t.Fatal(err)
		}
		var rx capture
		if err := m.Attach(2, Static{X: 10}, 50, 1e6, rx.handler()); err != nil {
			t.Fatal(err)
		}
		if install {
			m.SetInterceptor(&scriptedInterceptor{}) // always zero fates
		}
		for i := 0; i < 200; i++ {
			m.Send(1, 2, i, 8)
		}
		eng.Run(0)
		return m.Stats
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("zero-fate interceptor perturbed the medium: %+v vs %+v", a, b)
	}
}
