package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestRingKeepsOrder(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 10; i++ {
		r.Emit(Event{T: float64(i), Node: i, Kind: "k"})
	}
	ev := r.Events()
	if len(ev) != 10 {
		t.Fatalf("events = %d", len(ev))
	}
	for i, e := range ev {
		if e.Node != i {
			t.Fatalf("order broken at %d: %+v", i, e)
		}
	}
	if r.Total() != 10 {
		t.Errorf("total = %d", r.Total())
	}
}

func TestRingWrapsKeepingNewest(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 40; i++ {
		r.Emit(Event{Node: i})
	}
	ev := r.Events()
	if len(ev) != 16 {
		t.Fatalf("retained = %d, want capacity", len(ev))
	}
	if ev[0].Node != 24 || ev[15].Node != 39 {
		t.Errorf("wrap lost the newest window: first %d last %d", ev[0].Node, ev[15].Node)
	}
	if r.Total() != 40 {
		t.Errorf("total = %d", r.Total())
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing(1)
	for i := 0; i < 20; i++ {
		r.Emit(Event{Node: i})
	}
	if len(r.Events()) != 16 {
		t.Errorf("minimum capacity not enforced: %d", len(r.Events()))
	}
}

func TestRingConcurrentEmit(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Emit(Event{Node: g, Kind: "c"})
			}
		}(g)
	}
	wg.Wait()
	if r.Total() != 800 {
		t.Errorf("total = %d, want 800", r.Total())
	}
	if len(r.Events()) != 64 {
		t.Errorf("retained = %d", len(r.Events()))
	}
}

func TestFilterAndString(t *testing.T) {
	r := NewRing(16)
	r.Emit(Event{T: 1, Node: 0, Role: "organizer", Kind: "cfp", Detail: "round 0"})
	r.Emit(Event{T: 2, Node: 1, Role: "provider", Kind: "propose", Detail: "2 tasks"})
	r.Emit(Event{T: 3, Node: 0, Role: "organizer", Kind: "formed", Detail: "done"})
	if got := len(r.Events()); got != 3 {
		t.Errorf("retained = %d", got)
	}
	s := r.String()
	for _, want := range []string{"organizer", "provider", "cfp", "propose", "formed", "round 0"} {
		if !strings.Contains(s, want) {
			t.Errorf("timeline missing %q:\n%s", want, s)
		}
	}
	// Nop never panics and discards.
	(Nop{}).Emit(Event{})
}
