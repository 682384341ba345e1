package sim

import "testing"

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestScheduleAndFireAllocatesNothing holds the queue to its promise: on
// a warmed engine (slab, free list, heap and lanes grown), scheduling an
// event and firing it allocates nothing, whichever call scheduled it.
func TestScheduleAndFireAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own; the count would not be the engine's")
	}
	e := New(1)
	fn := func() {}
	afn := func(any) {}
	arg := &struct{ n int }{}
	for _, c := range []struct {
		name     string
		schedule func()
	}{
		{"After", func() { e.After(0.5, fn) }},
		{"AfterArg", func() { e.AfterArg(1e-4, afn, arg) }},
		{"At", func() { e.At(e.Now()+1, fn) }},
	} {
		for i := 0; i < 64; i++ {
			c.schedule()
		}
		e.Run(0)
		if n := testing.AllocsPerRun(1000, func() {
			c.schedule()
			e.Step()
		}); n != 0 {
			t.Errorf("%s: %v allocations per schedule-and-fire, want 0", c.name, n)
		}
	}
}
