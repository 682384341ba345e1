package trace

import "testing"

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestNilRecorderAllocatesNothing holds observability-off to one pointer
// check: every emit on a nil Recorder allocates nothing.
func TestNilRecorderAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own; the count would not be the recorder's")
	}
	var r *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		r.Emit(Event{Kind: "x"})
		r.Point(1, 0, "engine", "arrival", "")
		r.Begin(1, 0, "engine", "round", "").End(2, "done")
	}); n != 0 {
		t.Errorf("%v allocations per nil-recorder emit, want 0", n)
	}
}
