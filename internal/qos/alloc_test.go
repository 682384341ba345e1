package qos

import "testing"

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestCompiledDistanceAllocatesNothing holds the compiled evaluator to its
// promise: scoring a warmed assignment allocates nothing.
func TestCompiledDistanceAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own; the count would not be the evaluator's")
	}
	e := mustEval(t)
	ld := mustLadder(t, DefaultGridSteps)
	c, err := e.Compile(ld, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := ld.NewAssignment()
	a[0] = 1
	c.Distance(a)
	if n := testing.AllocsPerRun(1000, func() { c.Distance(a) }); n != 0 {
		t.Errorf("%v allocations per Compiled.Distance, want 0", n)
	}
}
